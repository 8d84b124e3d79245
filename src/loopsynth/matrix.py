"""Symbolic matrices over the polynomial ring, determinants, characteristic
polynomials.

The determinant uses fraction-free Bareiss elimination, which stays inside
the polynomial ring (every division is exact) and avoids the factorial
blowup of cofactor expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .poly import Polynomial, Rat, Var

Entry = Polynomial | Rat


@dataclass(frozen=True)
class SymMatrix:
    """Immutable rectangular matrix with polynomial entries."""

    entries: tuple[tuple[Polynomial, ...], ...]

    @staticmethod
    def make(rows: Sequence[Sequence[Entry]]) -> "SymMatrix":
        if not rows:
            raise ValueError("matrix must have at least one row")
        width = len(rows[0])
        out = []
        for row in rows:
            if len(row) != width:
                raise ValueError("ragged matrix")
            out.append(tuple(Polynomial.coerce(e) for e in row))
        return SymMatrix(tuple(out))

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix.make(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def at(self, i: int, j: int) -> Polynomial:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i][j]

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        self._require_same_shape(other)
        return SymMatrix(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        self._require_same_shape(other)
        return SymMatrix(
            tuple(
                tuple(a - b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    def __mul__(self, other: "SymMatrix") -> "SymMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = Polynomial.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(tuple(row))
        return SymMatrix(tuple(out))

    def scale(self, c: Polynomial | Rat) -> "SymMatrix":
        c = Polynomial.coerce(c)
        return SymMatrix(tuple(tuple(c * e for e in row) for row in self.entries))

    def pow(self, k: int) -> "SymMatrix":
        if self.rows != self.cols:
            raise ValueError("matrix power requires a square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        out = SymMatrix.identity(self.rows)
        for _ in range(k):
            out = out * self
        return out

    def _require_same_shape(self, other: "SymMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for row in self.entries:
            for e in row:
                out |= e.variables()
        return out

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def det(m: SymMatrix) -> Polynomial:
    """Determinant via fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    a = [list(row) for row in m.entries]
    sign = 1
    prev = Polynomial.const(1)
    for k in range(n - 1):
        if a[k][k].is_zero():
            # pivot: find a row below with a nonzero entry in column k
            for r in range(k + 1, n):
                if not a[r][k].is_zero():
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Polynomial.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                a[i][j] = num.divexact(prev)
            a[i][k] = Polynomial.zero()
        prev = a[k][k]
    result = a[n - 1][n - 1]
    return result if sign == 1 else -result


def char_poly(b: SymMatrix, omega: Var) -> Polynomial:
    """Characteristic polynomial det(wI - B) in the indeterminate `omega`.

    Monic of degree equal to the matrix size.
    """
    if b.rows != b.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    if omega in b.variables():
        raise ValueError(f"indeterminate {omega.name!r} already occurs in the matrix")
    w = Polynomial.var(omega)
    shifted = SymMatrix.identity(b.rows).scale(w) - b
    return det(shifted)


def mat_apply(m: SymMatrix, vec: Sequence[Polynomial | Rat]) -> tuple[Polynomial, ...]:
    """Multiply an s x k matrix by a length-k vector of polynomials."""
    if m.cols != len(vec):
        raise ValueError("dimension mismatch")
    vs = [Polynomial.coerce(v) for v in vec]
    out = []
    for row in m.entries:
        acc = Polynomial.zero()
        for e, v in zip(row, vs):
            acc = acc + e * v
        out.append(acc)
    return tuple(out)

