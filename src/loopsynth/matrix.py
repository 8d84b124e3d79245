"""Symbolic matrices over the polynomial ring and their characteristic
polynomials.

The characteristic polynomial uses Berkowitz's algorithm, which needs ring
operations only: no division, and no indeterminate inside the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .poly import Monomial, Polynomial, Rat, Var

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

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
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

    def variables(self) -> set[Var]:
        out: set[Var] = set()
        for row in self.entries:
            for e in row:
                out |= e.variables()
        return out

    def __str__(self):
        return "[" + "; ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"


def char_poly(b: SymMatrix, omega: Var) -> Polynomial:
    """Characteristic polynomial det(wI - B) in the indeterminate `omega`.

    Monic of degree equal to the matrix size.
    """
    if b.rows != b.cols:
        raise ValueError("characteristic polynomial requires a square matrix")
    if omega in b.variables():
        raise ValueError(f"indeterminate {omega.name!r} already occurs in the matrix")
    terms: dict[Monomial, Rat] = {}
    for k, coeff in enumerate(_berkowitz(b)):
        wk = Monomial.of(omega, b.rows - k)
        for m, c in coeff.terms.items():
            terms[m.mul(wk)] = c
    return Polynomial(terms)


def _berkowitz(b: SymMatrix) -> list[Polynomial]:
    """Coefficients of det(zI - B), leading first, by Berkowitz's recursion.

    Step r borders the leading r x r block A with the column c above the
    corner a and the row d left of it.  The bordered block's coefficient
    vector is A's times the lower-triangular Toeplitz matrix whose first
    column is 1, -a, -d c, -d A c, ..., -d A^(r-1) c.
    """
    e = b.entries
    coeffs = [Polynomial.const(1)]
    for r in range(b.rows):
        col = [-e[r][r]]  # the Toeplitz column below its leading 1
        x = [e[i][r] for i in range(r)]
        for k in range(r):
            col.append(-_dot(e[r][:r], x))
            if k + 1 < r:
                x = [_dot(e[i][:r], x) for i in range(r)]
        coeffs.append(Polynomial.zero())
        coeffs = [coeffs[i] + _dot(col[:i], reversed(coeffs[:i])) for i in range(r + 2)]
    return coeffs


def _dot(xs: Iterable[Polynomial], ys: Iterable[Polynomial]) -> Polynomial:
    acc = Polynomial.zero()
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc

