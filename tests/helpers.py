"""Polynomial helpers that only the tests use: the program builds no
matrix-vector product and no monomial power."""

from typing import Sequence

from loopsynth.matrix import SymMatrix
from loopsynth.poly import Monomial, Polynomial, Rat


def mat_apply(m: SymMatrix, vec: Sequence[Polynomial | Rat]) -> tuple[Polynomial, ...]:
    """Multiply an s x k matrix by a length-k vector of polynomials."""
    if m.cols != len(vec):
        raise ValueError("dimension mismatch")
    vs = [Polynomial.coerce(v) for v in vec]
    return tuple(sum((a * v for a, v in zip(row, vs)), Polynomial.zero()) for row in m.entries)


def monomial_pow(m: Monomial, k: int) -> Monomial:
    """The monomial m to the power k >= 0."""
    if k < 0:
        raise ValueError("negative monomial power")
    return Monomial([(v, e * k) for v, e in m]) if k else Monomial(())
