import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import mat_apply
from loopsynth.matrix import SymMatrix, char_poly
from loopsynth.poly import Polynomial, Var

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def det_leibniz(m: SymMatrix) -> Polynomial:
    """Determinant by permutation expansion: exponential, an oracle for
    small matrices."""
    n = m.rows
    total = Polynomial.zero()
    for perm in itertools.permutations(range(n)):
        term = Polynomial.const(_perm_sign(perm))
        for i in range(n):
            term = term * m.entries[i][perm[i]]
        total = total + term
    return total


def _perm_sign(perm: tuple[int, ...]) -> int:
    """(-1) to the number of even-length cycles."""
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def rational_matrix(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(SymMatrix.make)


def identity(n: int) -> SymMatrix:
    return SymMatrix.make([[int(i == j) for j in range(n)] for i in range(n)])


def matrix_power(m: SymMatrix, k: int) -> SymMatrix:
    out = identity(m.rows)
    for _ in range(k):
        out = out * m
    return out


def symbolic_matrix(n: int) -> SymMatrix:
    return SymMatrix.make([
        [Polynomial.var(Var(f"b{i}{j}", "matrix")) for j in range(n)]
        for i in range(n)
    ])


def char_poly_oracle(m: SymMatrix, w: Var) -> Polynomial:
    """det(wI - m) by permutation expansion."""
    shifted = SymMatrix.make([
        [Polynomial.var(w) * int(i == j) - m.entries[i][j] for j in range(m.cols)]
        for i in range(m.rows)
    ])
    return det_leibniz(shifted)


W = Var("w", "root")


class TestAlgebra:
    def test_identity_multiplication(self):
        m = SymMatrix.make([[1, 2], [3, 4]])
        assert m * identity(2) == m
        assert identity(2) * m == m

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            SymMatrix.make([[1, 2], [3]])
        with pytest.raises(ValueError):
            SymMatrix.make([[1, 2]]) * SymMatrix.make([[1, 2]])

    def test_mat_apply(self):
        m = SymMatrix.make([[1, 2], [3, 4]])
        assert mat_apply(m, [1, 1]) == (Polynomial.const(3), Polynomial.const(7))


class TestDeterminant:
    """char_poly against the permutation expansion of det(wI - m)."""

    @given(st.integers(1, 4).flatmap(rational_matrix))
    @settings(deadline=None, max_examples=60)
    def test_char_poly_matches_permutation_expansion(self, m):
        assert char_poly(m, W) == char_poly_oracle(m, W)

    @pytest.mark.parametrize("n", [3, 4])
    def test_fully_symbolic(self, n):
        m = symbolic_matrix(n)
        assert char_poly(m, W) == char_poly_oracle(m, W)

    def test_symbolic_entries(self):
        a, b, c, d = (Polynomial.var(Var(n, "matrix")) for n in "abcd")
        w = Polynomial.var(W)
        m = SymMatrix.make([[a, b], [c, d]])
        expected = w * w - (a + d) * w + a * d - b * c
        assert char_poly(m, W) == expected == char_poly_oracle(m, W)

    def test_singular(self):
        # the constant coefficient is det(-m)
        chi = char_poly(SymMatrix.make([[1, 2], [2, 4]]), W)
        assert chi.substitute({W: Polynomial.zero()}).is_zero()

    def test_zero_pivot_needs_row_swap(self):
        # a zero (0,0) entry made Bareiss elimination pivot
        m = SymMatrix.make([[0, 1], [1, 0]])
        assert char_poly(m, W) == Polynomial.var(W) ** 2 - 1
        b = symbolic_matrix(3)
        zero_corner = SymMatrix.make(
            [[0 if (i, j) == (0, 0) else e for j, e in enumerate(row)]
             for i, row in enumerate(b.entries)]
        )
        assert char_poly(zero_corner, W) == char_poly_oracle(zero_corner, W)


class TestCharPoly:
    def test_monic_of_matrix_size(self):
        w = Var("w", "root")
        m = SymMatrix.make([[2, 1], [0, 3]])
        chi = char_poly(m, w)
        coeffs = dict((k, c) for k, c in chi.coeffs_in(w))
        assert max(coeffs) == 2
        assert coeffs[2] == Polynomial.const(1)

    def test_roots_of_triangular(self):
        w = Var("w", "root")
        m = SymMatrix.make([[2, 5], [0, 3]])
        chi = char_poly(m, w)
        for root in (2, 3):
            assert chi.substitute({w: Polynomial.const(root)}).is_zero()

    def test_indeterminate_collision_rejected(self):
        w = Var("w", "root")
        m = SymMatrix.make([[Polynomial.var(w)]])
        with pytest.raises(ValueError):
            char_poly(m, w)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly(SymMatrix.make([[1, 2]]), W)

    @given(st.integers(1, 3).flatmap(rational_matrix))
    @settings(deadline=None, max_examples=40)
    def test_cayley_hamilton(self, m):
        w = Var("w", "root")
        chi = char_poly(m, w)
        total = SymMatrix.make(
            [[0] * m.rows for _ in range(m.rows)]
        )
        for k, coeff in chi.coeffs_in(w):
            c = coeff.constant_value()
            total = SymMatrix.make([
                [t + c * p for t, p in zip(trow, prow)]
                for trow, prow in zip(total.entries, matrix_power(m, k).entries)
            ])
        assert all(e.is_zero() for row in total.entries for e in row)
