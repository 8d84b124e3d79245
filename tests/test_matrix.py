import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.matrix import SymMatrix, char_poly, det, mat_apply
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


class TestAlgebra:
    def test_identity_multiplication(self):
        m = SymMatrix.make([[1, 2], [3, 4]])
        assert m * SymMatrix.identity(2) == m
        assert SymMatrix.identity(2) * m == m

    def test_shapes_checked(self):
        with pytest.raises(ValueError):
            SymMatrix.make([[1, 2], [3]])
        with pytest.raises(ValueError):
            SymMatrix.make([[1, 2]]) * SymMatrix.make([[1, 2]])

    def test_pow(self):
        m = SymMatrix.make([[1, 1], [0, 1]])
        assert m.pow(3).at(0, 1) == Polynomial.const(3)
        assert m.pow(0) == SymMatrix.identity(2)

    def test_mat_apply(self):
        m = SymMatrix.make([[1, 2], [3, 4]])
        assert mat_apply(m, [1, 1]) == (Polynomial.const(3), Polynomial.const(7))


class TestDeterminant:
    @given(st.integers(1, 4).flatmap(rational_matrix))
    @settings(deadline=None, max_examples=60)
    def test_bareiss_matches_permutation_expansion(self, m):
        assert det(m) == det_leibniz(m)

    def test_symbolic_entries(self):
        a, b, c, d = (Var(n, "matrix") for n in "abcd")
        m = SymMatrix.make([[Polynomial.var(a), Polynomial.var(b)],
                            [Polynomial.var(c), Polynomial.var(d)]])
        expected = (Polynomial.var(a) * Polynomial.var(d)
                    - Polynomial.var(b) * Polynomial.var(c))
        assert det(m) == expected == det_leibniz(m)

    def test_singular(self):
        assert det(SymMatrix.make([[1, 2], [2, 4]])).is_zero()

    def test_zero_pivot_needs_row_swap(self):
        m = SymMatrix.make([[0, 1], [1, 0]])
        assert det(m) == Polynomial.const(-1)


class TestCharPoly:
    def test_monic_of_matrix_size(self):
        w = Var("w", "root")
        m = SymMatrix.make([[2, 1], [0, 3]])
        chi = char_poly(m, w)
        assert chi.degree_in(w) == 2
        coeffs = dict((k, c) for k, c in chi.coeffs_in(w))
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

    @given(st.integers(1, 3).flatmap(rational_matrix))
    @settings(deadline=None, max_examples=40)
    def test_cayley_hamilton(self, m):
        w = Var("w", "root")
        chi = char_poly(m, w)
        total = SymMatrix.make(
            [[0] * m.rows for _ in range(m.rows)]
        )
        for k, coeff in chi.coeffs_in(w):
            total = total + m.pow(k).scale(coeff.constant_value())
        assert all(e.is_zero() for row in total.entries for e in row)
