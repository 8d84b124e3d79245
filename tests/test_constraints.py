from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.constraints import Atom, Clause, Pcp, decompose, decompose_poly, first_violated
from loopsynth.poly import Monomial, Polynomial, Var

X = Var("x", "program", 0)
Y = Var("y", "program", 1)
P1 = Var("p", "param")
P2 = Var("q", "param")

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


class TestAtoms:
    def test_sign_canonicalization_flips_relation(self):
        p = -Polynomial.var(X) + 1  # leading coefficient negative
        for rel in ("=", "!="):
            a = Atom.make(p, rel)
            assert a.lhs == Polynomial.var(X) - 1
            assert a.rel == rel  # negating lhs changes neither relation

    def test_equality_survives_flip(self):
        a = Atom.make(-Polynomial.var(X), "=")
        b = Atom.make(Polynomial.var(X), "=")
        assert a == b

    def test_holds(self):
        a = Atom.make(Polynomial.var(X) - 2, "=")
        assert a.holds({X: Fraction(2)})
        assert not a.holds({X: Fraction(3)})
        ne = Atom.make(2 - Polynomial.var(X), "!=")
        assert ne.holds({X: Fraction(1)}) and not ne.holds({X: Fraction(2)})

    def test_unknown_relation_rejected(self):
        for rel in ("~", "<"):
            with pytest.raises(ValueError):
                Atom.make(Polynomial.var(X), rel)


class TestClauses:
    def test_disjunction_semantics(self):
        c = Clause.any([(Polynomial.var(X), "="), (Polynomial.var(Y), "=")])
        assert c.holds({X: Fraction(0), Y: Fraction(5)})
        assert not c.holds({X: Fraction(1), Y: Fraction(5)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Clause.any([])

    def test_unit_equality_detection(self):
        assert Clause.unit(Polynomial.var(X)).is_unit_equality
        assert not Clause.unit(Polynomial.var(X), "!=").is_unit_equality


class TestPcp:
    def test_order_and_dedup(self):
        c1 = Clause.unit(Polynomial.var(X))
        c2 = Clause.unit(Polynomial.var(Y))
        pcp = Pcp([c1, c2, c1, Clause.unit(-Polynomial.var(X))])
        assert list(pcp) == [c1, c2]

    def test_check_model_returns_first_violation(self):
        pcp = Pcp([
            Clause.unit(Polynomial.var(X) - 1),
            Clause.unit(Polynomial.var(Y) - 2),
        ])
        assert first_violated(pcp, {X: Fraction(1), Y: Fraction(2)}) is None
        bad = first_violated(pcp, {X: Fraction(1), Y: Fraction(0)})
        assert bad is not None and Y in bad.variables()


@st.composite
def mixed_polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        mono = Monomial.make({
            X: draw(st.integers(0, 2)),
            P1: draw(st.integers(0, 2)),
            P2: draw(st.integers(0, 2)),
        })
        terms[mono] = draw(rationals)
    return Polynomial(terms)


class TestDecompose:
    def test_example(self):
        # (p + 1)*x + p*q  ->  coefficients x, 1, p-free pieces
        p = (Polynomial.var(P1) + 1) * Polynomial.var(X) + Polynomial.var(P1) * Polynomial.var(P2)
        parts = decompose_poly(p, [P1, P2])
        assert all(not (q.variables() & {P1, P2}) for q in parts)
        # vanishing of all parts is equivalent to vanishing for all parameter values
        assert Polynomial.var(X) in parts

    @given(mixed_polys())
    @settings(deadline=None, max_examples=60)
    def test_reconstruction(self, p):
        parts = decompose_poly(p, [P1, P2])
        assert all(not (q.variables() & {P1, P2}) for q in parts)
        # each part is the coefficient of a distinct parameter monomial
        rebuilt = {}
        for mono, coeff in p.terms.items():
            key = Monomial.make({P1: mono.degree_of(P1), P2: mono.degree_of(P2)})
            piece = Monomial.make({X: mono.degree_of(X)})
            rebuilt.setdefault(key, {})[piece] = coeff
        expected = sorted(
            str(q) for q in (Polynomial(t) for t in rebuilt.values()) if not q.is_zero()
        )
        got = sorted(str(q) for q in parts if not q.is_zero())
        assert got == expected

    @given(mixed_polys())
    @settings(deadline=None, max_examples=100)
    def test_pieces_come_in_reversed_exponent_order(self, p):
        # oracle: the coefficient of p^i q^j for ascending (j, i), the last
        # parameter most significant; none for an absent (i, j), and a
        # single 0 when p is zero
        want = []
        for j in range(3):
            for i in range(3):
                piece = Polynomial({
                    Monomial.make({X: m.degree_of(X)}): c for m, c in p.terms.items()
                    if (m.degree_of(P1), m.degree_of(P2)) == (i, j)
                })
                if not piece.is_zero():
                    want.append(piece)
        assert decompose_poly(p, [P1, P2]) == (want or [Polynomial.zero()])

    @given(mixed_polys(), rationals, rationals, rationals)
    @settings(deadline=None, max_examples=60)
    def test_zero_for_all_values_iff_all_parts_zero(self, p, a, b, c):
        parts = decompose_poly(p, [P1, P2])
        if all(q.is_zero() for q in parts):
            assert p.evaluate({X: a, P1: b, P2: c}) == 0

    def test_clause_level(self):
        # one unit equality per piece, each equality's pieces in turn
        x, p1 = Polynomial.var(X), Polynomial.var(P1)
        out = decompose([p1 * x - 2 * x, x, p1 - p1], [P1])
        assert out == [Clause.unit(-2 * x), Clause.unit(x), Clause.unit(x), Clause.unit(Polynomial.zero())]
        assert all(c.is_unit_equality and P1 not in c.variables() for c in out)
