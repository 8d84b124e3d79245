import itertools
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import cmp_to_key
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from loopsynth.constraints import Clause
from loopsynth.poly import (
    Monomial,
    MONO_KEY,
    Polynomial,
    Var,
    ordered_polynomial,
    sign_normalize,
    signed_sum,
)
from loopsynth.smt import emit_smtlib

X = Var("x", "program", 0)
Y = Var("y", "program", 1)
Z = Var("z", "program", 2)
W = Var("w", "root")


def _mono_cmp(a, b):
    """Order oracle: graded lexicographic comparison, earlier variables
    more significant, written out as a comparison function."""
    if a.degree != b.degree:
        return -1 if a.degree < b.degree else 1
    da, db = dict(a), dict(b)
    for v in sorted(da.keys() | db.keys(), key=lambda u: u.sort_key):
        ea, eb = da.get(v, 0), db.get(v, 0)
        if ea != eb:
            return 1 if ea > eb else -1
    return 0


def poly_of(*terms):
    """terms: (coeff, {var: exp})"""
    return Polynomial({Monomial.make(m): Fraction(c) for c, m in terms})


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


@st.composite
def polynomials(draw, vars=(X, Y, Z), max_terms=5, max_exp=3):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mono = Monomial.make({
            v: draw(st.integers(0, max_exp)) for v in draw(st.sets(st.sampled_from(vars)))
        })
        terms[mono] = draw(rationals)
    return Polynomial(terms)


def compositional_substitute(p, bindings):
    """Reference substitution built from polynomial products and sums: each
    term is its coefficient times every factor, bound factors replaced by
    the binding's power."""
    subs = {v: Polynomial.coerce(q) for v, q in bindings.items()}
    acc = Polynomial.zero()
    for m, c in p.terms.items():
        term = Polynomial.const(c)
        for v, e in m:
            term = term * (subs[v] ** e if v in subs else Polynomial({Monomial.of(v, e): 1}))
        acc = acc + term
    return acc


class TestBasics:
    def test_zero_and_const(self):
        assert Polynomial.zero().is_zero()
        assert Polynomial.const(0).is_zero()
        p = Polynomial.const(Fraction(3, 2))
        assert p.is_constant() and p.constant_value() == Fraction(3, 2)

    def test_var_and_degree(self):
        p = Polynomial.var(X) * Polynomial.var(X) + Polynomial.var(Y)
        assert max(m.degree for m in p.terms) == 2
        assert [k for k, _ in p.coeffs_in(X)] == [0, 2] and [k for k, _ in p.coeffs_in(Y)] == [0, 1]
        assert p.variables() == {X, Y}

    def test_dropping_zero_coefficients(self):
        p = Polynomial({Monomial.of(X): Fraction(0)})
        assert p.is_zero()

    def test_equality_with_numbers(self):
        assert Polynomial.const(5) == 5
        assert Polynomial.var(X) - Polynomial.var(X) == 0

    def test_str_is_canonical(self):
        p = poly_of((1, {X: 2}), (-2, {Y: 1}), (Fraction(1, 2), {}))
        assert str(p) == "x^2 - 2*y + 1/2"

    def test_signed_sum_writes_terms_in_the_given_order(self):
        assert signed_sum([(-1, "x"), (2, "y"), (Fraction(-1, 2), ""), (1, "z")]) == "-x + 2*y - 1/2 + z"
        assert signed_sum([(0, "x"), (Fraction(-3), "y"), (Fraction(3), "")]) == "-3*y + 3"
        assert signed_sum([(0, "x"), (Fraction(0), "")]) == signed_sum([]) == "0"


class TestArithmetic:
    @given(polynomials(), polynomials())
    @settings(deadline=None, max_examples=60)
    def test_addition_commutes(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials(), polynomials())
    @settings(deadline=None, max_examples=40)
    def test_multiplication_distributes(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials(), polynomials())
    @settings(deadline=None, max_examples=40)
    def test_multiplication_commutes(self, p, q):
        assert p * q == q * p

    @given(polynomials())
    @settings(deadline=None, max_examples=40)
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polynomials(), st.integers(0, 4))
    @settings(deadline=None, max_examples=30)
    def test_power_is_iterated_product(self, p, k):
        expected = Polynomial.const(1)
        for _ in range(k):
            expected = expected * p
        assert p ** k == expected

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Polynomial.var(X) ** -1


def _oracle(p):
    """p's terms with every coefficient as a Fraction."""
    return {m: Fraction(c) for m, c in p.terms.items()}


def _oracle_add(a, b):
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, Fraction(0)) + c
    return {m: c for m, c in acc.items() if c != 0}


def _oracle_mul(a, b):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            m = Monomial.make(exps)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in acc.items() if c != 0}


def _assert_normalized(p):
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
        assert c != 0


class TestExactCoefficients:
    @given(polynomials(), polynomials(), st.integers(0, 3))
    @settings(deadline=None, max_examples=80)
    def test_arithmetic_matches_a_fraction_oracle(self, p, q, k):
        a, b = _oracle(p), _oracle(q)
        power = {Monomial(()): Fraction(1)}
        for _ in range(k):
            power = _oracle_mul(power, a)
        cases = [
            (p + q, _oracle_add(a, b)),
            (p - q, _oracle_add(a, {m: -c for m, c in b.items()})),
            (-p, {m: -c for m, c in a.items()}),
            (p * q, _oracle_mul(a, b)),
            (p ** k, power),
            (p.scale(Fraction(2, 3)), {m: c * Fraction(2, 3) for m, c in a.items()}),
        ]
        for got, want in cases:
            assert got.terms == want
            _assert_normalized(got)

    def test_integral_fractions_are_stored_as_ints(self):
        half = Polynomial.const(Fraction(1, 2))
        p = Polynomial({Monomial.of(X): Fraction(4, 2), Monomial(()): Fraction(0)}) + half + half
        assert p.terms == {Monomial.of(X): 2, Monomial(()): 1}
        _assert_normalized(p)

    def test_ordered_terms_are_stored_normalized(self):
        monos = [Monomial.of(X, 2), Monomial.of(X), Monomial(())]
        p = ordered_polynomial(monos, [Fraction(4, 2), Fraction(1, 3), -1])
        assert p.terms == {monos[0]: 2, monos[1]: Fraction(1, 3), monos[2]: -1}
        _assert_normalized(p)
        assert p.sorted_monomials() is monos

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            Polynomial({Monomial.of(X): 0.5})
        with pytest.raises(TypeError):
            Polynomial.const(1.0)
        with pytest.raises(TypeError):
            Polynomial.var(X).scale(0.5)

    def test_scalars_leave_as_fractions(self):
        p = Polynomial.const(3)
        assert type(p.constant_value()) is Fraction
        assert type(Polynomial.zero().constant_value()) is Fraction
        q = 2 * Polynomial.var(X) + 1
        assert type(q.evaluate({X: Fraction(1)})) is Fraction
        assert type(q.evaluate({X: 1})) is Fraction
        assert type(Polynomial.zero().evaluate({})) is Fraction


class TestSubstitution:
    def test_simultaneous(self):
        # x <- y, y <- x must swap, not chain
        p = Polynomial.var(X) - 2 * Polynomial.var(Y)
        q = p.substitute({X: Polynomial.var(Y), Y: Polynomial.var(X)})
        assert q == Polynomial.var(Y) - 2 * Polynomial.var(X)

    def test_unbound_pass_through(self):
        p = Polynomial.var(X) + Polynomial.var(Y)
        assert p.substitute({X: Polynomial.const(1)}) == Polynomial.var(Y) + 1

    @given(polynomials(), rationals, rationals, rationals)
    @settings(deadline=None, max_examples=40)
    def test_substitute_matches_evaluate(self, p, a, b, c):
        env = {X: a, Y: b, Z: c}
        assert p.substitute(env).constant_value() == p.evaluate(env)

    @given(polynomials(), st.dictionaries(
        st.sampled_from([X, Y, Z]),
        st.one_of(rationals, polynomials(vars=(X, Y, Z, W), max_terms=3, max_exp=2)),
    ))
    @settings(deadline=None, max_examples=80)
    def test_one_pass_matches_compositional_reference(self, p, bindings):
        """Constant, polynomial and mixed bindings, including ones that
        mention the variables being bound."""
        got = p.substitute(bindings)
        assert got.terms == compositional_substitute(p, bindings).terms
        _assert_normalized(got)

    @given(polynomials(), st.permutations([X, Y, Z]), st.lists(rationals, min_size=3, max_size=3))
    @settings(deadline=None, max_examples=40)
    def test_simultaneous_permutations_match_reference(self, p, perm, scales):
        bindings = {v: s * Polynomial.var(u) + 1 for v, u, s in zip([X, Y, Z], perm, scales)}
        assert p.substitute(bindings) == compositional_substitute(p, bindings)

    @given(polynomials(vars=(X, Y)))
    @settings(deadline=None, max_examples=20)
    def test_untouched_polynomial_is_returned_as_is(self, p):
        assert p.substitute({}) is p
        assert p.substitute({Z: Polynomial.var(X)}) is p

    def test_evaluate_requires_full_assignment(self):
        with pytest.raises(KeyError):
            (Polynomial.var(X) + Polynomial.var(Y)).evaluate({X: Fraction(1)})


class TestStructure:
    def test_coeffs_in_reconstructs(self):
        p = poly_of((2, {X: 2, Y: 1}), (3, {X: 1}), (1, {Y: 2}), (5, {}))
        rebuilt = Polynomial.zero()
        for k, coeff in p.coeffs_in(X):
            rebuilt = rebuilt + coeff * Polynomial.var(X) ** k
        assert rebuilt == p

    @given(polynomials())
    @settings(deadline=None, max_examples=40)
    def test_coeffs_in_reconstructs_random(self, p):
        rebuilt = Polynomial.zero()
        for k, coeff in p.coeffs_in(Y):
            rebuilt = rebuilt + coeff * Polynomial.var(Y) ** k
        assert rebuilt == p

    def test_graded_order(self):
        lo = Monomial.make({Y: 1})
        hi = Monomial.make({X: 2})
        assert MONO_KEY(lo) < MONO_KEY(hi)  # degree dominates
        # same degree: earlier variable more significant
        a = Monomial.make({X: 1, Y: 1})
        b = Monomial.make({Y: 2})
        assert MONO_KEY(b) < MONO_KEY(a)

    @given(polynomials())
    @settings(deadline=None, max_examples=40)
    def test_sign_normalize_idempotent_and_canonical(self, p):
        n = sign_normalize(p)
        assert sign_normalize(n) == n
        assert sign_normalize(-p) == n


# Program variables with positions, one without (it orders among the
# generated symbols), and generated names that are prefixes of one another.
ORDER_POOL = (
    X, Y, Z,
    Var("t", "program"),
    Var("a", "coeff"), Var("ab", "coeff"),
    Var("b1", "matrix"), Var("b11", "matrix"), Var("b12", "matrix"),
    Var("w1", "root"), Var("c1_1_1", "coeff"),
)

# In the global order: a user variable w1 makes the template name its root
# _w1, which sorts before the coefficient symbols c...; s is two kinds that
# share one name, so one sort key.
MUL_POOL = (
    Var("w1", "program", 0), Var("_w1", "root"), Var("c1_1_1", "coeff"),
    Var("c1_2_1", "coeff"), Var("s", "coeff"), Var("s", "root"), Var("w2", "root"),
    Var("x0", "param"),
)

# the empty dict gives the empty monomial
monomials = st.dictionaries(
    st.sampled_from(ORDER_POOL), st.integers(1, 3), max_size=4
).map(Monomial.make)


def _sign(a, b):
    return (a > b) - (a < b)


class TestMonomialOrder:
    def test_var_order_key_inverts_sort_key(self):
        for u, v in itertools.product(ORDER_POOL, repeat=2):
            assert _sign(v.order_key, u.order_key) == _sign(u.sort_key, v.sort_key)

    def test_a_name_orders_before_its_extensions(self):
        b1, b11, b12 = ORDER_POOL[6:9]
        assert MONO_KEY(Monomial.of(b1)) > MONO_KEY(Monomial.of(b11)) > MONO_KEY(Monomial.of(b12))
        squares = [Monomial.of(b1, 2), Monomial.of(b11, 2), Monomial.make({b1: 1, b12: 1})]
        assert sorted(squares, key=MONO_KEY) == [squares[1], squares[2], squares[0]]

    @given(monomials, monomials)
    @settings(deadline=None, max_examples=400)
    def test_mono_key_agrees_with_the_oracle(self, a, b):
        assert _sign(MONO_KEY(a), MONO_KEY(b)) == _mono_cmp(a, b)

    @given(monomials, monomials)
    @settings(deadline=None, max_examples=400)
    def test_merged_product_matches_make(self, a, b):
        exps = dict(a)
        for v, e in b:
            exps[v] = exps.get(v, 0) + e
        want = Monomial.make(exps)
        got = a.mul(b)
        assert got == want and hash(got) == hash(want)

    def test_symbols_sharing_a_sort_key_multiply_as_make_does(self):
        # distinct symbols with one name have equal sort keys; the merge
        # leaves them to Monomial.make, so equal products stay equal
        p, q = Var("s", "coeff"), Var("s", "root")
        a, b = Monomial.make({p: 1, q: 2}), Monomial.make({q: 1, p: 1})
        assert a.mul(b) == Monomial.make({p: 2, q: 3})

    @given(st.data())
    @settings(deadline=None, max_examples=300)
    def test_product_matches_a_dict_merge(self, data):
        """Monomials drawn below and above a cut in the global order, so
        each sorts wholly before the other, multiply in either order as a
        merge of their exponent dicts does; a cut between the two kinds of
        `s` leaves one sort key on both sides."""
        assert sorted(MUL_POOL, key=lambda v: v.sort_key) == list(MUL_POOL)
        cut = data.draw(st.integers(0, len(MUL_POOL)))

        def over(pool):
            return st.dictionaries(st.sampled_from(pool), st.integers(1, 3), max_size=3).map(
                Monomial.make) if pool else st.just(Monomial(()))

        low, high, any_ = (data.draw(over(pool)) for pool in (MUL_POOL[:cut], MUL_POOL[cut:], MUL_POOL))
        for a, b in ((low, high), (high, low), (low, any_), (any_, high)):
            merged = dict(a)
            for v, e in b:
                merged[v] = merged.get(v, 0) + e
            got = a.mul(b)
            assert type(got) is Monomial and got == Monomial.make(merged)

    def test_a_name_may_not_hold_the_order_key_sentinel(self):
        with pytest.raises(ValueError, match="U\\+10FFFF"):
            Var("b\U0010ffff", "coeff")

    def test_without_an_absent_variable_is_the_same_monomial(self):
        m = Monomial.make({X: 2, ORDER_POOL[6]: 1})
        assert m.without(Y) is m
        assert m.without(X) == ((ORDER_POOL[6], 1),)

    @given(st.lists(monomials, max_size=8), st.lists(rationals, min_size=8, max_size=8))
    @settings(deadline=None, max_examples=100)
    def test_leading_and_sorted_terms_follow_the_oracle(self, monos, coeffs):
        p = Polynomial(dict(zip(monos, coeffs)))
        expected = sorted(p.terms, key=cmp_to_key(_mono_cmp), reverse=True)
        assert [m for m, _ in p.sorted_terms()] == expected
        if expected:
            assert p.leading() == (expected[0], p.terms[expected[0]])


class TestInterning:
    def test_one_object_per_triple(self):
        assert Var("x", "program", 0) is X
        assert Var(name="x", kind="program", pos=0) is X
        assert Var("w", "root") is Var("w", "root", -1) is W

    def test_another_kind_or_position_is_another_symbol(self):
        others = [Var("x", "root"), Var("x", "program", 1), Var("x", "program")]
        assert len({id(v) for v in [X, *others]}) == 4
        assert all(v != X for v in others) and X not in set(others)

    def test_immutable(self):
        with pytest.raises(AttributeError):
            X.name = "y"
        with pytest.raises(AttributeError):
            X.extra = 1
        with pytest.raises(AttributeError):
            del X.pos
        assert (X.name, X.kind, X.pos) == ("x", "program", 0)

    def test_pickle_returns_the_interned_object(self):
        assert pickle.loads(pickle.dumps(X)) is X
        m = Monomial.make({X: 2, W: 1})
        back = pickle.loads(pickle.dumps(m))
        assert back == m and type(back) is Monomial and back[0][0] is X

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError):
            Var("q", "nonsense")


# Symbols given by their fields: names shared across kinds and positions,
# so that only a field-wise comparison tells them apart.
TRIPLES = [(n, k, p) for n in ("a", "b1", "b11") for k, p in
           (("program", 0), ("program", 1), ("program", -1), ("matrix", -1), ("root", -1))]


def _fieldwise_equal(a, b):
    """Oracle: the equality of the dataclass monomial of (Var, exponent)
    pairs that the tuple monomial replaced, field by field."""
    return len(a) == len(b) and all(
        (u.name, u.kind, u.pos, e) == (v.name, v.kind, v.pos, f)
        for (u, e), (v, f) in zip(a, b)
    )


field_monomials = st.dictionaries(
    st.sampled_from(TRIPLES), st.integers(1, 3), max_size=3
).map(lambda d: Monomial.make({Var(*t): e for t, e in d.items()}))


class TestTupleMonomial:
    @given(field_monomials, field_monomials)
    @settings(deadline=None, max_examples=300)
    def test_equality_and_hash_agree_with_fieldwise_equality(self, a, b):
        assert (a == b) == _fieldwise_equal(a, b)
        if _fieldwise_equal(a, b):
            assert hash(a) == hash(b)
        rebuilt = Monomial.make({Var(v.name, v.kind, v.pos): e for v, e in a})
        assert rebuilt == a and hash(rebuilt) == hash(a)

    def test_powers_are_the_sorted_pairs(self):
        m = Monomial.make({Y: 1, X: 2})
        assert m == ((X, 2), (Y, 1)) and m.degree == 3
        assert Monomial.make({}) == Monomial(()) and not Monomial(())


class TestSortOnce:
    @given(st.lists(monomials, max_size=8), st.lists(rationals, min_size=8, max_size=8))
    @settings(deadline=None, max_examples=100)
    def test_negation_carries_the_order_of_a_fresh_sort(self, monos, coeffs):
        p = Polynomial(dict(zip(monos, coeffs)))
        p.sorted_terms()
        q = -p
        fresh = sorted(q.terms.items(), key=lambda t: cmp_to_key(_mono_cmp)(t[0]), reverse=True)
        assert q.sorted_terms() == fresh
        assert list(q.terms) == list(p.terms)
        if p.terms:
            assert q.leading() == fresh[0]
            assert sign_normalize(q).sorted_terms() == sign_normalize(p).sorted_terms()

    def test_the_order_is_computed_once(self):
        p = poly_of((1, {Y: 2}), (-3, {X: 1}), (2, {}))
        assert p.sorted_monomials() is p.sorted_monomials()
        assert (-p).sorted_monomials() is p.sorted_monomials()
        assert sign_normalize(-p).sorted_monomials() is p.sorted_monomials()


class TestRenderOnce:
    @given(polynomials(), polynomials(vars=(X, W)))
    @settings(deadline=None, max_examples=60)
    def test_cached_text_equals_a_fresh_clause(self, p, q):
        assume(not p.is_zero() and not q.is_zero())
        clause = Clause.any([(p, "="), (q, "!=")])
        first = clause.smtlib
        assert clause.smtlib is first
        # an equal clause built from fresh polynomials, terms in another order
        fresh = Clause.any([
            (Polynomial(dict(reversed(list((-p).terms.items())))), "="),
            (Polynomial(dict(reversed(list(q.terms.items())))), "!="),
        ])
        assert fresh == clause and fresh.smtlib == first
        assert emit_smtlib([clause]) == emit_smtlib([fresh])


_DIGEST_SCRIPT = """
import json, sys
from loopsynth.poly import Var
for key in reversed(json.loads(sys.stdin.read())):
    Var(*key)
from test_synth import _cell_text_digest, benchmark_request, recorded_digests
print(json.dumps({tier.value: {name: _cell_text_digest(benchmark_request(name, [tier])) for name in digests}
                  for tier, digests in recorded_digests().items()}))
"""


def test_clause_text_does_not_depend_on_symbol_ids_or_string_hashes():
    """Interned symbols hash by identity.  Created in reverse order, under
    another string-hash seed, they must give the recorded clause text."""
    import test_synth

    recorded = test_synth.recorded_digests()
    for tier, digests in recorded.items():  # intern every symbol the cells use, in search order
        for name in digests:
            test_synth._cell_text_digest(test_synth.benchmark_request(name, [tier]))
    keys = list(Var._interned)
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONHASHSEED="4242", PYTHONPATH=os.pathsep.join(
        filter(None, [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], input=json.dumps(keys),
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == {tier.value: digests for tier, digests in recorded.items()}
