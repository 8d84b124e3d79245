import itertools
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import pcpgen as pcpgen_module
from loopsynth.constraints import Clause, decompose, first_violated
from loopsynth.pcpgen import (
    DegenerateInvariantError,
    base_clauses,
    build_pcp,
    gen_alg,
    gen_coeff,
    gen_init,
    gen_roots,
)
from loopsynth.matrix import SymMatrix, char_poly, mat_apply
from loopsynth.parser import parse_spec
from loopsynth.poly import MONO_KEY, Monomial, Polynomial, Var
from loopsynth.synth import SynthRequest, _search_space
from loopsynth.template import ShapeTier, build_template, int_partitions

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def make_vars(*names):
    return [Var(n, "program", i) for i, n in enumerate(names)]


def doubling_template():
    """Size-2 full template with a double symbolic eigenvalue, for the
    invariant x - 2y."""
    vars = make_vars("x", "y")
    return build_template(vars, ShapeTier.FULL, (2,))


def atom_set(clauses):
    """The clauses' text; a polynomial is its unit equality."""
    return {str(Clause.unit(c) if isinstance(c, Polynomial) else c) for c in clauses}


class TestClauseFamilies:
    def test_reference_clause_sets(self):
        """The size-2, double-eigenvalue constraint system for x - 2y has a
        known hand-derived form; reproduce it syntactically (modulo sign
        normalization)."""
        tpl = doubling_template()
        x, y = tpl.vars
        inv = Polynomial.var(x) - 2 * Polynomial.var(y)
        b11, b12 = tpl.b.at(0, 0), tpl.b.at(0, 1)
        b21, b22 = tpl.b.at(1, 0), tpl.b.at(1, 1)
        (w, _), = tpl.rootspec
        wp = Polynomial.var(w)
        c1, c2 = tpl.coeff_columns[(w, 1)]
        d1, d2 = tpl.coeff_columns[(w, 2)]
        a1 = Polynomial.var(tpl.a_matrix.at(0, 0).leading()[0][0][0])
        a2 = Polynomial.var(tpl.a_matrix.at(1, 0).leading()[0][0][0])

        expected_roots = {
            str(Clause.unit(b11 + b22 - 2 * wp)),
            str(Clause.unit(b12 * b21 - b11 * b22 + wp * wp)),
            str(Clause.unit(wp, "!=")),
        }
        assert atom_set(gen_roots(tpl)) == expected_roots

        expected_coeff = {
            str(Clause.unit(c1 * wp + d1 * wp - b11 * c1 - b12 * c2)),
            str(Clause.unit(c2 * wp + d2 * wp - b21 * c1 - b22 * c2)),
            str(Clause.unit(d1 * wp - b11 * d1 - b12 * d2)),
            str(Clause.unit(d2 * wp - b21 * d1 - b22 * d2)),
        }
        assert atom_set(gen_coeff(tpl)) == expected_coeff

        # the initial-value clauses at n = 0 and n = 1; `gen_init` states
        # n = 0, and each n = 1 clause is its coefficient clause plus
        # b_i1 (c1 - a1) + b_i2 (c2 - a2)
        expected_init = {
            str(Clause.unit(c1 - a1)),
            str(Clause.unit(c2 - a2)),
            str(Clause.unit(c1 * wp + d1 * wp - b11 * a1 - b12 * a2)),
            str(Clause.unit(c2 * wp + d2 * wp - b21 * a1 - b22 * a2)),
        }
        assert atom_set(gen_init(tpl)) == {str(Clause.unit(c1 - a1)), str(Clause.unit(c2 - a2))}
        implied = set()
        for coeff, bi1, bi2 in [
            (c1 * wp + d1 * wp - b11 * c1 - b12 * c2, b11, b12),
            (c2 * wp + d2 * wp - b21 * c1 - b22 * c2, b21, b22),
        ]:
            assert str(Clause.unit(coeff)) in expected_coeff
            implied.add(str(Clause.unit(coeff + bi1 * (c1 - a1) + bi2 * (c2 - a2))))
        assert atom_set(gen_init(tpl)) | implied == expected_init

        alg = gen_alg(tpl, [inv])
        expected_alg = {
            str(Clause.unit(c1 - 2 * c2)),
            str(Clause.unit(d1 - 2 * d2)),
        }
        assert atom_set(alg) == expected_alg
        assert len(alg) == 2  # one base per n-power group: one instantiation each

    def test_geometric_solution_satisfies_problem(self):
        """(x, y) <- (2x, 2y) from (2, 1) maintains x = 2y; the derived
        assignment must satisfy every clause exactly."""
        tpl = doubling_template()
        x, y = tpl.vars
        inv = Polynomial.var(x) - 2 * Polynomial.var(y)
        bundle = build_pcp(tpl, [inv])
        (w, _), = tpl.rootspec
        names = {v.name: v for v in bundle.pcp.variables()}
        model = {v: Fraction(0) for v in bundle.pcp.variables()}
        model.update({
            names["b11"]: Fraction(2), names["b22"]: Fraction(2),
            names[w.name]: Fraction(2),
            names["a1"]: Fraction(2), names["a2"]: Fraction(1),
            # closed form (2, 1) * 2^n: first coefficient column (2, 1), second zero
            names["c1_1_1"]: Fraction(2), names["c1_1_2"]: Fraction(1),
        })
        assert first_violated(bundle.pcp, model) is None


def init_clauses_by_matrix_powers(tpl):
    """The initial-value family written out directly: the closed form at n
    against B^n X_0, with B^n multiplied up from the identity."""
    out = []
    power = SymMatrix.make([[int(i == j) for j in range(tpl.size)] for i in range(tpl.size)])
    for n in range(tpl.size):
        unrolled = mat_apply(power, tpl.init_exprs)
        for i in range(tpl.size):
            closed = Polynomial.zero()
            for (w, j), col in tpl.coeff_columns.items():
                closed = closed + col[i] * Polynomial({Monomial.of(w, n): Fraction(n) ** (j - 1)})
            out.append(Clause.unit(closed - unrolled[i]))
        power = power * tpl.b
    return out


class TestInitialValues:
    @pytest.mark.parametrize("name", ["fmi2", "eucliddiv"])
    def test_full_tier_matches_matrix_powers(self, name):
        request = SynthRequest.from_spec(parse_spec((BENCHMARKS / f"{name}.spec").read_text()))
        request.tiers = [ShapeTier.FULL]
        cells, bases, _ = _search_space(request)
        pinned = bases.pinned
        for tier, perm, part in cells:
            params = [(p, perm.index(v)) for p, v in request.params]
            tpl = build_template(perm, tier, part, pinned, params)
            assert list(map(Clause.unit, gen_init(tpl))) == init_clauses_by_matrix_powers(tpl)[:tpl.size]


def signed(lhs, term):
    """The equality's lhs with the sign that gives the leading monomial of
    `term` the coefficient 1 (0 if that monomial is absent)."""
    mono, _ = term.leading()
    return lhs * lhs.terms.get(mono, 0)


def closed_form_templates():
    """Templates with a repeated root, two roots, and a parameter."""
    x0 = Var("x0", "param")
    return {
        "full-2": doubling_template(),
        "up-2-1": build_template(make_vars("x", "y", "z"), ShapeTier.UPPER, (2, 1)),
        "un-3-param": build_template(
            make_vars("x", "y", "z"), ShapeTier.UNIT_UPPER, (3,),
            pinned_inits={"z": Fraction(1)}, params=[(x0, 0)],
        ),
    }


TEMPLATES = closed_form_templates()
CERTIFIED = {
    **TEMPLATES,
    **{
        "full-4-" + "-".join(map(str, part)):
            build_template(make_vars("x", "y", "z", "u"), ShapeTier.FULL, part)
        for part in int_partitions(4)
    },
}


class TestInitialValueCertificate:
    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_later_values_follow_from_the_coefficient_clauses(self, name):
        """The certificate in `gen_init`'s docstring, as an exact identity:
        X(n) - B^n X_0 = B^n (X(0) - X_0) + sum_(k<n) B^(n-1-k) G(k), where
        G(k) = sum_(w,j) w^k k^(j-1) E_(w,j) sums the coefficient clauses.
        Each equality's sign is fixed by its w * C_(w,j) term (at n = 0, by
        its C_(w1,1) term), which has the coefficient 1 in the expression
        the equality states."""
        tpl = CERTIFIED[name]
        s = tpl.size
        slots = list(tpl.coeff_columns)
        coeff = gen_coeff(tpl)
        rows = list(itertools.product(slots, range(s)))  # gen_coeff's clause order
        columns = {slot: [Polynomial.zero()] * s for slot in slots}  # the E_(w,j)
        for ((w, j), i), lhs in zip(rows, coeff):
            columns[(w, j)][i] = signed(lhs, Polynomial.var(w) * tpl.coeff_columns[(w, j)][i])
        first = tpl.coeff_columns[(tpl.rootspec[0][0], 1)]
        init = [signed(lhs, first[i]) for i, lhs in enumerate(gen_init(tpl))]
        assert len(init) == s

        def g(k):
            return [
                sum((Polynomial({Monomial.of(w, k): Fraction(k) ** (j - 1)}) * columns[(w, j)][i]
                     for w, j in slots), Polynomial.zero())
                for i in range(s)
            ]

        oracle = init_clauses_by_matrix_powers(tpl)
        rhs = init  # B^n (X(0) - X_0) + sum_(k<n) B^(n-1-k) G(k), built up in n
        for n in range(s):
            assert [Clause.unit(p) for p in rhs] == oracle[n * s:(n + 1) * s]
            rhs = [a + b for a, b in zip(mat_apply(tpl.b, rhs), g(n))]
        assert len(coeff) == len(rows)


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def invariants_over(draw, symbols, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        powers = {v: draw(st.integers(0, max_exp)) for v in draw(st.sets(st.sampled_from(symbols)))}
        terms[Monomial.make(powers)] = draw(small_rationals)
    return Polynomial(terms)


def closed_forms(tpl):
    """Per-variable closed form X(n) = sum_ij C_ij w_i^n n^(j-1) as an
    ordinary polynomial, with stand-in symbols for each w_i^n and for n:
    the forms, the stand-in for n, and a map from each w^n stand-in to its
    root w.  A stand-in's name holds a ``^``, which no parsed or generated
    name can."""
    n = Var("n^", "root")
    standin = {w: Var(f"{w.name}^n", "root") for w, _ in tpl.rootspec}
    forms = [{} for _ in tpl.vars]
    for (w, j), col in tpl.coeff_columns.items():
        factor = Monomial.make({standin[w]: 1, n: j - 1})
        for form, entry in zip(forms, col):
            for m, c in entry.terms.items():
                form[m.mul(factor)] = c
    return [Polynomial(f) for f in forms], n, {s: w for w, s in standin.items()}


def regrouped(tpl, invariant):
    """The relation family's former intermediate form, kept as a reference:
    the closed forms substituted into p, regrouped as
    { n-power: { exponential base: coefficient } }."""
    forms, n, roots = closed_forms(tpl)
    grouped = {}
    for m, c in invariant.substitute(dict(zip(tpl.vars, forms))).terms.items():
        npow, base, rest = 0, {}, []
        for v, e in m:
            if v in roots:
                base[roots[v]] = e
            elif v == n:
                npow = e
            else:
                rest.append((v, e))
        grouped.setdefault(npow, {}).setdefault(Monomial.make(base), {})[Monomial(tuple(rest))] = c
    return {k: {w: Polynomial(u) for w, u in group.items()} for k, group in grouped.items()}


def reference_alg(tpl, invariants):
    """The relation clauses by regrouping and instantiating: each n-power's
    exponential sum, bases in `MONO_KEY` order, at n = 0, ..., l-1."""
    clauses = []
    for p in invariants:
        grouped = regrouped(tpl, p)
        for npow in sorted(grouped):
            group = grouped[npow]
            bases = sorted(group, key=MONO_KEY)
            for j in range(len(bases)):
                acc = {}
                for w in bases:
                    wj = w.pow(j)
                    for m, c in group[w].terms.items():
                        m = m.mul(wj)
                        acc[m] = acc.get(m, 0) + c
                clauses.append(Clause.unit(Polynomial(acc)))
    return clauses


class TestClosedForms:
    def test_shape(self):
        """Each form is sum_j c_j * W * N^(j-1) over the coefficient symbols:
        every term holds the w^n stand-in once and the n stand-in j-1 times."""
        tpl = doubling_template()
        (w, _), = tpl.rootspec
        forms, n, roots = closed_forms(tpl)
        (standin, root), = roots.items()
        assert root == w
        assert "^" in standin.name and "^" in n.name
        for i, f in enumerate(forms):
            shapes = {}
            for m, c in f.terms.items():
                assert c == 1
                rest = Monomial.make({v: e for v, e in m if v not in (standin, n)})
                shapes[rest] = (m.degree_of(standin), m.degree_of(n))
            c1 = tpl.coeff_columns[(w, 1)][i].leading()[0]
            c2 = tpl.coeff_columns[(w, 2)][i].leading()[0]
            assert shapes == {c1: (1, 0), c2: (1, 1)}

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @given(data=st.data())
    @settings(deadline=None, max_examples=25)
    def test_regrouped_sum_matches_invariant_at_closed_form_values(self, name, data):
        """Numeric oracle: with every template symbol a random rational,
        sum_k sum_w u * w^n * n^k over the regrouped substitution equals the
        invariant evaluated at the closed-form values X(n), n = 0..4."""
        tpl = TEMPLATES[name]
        p = data.draw(invariants_over(list(tpl.vars) + list(tpl.params)))
        symbols = set(tpl.params)
        for col in tpl.coeff_columns.values():
            for entry in col:
                symbols |= entry.variables()
        env = {v: data.draw(small_rationals) for v in sorted(symbols, key=lambda v: v.name)}
        for w, _ in tpl.rootspec:
            env[w] = data.draw(small_rationals.filter(bool))
        grouped = regrouped(tpl, p)
        for n in range(5):
            x_n = [
                sum(col[i].evaluate(env) * env[w] ** n * Fraction(n) ** (j - 1)
                    for (w, j), col in tpl.coeff_columns.items())
                for i in range(tpl.size)
            ]
            expected = p.evaluate({**env, **dict(zip(tpl.vars, x_n))})
            got = sum(
                u.evaluate(env) * Polynomial({base: 1}).evaluate(env) ** n * Fraction(n) ** k
                for k, group in grouped.items() for base, u in group.items()
            )
            assert got == expected

    def test_substitute_rejects_unknown_symbols(self):
        tpl = doubling_template()
        with pytest.raises(ValueError):
            gen_alg(tpl, [Polynomial.var(Var("zz", "program", 9))])

    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    @given(data=st.data())
    @settings(deadline=None, max_examples=25)
    def test_relation_clauses_match_the_regrouped_reference(self, name, data):
        """Reading each n-power's coefficient of p(X(n)) straight off the
        substitution, split by parameter monomial, gives the clauses of the
        regroup-and-instantiate reference decomposed over the parameters,
        in the same order and with the same text."""
        tpl = TEMPLATES[name]
        symbols = list(tpl.vars) + list(tpl.params)
        invariants = data.draw(st.lists(invariants_over(symbols), min_size=1, max_size=2))
        got = gen_alg(tpl, invariants)
        want = decompose([c.atoms[0].lhs for c in reference_alg(tpl, invariants)], list(tpl.params))
        assert got == want
        assert [c.smtlib for c in got] == [c.smtlib for c in want]


#: Specs whose names push generated names out of their usual order: the
#: first root of `vars w1 x` is `_w1`, which sorts before every `c...`
#: coefficient symbol, and the variable `c1_1_1` renames that coefficient
#: symbol to `_c1_1_1`, the first of them.
OUT_OF_ORDER_SPECS = {
    "root-first": "vars w1 x\ninvariant x == w1^2 + w1\n",
    "coefficient-named": "vars x c1_1_1 y\ninvariant y == x c1_1_1 + x^2\n",
}


def spec_templates(text):
    """The template of each search cell of a spec, in every tier, and the
    spec's invariants."""
    request = SynthRequest.from_spec(parse_spec(text))
    cells, bases, _ = _search_space(request)
    templates = [build_template(perm, tier, part, bases.pinned, [(p, perm.index(v)) for p, v in request.params])
                 for tier, perm, part in cells]
    return templates, request.invariants


def coefficient_symbols(tpl):
    return {v for col in tpl.coeff_columns.values() for entry in col for v in entry.variables()}


class TestPackedKeys:
    """`gen_alg` builds each term's key by adding packed exponents and
    each term's monomial as its rest times its base, where joining the
    two tuples is sorted only while every coefficient symbol sorts before
    every root."""

    @pytest.mark.parametrize("name", sorted(OUT_OF_ORDER_SPECS))
    def test_out_of_order_names_match_the_reference(self, name):
        templates, invariants = spec_templates(OUT_OF_ORDER_SPECS[name])
        for tpl in templates:
            if name == "root-first":
                first = tpl.rootspec[0][0]
                assert first.name == "_w1"
                assert all(first.sort_key < v.sort_key for v in coefficient_symbols(tpl))
            else:
                names = {v.name for v in coefficient_symbols(tpl)}
                assert "_c1_1_1" in names and "c1_1_1" not in names
            got = gen_alg(tpl, invariants)
            want = reference_alg(tpl, invariants)
            assert got == want
            assert [c.smtlib for c in got] == [c.smtlib for c in want]

    def wide_roots(self):
        """x^5 + x^4 + x^3 + x^2 + x + y on three distinct roots: its one
        exponential sum has the 55 monomials of degree 1 to 5 in the roots
        as bases, so a degree-5 base at n = 54 puts a root to the power
        270, past an 8-bit field."""
        vars = make_vars("x", "y", "z")
        tpl = build_template(vars, ShapeTier.FULL, (1, 1, 1))
        x, y = Polynomial.var(vars[0]), Polynomial.var(vars[1])
        return tpl, x ** 5 + x ** 4 + x ** 3 + x ** 2 + x + y

    def test_root_exponents_past_eight_bits(self):
        tpl, inv = self.wide_roots()
        got = gen_alg(tpl, [inv])
        want = reference_alg(tpl, [inv])
        assert len(got) == 55
        assert got == want
        assert [c.smtlib for c in got] == [c.smtlib for c in want]
        roots = [w for w, _ in tpl.rootspec]
        assert max(m.degree_of(w) for c in got for m in c.atoms[0].lhs.terms for w in roots) == 270

    def test_a_key_that_would_carry_raises(self, monkeypatch):
        tpl, inv = self.wide_roots()
        monkeypatch.setattr(pcpgen_module, "_exponent_bound", lambda degree, rootspec: 255)
        with pytest.raises(OverflowError):
            gen_alg(tpl, [inv])


def split_by_parameters(clause, params):
    """A relation clause as the pieces of its lhs per parameter monomial:
    ascending on the reversed exponent vector, and a single 0 for a zero
    lhs."""
    groups = {}
    for m, c in clause.atoms[0].lhs.terms.items():
        key = tuple(m.degree_of(p) for p in reversed(params))
        rest = Monomial.make({v: e for v, e in m if v not in params})
        groups.setdefault(key, {})[rest] = c
    return [Clause.unit(Polynomial(groups[k])) for k in sorted(groups)] or [Clause.unit(Polynomial.zero())]


X0, Y0 = Var("x0", "param"), Var("y0", "param")
TWO_PARAMETERS = {
    "un-4": build_template(
        make_vars("r", "q", "y", "t"), ShapeTier.UNIT_UPPER, (4,),
        pinned_inits={"t": Fraction(1)}, params=[(X0, 0), (Y0, 2)],
    ),
    "fu-1-1-1": build_template(
        make_vars("r", "q", "y"), ShapeTier.FULL, (1, 1, 1), params=[(X0, 0), (Y0, 2)],
    ),
}


class TestParameterPieces:
    @pytest.mark.parametrize("name", sorted(TWO_PARAMETERS))
    @given(data=st.data())
    @settings(deadline=None, max_examples=25)
    def test_pieces_come_in_reversed_exponent_order(self, name, data):
        """With two parameters, as in eucliddiv, each relation row gives
        its parameter pieces with y0's degree most significant, then
        x0's."""
        tpl = TWO_PARAMETERS[name]
        symbols = list(tpl.vars) + list(tpl.params)
        invariants = data.draw(st.lists(invariants_over(symbols, max_terms=3, max_exp=1),
                                        min_size=1, max_size=2))
        want = [piece for row in reference_alg(tpl, invariants)
                for piece in split_by_parameters(row, list(tpl.params))]
        got = gen_alg(tpl, invariants)
        assert got == want
        assert [c.smtlib for c in got] == [c.smtlib for c in want]

    def test_a_row_whose_pieces_all_cancel_is_one_zero_clause(self):
        """x(n) = (a + b x0 + c y0) (w1^n - w2^n) + t y0 w2^n: at n = 0 the
        pieces of 1 and x0 cancel, leaving t for y0, and with t = 0 the
        row is a single 0.  At n = 1 no piece cancels."""
        base = TWO_PARAMETERS["fu-1-1-1"]
        (w1, _), (w2, _), (w3, _) = base.rootspec
        a, b, c, d = (Polynomial.var(Var(s, "coeff")) for s in ("a", "b", "c", "d"))
        x0, y0 = Polynomial.var(X0), Polynomial.var(Y0)
        zero = Polynomial.zero()
        for tail, n0 in ((d, [d]), (zero, [zero])):
            first = a + b * x0 + c * y0
            columns = {(w1, 1): (first, zero, zero), (w2, 1): (tail * y0 - first, zero, zero),
                       (w3, 1): (zero, zero, zero)}
            tpl = replace(base, coeff_columns=columns)
            x = Polynomial.var(tpl.vars[0])
            w1p, w2p = Polynomial.var(w1), Polynomial.var(w2)
            n1 = [a * w1p - a * w2p, b * w1p - b * w2p, c * w1p + (tail - c) * w2p]
            assert gen_alg(tpl, [x]) == [Clause.unit(p) for p in n0 + n1]


class TestStructuredConstraints:
    def test_instantiations_present_in_full_problem(self):
        tpl = doubling_template()
        x, y = tpl.vars
        inv = Polynomial.var(x) * Polynomial.var(x) - Polynomial.var(y)
        bundle = build_pcp(tpl, [inv])
        # the squared invariant mixes w^n and w^2n: two bases, two
        # index instantiations per vanishing group
        grouped = regrouped(tpl, inv)
        assert any(len(group) == 2 for group in grouped.values())
        alg = gen_alg(tpl, [inv])
        assert len(alg) == sum(len(group) for group in grouped.values())
        assert set(map(str, alg)) <= set(map(str, bundle.pcp))
        assert len(bundle.pcp) > len(base_clauses(tpl))


class TestParameterized:
    def euclid_bundle(self):
        vars = make_vars("r", "q", "y", "t")
        x0, y0 = Var("x0", "param"), Var("y0", "param")
        spec = [(x0, 0), (y0, 2)]
        tpl = build_template(
            vars, ShapeTier.UNIT_UPPER, (4,),
            pinned_inits={"t": Fraction(1)}, params=spec,
        )
        inv = (Polynomial.var(x0) - Polynomial.var(y0) * Polynomial.var(vars[1])
               - Polynomial.var(vars[0]))
        return tpl, build_pcp(tpl, [inv]), (x0, y0)

    def test_output_is_parameter_free(self):
        tpl, bundle, (x0, y0) = self.euclid_bundle()
        for clause in bundle.pcp:
            assert not (clause.variables() & {x0, y0})


class TestDegenerate:
    def test_contradictory_invariant_rejected(self):
        tpl = doubling_template()
        with pytest.raises(DegenerateInvariantError):
            build_pcp(tpl, [Polynomial.const(1)])


class TestUnitUpperRoots:
    @pytest.mark.parametrize("s", range(1, 6))
    def test_characteristic_polynomial_is_a_power_of_z_minus_one(self, s):
        """Why the un tier searches only the partition (s): with distinct
        roots, prod (z - w_i)^m_i = (z - 1)^s has no solution once the
        partition has two parts."""
        tpl = build_template(make_vars(*"abcde"[:s]), ShapeTier.UNIT_UPPER, (s,))
        z = Var("z", "root")
        assert char_poly(tpl.b, z) == (Polynomial.var(z) - Polynomial.const(1)) ** s
