from fractions import Fraction
from pathlib import Path

import pytest

from loopsynth.constraints import Clause, first_violated
from loopsynth.pcpgen import (
    CFiniteConstraint,
    DegenerateInvariantError,
    ExpPoly,
    build_pcp,
    closed_forms,
    gen_alg,
    gen_coeff,
    gen_init,
    gen_roots,
    substitute_invariant,
)
from loopsynth.matrix import SymMatrix, char_poly, mat_apply
from loopsynth.parser import parse_spec
from loopsynth.poly import Monomial, Polynomial, SymbolTable, Var
from loopsynth.synth import SynthRequest, _search_space
from loopsynth.template import ParamSpec, ShapeTier, build_template

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def make_vars(*names):
    return [Var(n, "program", i) for i, n in enumerate(names)]


def doubling_template():
    """Size-2 full template with a double symbolic eigenvalue, for the
    invariant x - 2y."""
    vars = make_vars("x", "y")
    return build_template(vars, ShapeTier.FULL, (2,))


def atom_set(clauses):
    return {str(c) for c in clauses}


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
        a1 = Polynomial.var(tpl.a_matrix.at(0, 0).leading()[0].powers[0][0])
        a2 = Polynomial.var(tpl.a_matrix.at(1, 0).leading()[0].powers[0][0])

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

        expected_init = {
            str(Clause.unit(c1 - a1)),
            str(Clause.unit(c2 - a2)),
            str(Clause.unit(c1 * wp + d1 * wp - b11 * a1 - b12 * a2)),
            str(Clause.unit(c2 * wp + d2 * wp - b21 * a1 - b22 * a2)),
        }
        assert atom_set(gen_init(tpl)) == expected_init

        alg, cfcs = gen_alg(tpl, [inv])
        expected_alg = {
            str(Clause.unit(c1 - 2 * c2)),
            str(Clause.unit(d1 - 2 * d2)),
        }
        assert atom_set(alg) == expected_alg
        assert [cfc.length for cfc in cfcs] == [1, 1]

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
        cells, pinned, _ = _search_space(request)
        for tier, perm, part in cells:
            paramspec = None
            if request.params:
                paramspec = ParamSpec(tuple((p, perm.index(v)) for p, v in request.params))
            tpl = build_template(perm, tier, part, pinned, paramspec, SymbolTable())
            assert gen_init(tpl) == init_clauses_by_matrix_powers(tpl)


class TestClosedForms:
    def test_shape(self):
        tpl = doubling_template()
        (w, _), = tpl.rootspec
        forms = closed_forms(tpl)
        for i, f in enumerate(forms):
            assert set(f.terms) == {(Monomial.of(w), 0), (Monomial.of(w), 1)}

    def test_exp_poly_multiplication(self):
        w = Var("w", "root")
        one = Monomial.one()
        base = ExpPoly({(Monomial.of(w), 1): Polynomial.const(1),
                        (one, 0): Polynomial.const(1)})  # w^n * n + 1
        sq = base * base
        assert sq.terms[(Monomial.of(w, 2), 2)] == Polynomial.const(1)
        assert sq.terms[(Monomial.of(w), 1)] == Polynomial.const(2)
        assert sq.terms[(one, 0)] == Polynomial.const(1)

    def test_substitute_rejects_unknown_symbols(self):
        tpl = doubling_template()
        with pytest.raises(ValueError):
            substitute_invariant(tpl, Polynomial.var(Var("zz", "program", 9)))


class TestStructuredConstraints:
    def test_instantiate(self):
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Polynomial.const(3), Polynomial.const(-3)
        cfc = CFiniteConstraint(((Monomial.of(w1), u1), (Monomial.of(w2), u2)))
        inst = cfc.instantiate(1)
        assert inst == 3 * Polynomial.var(w1) - 3 * Polynomial.var(w2)
        assert cfc.instantiate(0).is_zero()

    def test_distinct_bases_required(self):
        w = Var("w", "root")
        with pytest.raises(ValueError):
            CFiniteConstraint(((Monomial.of(w), Polynomial.const(1)),
                               (Monomial.of(w), Polynomial.const(2))))

    def test_instantiations_present_in_full_problem(self):
        tpl = doubling_template()
        x, y = tpl.vars
        inv = Polynomial.var(x) * Polynomial.var(x) - Polynomial.var(y)
        bundle = build_pcp(tpl, [inv])
        # the squared invariant mixes w^n and w^2n: two bases, two
        # index instantiations per vanishing group
        assert any(cfc.length == 2 for cfc in bundle.cfcs)
        assert len(bundle.pcp) > len(bundle.hard)


class TestParameterized:
    def euclid_bundle(self):
        vars = make_vars("r", "q", "y", "t")
        x0, y0 = Var("x0", "param"), Var("y0", "param")
        spec = ParamSpec(((x0, 0), (y0, 2)))
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
        for cfc in bundle.cfcs:
            for w, u in cfc.terms:
                assert not (u.variables() & {x0, y0})

    def test_structured_constraints_split_by_parameter_monomial(self):
        tpl, bundle, _ = self.euclid_bundle()
        # at least one constraint per parameter slice of the invariant
        assert len(bundle.cfcs) >= 2


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
