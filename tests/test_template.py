from fractions import Fraction

import pytest

from loopsynth.matrix import SymMatrix
from loopsynth.parser import ParseError, parse_spec
from loopsynth.poly import Polynomial, Var
from loopsynth.template import ShapeTier, build_template, int_partitions


def companion_embedding(coeffs):
    """First-order embedding of the scalar recurrence

        x(n+r) + c_{r-1} x(n+r-1) + ... + c_1 x(n+1) + c_0 x(n) = 0

    given `coeffs` = (c_0, ..., c_{r-1}).  The state vector is
    (x(n), ..., x(n+r-1)); multiplying by the returned matrix advances it
    by one step.  The trailing coefficient c_0 must be nonzero, otherwise
    the matrix would be singular.
    """
    cs = [Fraction(c) for c in coeffs]
    r = len(cs)
    if r < 1:
        raise ValueError("recurrence order must be at least 1")
    if cs[0] == 0:
        raise ValueError("zero trailing coefficient: companion matrix would be singular")
    rows = []
    for i in range(r - 1):
        rows.append([1 if j == i + 1 else 0 for j in range(r)])
    rows.append([-c for c in cs])
    return SymMatrix.make(rows)


def make_vars(*names):
    return [Var(n, "program", i) for i, n in enumerate(names)]


class TestPartitions:
    def test_counts(self):
        expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
        for s, count in expected.items():
            parts = int_partitions(s)
            assert len(parts) == count
            assert all(sum(p) == s for p in parts)
            assert all(sorted(p, reverse=True) == list(p) for p in parts)

    def test_order_single_block_first(self):
        assert int_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_invalid(self):
        with pytest.raises(ValueError):
            int_partitions(0)


class TestTiers:
    def test_parse(self):
        assert ShapeTier.parse("un") is ShapeTier.UNIT_UPPER
        assert ShapeTier.parse("FU") is ShapeTier.FULL
        with pytest.raises(ValueError):
            ShapeTier.parse("diag")

    def test_matrix_shapes(self):
        vars = make_vars("x", "y", "z")
        un = build_template(vars, ShapeTier.UNIT_UPPER, (3,))
        assert un.b.at(0, 0) == 1 and un.b.at(2, 0).is_zero()
        up = build_template(vars, ShapeTier.UPPER, (3,))
        assert up.b.at(1, 0).is_zero() and not up.b.at(1, 1).is_constant()
        fu = build_template(vars, ShapeTier.FULL, (3,))
        assert not fu.b.at(2, 0).is_constant()


class TestTemplate:
    def test_partition_validation(self):
        vars = make_vars("x", "y")
        with pytest.raises(ValueError):
            build_template(vars, ShapeTier.FULL, (1, 2))  # not descending
        with pytest.raises(ValueError):
            build_template(vars, ShapeTier.FULL, (3,))  # wrong sum

    def test_coefficient_columns_per_multiplicity(self):
        vars = make_vars("x", "y", "z")
        tpl = build_template(vars, ShapeTier.FULL, (2, 1))
        (w1, m1), (w2, m2) = tpl.rootspec
        assert (m1, m2) == (2, 1)
        assert set(tpl.coeff_columns) == {(w1, 1), (w1, 2), (w2, 1)}
        assert all(len(col) == 3 for col in tpl.coeff_columns.values())

    def test_pinned_inits(self):
        vars = make_vars("x", "y")
        tpl = build_template(vars, ShapeTier.FULL, (2,), pinned_inits={"x": Fraction(5)})
        assert tpl.init_exprs[0] == Polynomial.const(5)
        assert not tpl.init_exprs[1].is_constant()

    def test_parameterized_initial_matrix(self):
        # parameters bound to variables 0 and 2: unit rows there, symbolic rows
        # elsewhere, one extra constant column
        vars = make_vars("r", "q", "y", "t")
        p1, p2 = Var("x0", "param"), Var("y0", "param")
        tpl = build_template(vars, ShapeTier.FULL, (4,), params=[(p1, 0), (p2, 2)])
        a = tpl.a_matrix
        assert (a.rows, a.cols) == (4, 3)
        assert [a.at(0, k) for k in range(3)] == [Polynomial.const(1), Polynomial.zero(), Polynomial.zero()]
        assert [a.at(2, k) for k in range(3)] == [Polynomial.zero(), Polynomial.const(1), Polynomial.zero()]
        # bound rows give init exactly the parameter
        assert tpl.init_exprs[0] == Polynomial.var(p1)
        assert tpl.init_exprs[2] == Polynomial.var(p2)
        # unbound rows are linear forms over the parameters
        assert max(k for k, _ in tpl.init_exprs[1].coeffs_in(p1)) == 1
        # coefficient entries are linear forms too
        col = tpl.coeff_columns[(tpl.rootspec[0][0], 1)]
        assert max(k for k, _ in col[0].coeffs_in(p1)) == 1

    def test_pin_param_conflict(self):
        vars = make_vars("x", "y")
        spec = [(Var("x0", "param"), 0)]
        with pytest.raises(ValueError):
            build_template(vars, ShapeTier.FULL, (2,), pinned_inits={"x": Fraction(1)}, params=spec)

    def test_generated_names_avoid_variable_names(self):
        tpl = build_template(make_vars("w1", "x"), ShapeTier.UPPER, (2,))
        w, _ = tpl.rootspec[0]
        assert w.name == "_w1" and w.kind == "root"

    def test_parameter_named_like_a_variable(self):
        with pytest.raises(ValueError):
            build_template(make_vars("x", "y"), ShapeTier.FULL, (2,), params=[(Var("y", "param"), 0)])

    @pytest.mark.parametrize("params, spec_params", [
        ([("p", 0), ("q", 0)], "p=x q=x"),  # two parameters on one position
        ([("y", 0)], "y=x"),  # a parameter named like a variable
    ])
    def test_bindings_refused_with_the_spec_message(self, params, spec_params):
        with pytest.raises(ParseError) as spec_err:
            parse_spec(f"vars x y\nparams {spec_params}\ninvariant x == 2y\n")
        with pytest.raises(ValueError) as err:
            build_template(make_vars("x", "y"), ShapeTier.FULL, (2,),
                           params=[(Var(p, "param"), i) for p, i in params])
        assert str(err.value) == str(spec_err.value)


class TestCompanionEmbedding:
    def test_shift_structure(self):
        m = companion_embedding([-1, -1])  # x(n+2) = x(n+1) + x(n)
        assert m == SymMatrix.make([[0, 1], [1, 1]])

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            companion_embedding([0, 1])

    def test_unrolling_matches_scalar_recurrence(self):
        # x(n+4) = 4x(n+3) - 6x(n+2) + 4x(n+1) - x(n), solution x(n) = n^3
        coeffs = [1, -4, 6, -4]
        m = companion_embedding(coeffs)
        state = [Fraction(k**3) for k in range(4)]
        values = list(state)
        for _ in range(20):
            state = [sum(r * s for r, s in zip(row, state))
                     for row in [[e.constant_value() for e in rw] for rw in m.entries]]
            values.append(state[-1])
        assert values == [Fraction(k**3) for k in range(len(values))]

    def test_fibonacci_unrolling(self):
        m = companion_embedding([-1, -1])
        state = (Fraction(0), Fraction(1))
        fibs = [state[0]]
        for _ in range(15):
            state = tuple(
                sum(e.constant_value() * s for e, s in zip(row, state))
                for row in m.entries
            )
            fibs.append(state[0])
        a, b = 0, 1
        for f in fibs:
            assert f == a
            a, b = b, a + b
