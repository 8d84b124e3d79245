import time
from fractions import Fraction

import pytest

from loopsynth.parser import (
    LoopFile,
    ParseError,
    SpecFile,
    parse_equation,
    parse_expression,
    parse_invariant,
    parse_loop,
    parse_spec,
)
from loopsynth.poly import Polynomial, Var
from loopsynth.verify import check_invariant


X = Var("x", "program", 0)
Y = Var("y", "program", 1)
Z = Var("z", "program", 2)
SYMS = {"x": X, "y": Y, "z": Z}

PX, PY, PZ = (Polynomial.var(v) for v in (X, Y, Z))


class TestExpressions:
    def test_implicit_multiplication(self):
        assert parse_expression("2y", SYMS) == 2 * PY
        assert parse_expression("3x(x - 1)", SYMS) == 3 * PX * (PX - 1)
        assert parse_expression("xy", SYMS) == PX * PY
        assert parse_expression("2 x y", SYMS) == 2 * PX * PY

    def test_powers_bind_tighter_than_implicit_product(self):
        assert parse_expression("2y^3", SYMS) == 2 * PY**3
        assert parse_expression("x y^2", SYMS) == PX * PY**2

    def test_rational_literals(self):
        assert parse_expression("1/2", SYMS) == Polynomial.const(Fraction(1, 2))
        assert parse_expression("1/2 x", SYMS) == PX.scale(Fraction(1, 2))
        assert parse_expression("3/4 + x", SYMS) == PX + Fraction(3, 4)

    def test_division_by_constant(self):
        assert parse_expression("(x + 1)/2", SYMS) == (PX + 1).scale(Fraction(1, 2))
        with pytest.raises(ParseError):
            parse_expression("1/x", SYMS)
        with pytest.raises(ParseError):
            parse_expression("x/0", SYMS)

    def test_unary_minus_and_parentheses(self):
        assert parse_expression("-x + (-(y - 1))", SYMS) == -PX - PY + 1
        assert parse_expression("2(-x)^2", SYMS) == 2 * PX**2

    def test_errors(self):
        for bad in ["x +", "(x", "x ^ y", "x $ y", "", "2 ** x"]:
            with pytest.raises(ParseError):
                parse_expression(bad, SYMS)
        with pytest.raises(ParseError):
            parse_expression("w + 1", SYMS)

    def test_unknown_identifier_splits_into_known_vars(self):
        assert parse_expression("xyz", SYMS) == PX * PY * PZ

    def test_split_takes_the_longest_known_prefix_whose_rest_splits(self):
        xy, yw = Var("xy", "program", 3), Var("yw", "program", 4)
        syms = {**SYMS, "xy": xy, "yw": yw}
        assert parse_expression("xyxy", syms) == Polynomial.var(xy) ** 2
        assert parse_expression("xyw", syms) == PX * Polynomial.var(yw)
        assert parse_expression("xyz", syms) == Polynomial.var(xy) * PZ

    def test_unsplittable_identifier_is_refused_in_linear_time(self):
        a, aa = Var("a", "program", 0), Var("aa", "program", 1)
        start = time.monotonic()
        with pytest.raises(ParseError, match="unknown identifier"):
            parse_expression("a" * 60 + "b", {"a": a, "aa": aa})
        assert time.monotonic() - start < 1.0

    def test_long_identifier_splits_without_deep_recursion(self):
        spec = parse_spec("vars a b\ninvariant " + "a" * 1500 + " == b\n")
        a, b = (Polynomial.var(v) for v in spec.symbols().values())
        assert spec.invariants() == [a ** 1500 - b]

    @pytest.mark.parametrize("text", ["(" * 400 + "x" + ")" * 400, "-" * 2000 + "x"],
                             ids=["parentheses", "minuses"])
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expression(text, SYMS)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_equation(text + " == y", SYMS)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_equation("y == " + text, SYMS)

    def test_equation_and_conjunction(self):
        assert parse_equation("x == 2y", SYMS) == PX - 2 * PY
        assert parse_equation("x = 2y", SYMS) == PX - 2 * PY
        polys = parse_invariant("x == y && z == x^2", SYMS)
        assert polys == [PX - PY, PZ - PX**2]
        with pytest.raises(ParseError):
            parse_equation("x + y", SYMS)


class TestSpecFiles:
    SPEC = """\
# sample problem
vars r q y
params x0=r y0=y
invariant x0 == y0 q + r
init q=0
size 4
tier un
aux-one
timeout 30
"""

    def test_parse_fields(self):
        spec = parse_spec(self.SPEC)
        assert spec.var_names == ["r", "q", "y"]
        assert spec.params == [("x0", "r"), ("y0", "y")]
        assert spec.init_pins == {"q": Fraction(0)}
        assert (spec.size, spec.tier, spec.aux_one, spec.timeout) == (4, "un", True, 30.0)
        assert not spec.reconstructed

    def test_invariants_use_declared_symbols(self):
        spec = parse_spec(self.SPEC)
        (p,) = spec.invariants()
        names = {v.name for v in p.variables()}
        assert names == {"x0", "y0", "q", "r"}
        kinds = {v.name: v.kind for v in p.variables()}
        assert kinds["x0"] == "param" and kinds["q"] == "program"

    def test_validation(self):
        with pytest.raises(ParseError):
            parse_spec("invariant x == 1\n")  # no vars
        with pytest.raises(ParseError):
            parse_spec("vars x\n")  # no invariant
        with pytest.raises(ParseError):
            parse_spec("vars x x\ninvariant x == 1\n")
        with pytest.raises(ParseError):
            parse_spec("vars x\nparams a0=zz\ninvariant x == 1\n")
        with pytest.raises(ParseError):
            parse_spec("vars x\ninvariant x == 1\ninit zz=3\n")
        with pytest.raises(ParseError):
            parse_spec("vars x\ninvariant x == 1\nfrobnicate\n")

    @pytest.mark.parametrize("params", ["p=x q=x", "p=x p=y", "p=x\nparams q=x"])
    def test_duplicate_parameters_rejected(self, params):
        with pytest.raises(ParseError, match="twice|two parameters"):
            parse_spec(f"vars x y\nparams {params}\ninvariant x == p\n")

    @pytest.mark.parametrize("value", ["0", "-1", "-0.5", "nan"])
    def test_nonpositive_timeout_rejected(self, value):
        with pytest.raises(ParseError, match="line 3: timeout must be positive"):
            parse_spec(f"vars x\ninvariant x == 1\ntimeout {value}\n")

    def test_corpus_parses(self):
        import pathlib

        specs = sorted(pathlib.Path(__file__).parent.parent.glob("benchmarks/*.spec"))
        assert len(specs) >= 20
        for path in specs:
            spec = parse_spec(path.read_text())
            assert spec.invariants()


class TestLoopFiles:
    def test_sequential_updates_fold(self):
        loop = parse_loop(
            "a, b = 0, 0\n"
            "while true\n"
            "  a = a + 2b + 1\n"
            "  b = b + 1\n"
            "end\n"
        )
        # b's update sees the old b; a constant-one slot is appended
        assert loop.var_names == ["a", "b"]
        sys = loop.system
        assert [v.name for v in sys.vars] == ["a", "b", "_one"]
        a, b, one = (Polynomial.var(v) for v in sys.vars)
        inv = a - b * b
        assert check_invariant(sys, inv).holds

    def test_simultaneous_multi_target(self):
        loop = parse_loop("x, y = 1, 2\nwhile true\n  x, y = y, x\nend\n")
        sys = loop.system
        assert sys.step(sys.init) == (Fraction(2), Fraction(1))

    def test_order_of_statements_matters(self):
        seq = parse_loop("c, k = 0, 1\nwhile true\n  c = c + k\n  k = k + 2\nend\n")
        # after folding: c' = c + k (old k), k' = k + 2
        state = seq.system.init
        state = seq.system.step(state)
        assert state[:2] == (Fraction(1), Fraction(3))
        swapped = parse_loop("c, k = 0, 1\nwhile true\n  k = k + 2\n  c = c + k\nend\n")
        state2 = swapped.system.step(swapped.system.init)
        assert state2[:2] == (Fraction(3), Fraction(3))

    def test_parameters_from_init_line(self):
        loop = parse_loop(
            "r, q, y = x0, 0, y0\n"
            "while true\n"
            "  r = r - y\n"
            "  q = q + 1\n"
            "end\n"
        )
        assert loop.param_names == ["x0", "y0"]
        syms = loop.symbols()
        assert syms["x0"].kind == "param"
        p = parse_equation("x0 == y0 q + r", syms)
        assert check_invariant(loop.system, p).holds

    def test_no_constant_one_without_affine_constants(self):
        loop = parse_loop("x, y = 1, 1\nwhile true\n  x = 2x\n  y = 2y\nend\n")
        assert [v.name for v in loop.system.vars] == ["x", "y"]

    def test_rejects_nonaffine_updates(self):
        with pytest.raises(ParseError):
            parse_loop("x = 1\nwhile true\n  x = x^2\nend\n")

    def test_rejects_malformed_files(self):
        with pytest.raises(ParseError):
            parse_loop("x = 1\n  x = x + 1\nend\n")
        with pytest.raises(ParseError):
            parse_loop("x = 1\nwhile true\n  x = x + 1\n")
        with pytest.raises(ParseError):
            parse_loop("x = 1\nwhile true\n  y = x\nend\n")
        with pytest.raises(ParseError):
            parse_loop("x, x = 1, 2\nwhile true\n  x = x\nend\n")
        with pytest.raises(ParseError):
            parse_loop("x = 1\nwhile true\n  x = x + q0\nend\n")  # param in body
