import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth.parser import parse_invariant, parse_loop
from loopsynth.poly import Monomial, Polynomial, Var
from loopsynth.verify import ConcreteSystem, Verdict, check_equiv_modulo, check_invariant, order_bound


def old_order_bound(p, vars):
    """The closure-rule order bound, the sum of s^deg over p's terms; it is
    never below `order_bound`, so unrolling to it checks more steps."""
    return max(sum(len(vars) ** sum(e for v, e in m if v in vars) for m in p.terms), 1)


def dense_step(sys, state):
    """One step in dense `Fraction` arithmetic, independent of `ConcreteSystem.step`."""
    out = []
    for row in sys.update:
        acc = Fraction(0)
        for coef, val in zip(row, state):
            acc = acc + coef * val
        out.append(acc)
    return tuple(out)


def reference_verdict(sys, p):
    """The verdict of unrolling with `Polynomial.substitute` at every step."""
    bound = order_bound(p, sys.size, sys.vars)
    state = sys.init
    for n in range(bound):
        value = p.substitute(dict(zip(sys.vars, state)))
        if not value.is_zero():
            witness = value.constant_value() if value.is_constant() else value
            return Verdict(holds=False, bound_used=bound, witness=(n, witness))
        state = dense_step(sys, state)
    return Verdict(holds=True, bound_used=bound)


def make_system(names, rows, init):
    vars = tuple(Var(n, "program", i) for i, n in enumerate(names))
    update = tuple(tuple(Fraction(e) for e in row) for row in rows)
    return ConcreteSystem(vars, update, tuple(Fraction(v) if not isinstance(v, Polynomial) else v for v in init))


def var_polys(sys):
    return [Polynomial.var(v) for v in sys.vars]


def cube_invariants(sys):
    """c = n^3, k = 3n^2 + 3n + 1, m = 6n + 6 over (c, k, m, n, one)."""
    c, k, m, n, _ = var_polys(sys)
    return [c - n**3, k - 3 * n**2 - 3 * n - 1, m - 6 * n - 6]


# simultaneous form of: c += k; k += m; m += 6; n += 1 (with a constant-one slot)
CUBES_ROWS = [
    [1, 1, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 1, 0, 6],
    [0, 0, 0, 1, 1],
    [0, 0, 0, 0, 1],
]


class TestOrderBound:
    def test_monomial_bounds(self):
        x = Var("x", "program", 0)
        y = Var("y", "program", 1)
        assert order_bound(Polynomial.var(x), 2) == 2
        assert order_bound(Polynomial.var(x) ** 2 * Polynomial.var(y), 3) == 10

    def test_parameters_are_order_one(self):
        x = Var("x", "program", 0)
        q = Var("q", "param")
        p = Polynomial.var(x) ** 2 + Polynomial.var(q)
        assert order_bound(p, 2, [x]) == 4

    def test_constant_poly(self):
        assert order_bound(Polynomial.zero(), 3) == 1


def monomials_of_degrees(vars, degrees):
    """Every monomial over vars whose degree is in `degrees`."""
    return [
        Monomial.make(Counter(combo))
        for k in sorted(degrees)
        for combo in itertools.combinations_with_replacement(vars, k)
    ]


def monomial_rows(sys, monos, count):
    """[m(X_n)] for n < count: one row per step, one column per monomial."""
    rows, state = [], sys.init
    for _ in range(count):
        point = dict(zip(sys.vars, state))
        rows.append([Polynomial({m: 1}).evaluate(point) for m in monos])
        state = dense_step(sys, state)
    return rows


def nullspace(rows, ncols):
    """A basis of {v : rows . v = 0}, by exact row reduction."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -rows[i][free]
        basis.append(vec)
    return basis


ENTRY = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@st.composite
def systems_with_degrees(draw):
    s = draw(st.integers(1, 3))
    rows = [[draw(ENTRY) for _ in range(s)] for _ in range(s)]
    init = [draw(ENTRY) for _ in range(s)]
    degrees = draw(st.sets(st.integers(0, 3), min_size=1))
    return make_system("xyz"[:s], rows, init), degrees


class TestBoundSoundness:
    """The symmetric-power bound r is enough (a relation among the
    monomials of X_n that holds for n < r holds for every n) and cannot be
    lowered (some p vanishes for n < r - 1 but not at n = r - 1)."""

    @given(systems_with_degrees())
    @settings(deadline=None, max_examples=60)
    def test_relation_on_first_r_steps_holds_forever(self, case):
        sys, degrees = case
        monos = monomials_of_degrees(sys.vars, degrees)
        r = len(monos)
        assert order_bound(Polynomial(dict.fromkeys(monos, 1)), sys.size, sys.vars) == r
        for vec in nullspace(monomial_rows(sys, monos, r), r):
            p = Polynomial(dict(zip(monos, vec)))
            assert order_bound(p, sys.size, sys.vars) <= r
            assert check_invariant(sys, p).holds
            state = sys.init
            for _ in range(2 * old_order_bound(p, sys.vars)):
                assert p.substitute(dict(zip(sys.vars, state))) == 0
                state = dense_step(sys, state)

    @pytest.mark.parametrize("names, rows, init, degrees", [
        ("x", [[2]], [1], {0, 1, 2, 3}),
        ("xy", [[2, 1], [0, 3]], [0, 1], {0, 1, 2}),
        ("xy", [[2, 1], [0, 3]], [0, 1], {0, 3}),
        ("xyz", [[2, 1, 0], [0, 3, 1], [0, 0, 5]], [1, 1, 1], {1, 2}),
    ])
    def test_bound_is_attained(self, names, rows, init, degrees):
        # the products of eigenvalues over all the degrees are pairwise
        # distinct and the initial vector is generic, so the r monomial
        # sequences are linearly independent
        sys = make_system(names, rows, init)
        monos = monomials_of_degrees(sys.vars, degrees)
        r = len(monos)
        vec, = nullspace(monomial_rows(sys, monos, r - 1), r)
        verdict = check_invariant(sys, Polynomial(dict(zip(monos, vec))))
        assert not verdict.holds and verdict.witness[0] == r - 1
        assert verdict.bound_used == r


class TestCubeGenerator:
    def test_holds_exactly(self):
        sys = make_system("ckmnu", CUBES_ROWS, [0, 1, 6, 0, 1])
        for p in cube_invariants(sys):
            verdict = check_invariant(sys, p)
            assert verdict.holds and verdict.witness is None

    def test_faulty_initialization_refuted_with_witnesses(self):
        # zero-initialized and stepping m by 9 instead of 6
        rows = [r[:] for r in CUBES_ROWS]
        rows[2][4] = 9
        sys = make_system("ckmnu", rows, [0, 0, 0, 0, 1])
        c_inv, k_inv, m_inv = cube_invariants(sys)
        vc = check_invariant(sys, c_inv)
        assert not vc.holds and vc.witness == (1, Fraction(-1))
        vk = check_invariant(sys, k_inv)
        assert not vk.holds and vk.witness == (0, Fraction(-1))
        vm = check_invariant(sys, m_inv)
        assert not vm.holds and vm.witness == (0, Fraction(-6))

    def test_bound_is_tight_enough(self):
        sys = make_system("ckmnu", CUBES_ROWS, [0, 1, 6, 0, 1])
        c, _, _, n, _ = var_polys(sys)
        assert check_invariant(sys, c - n**3).bound_used == 5 + 35


class TestParameterized:
    def euclid(self):
        # r -= y; q += 1 with symbolic initial values r = x0, y = y0
        x0, y0 = Var("x0", "param"), Var("y0", "param")
        vars = tuple(Var(n, "program", i) for i, n in enumerate("rqyt"))
        update = tuple(
            tuple(Fraction(e) for e in row)
            for row in [[1, 0, -1, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        init = (Polynomial.var(x0), Fraction(0), Polynomial.var(y0), Fraction(1))
        return ConcreteSystem(vars, update, init), x0, y0

    def test_symbolic_invariant_holds_for_all_parameters(self):
        sys, x0, y0 = self.euclid()
        r, q, y, _ = var_polys(sys)
        p = Polynomial.var(x0) - Polynomial.var(y0) * q - r
        assert check_invariant(sys, p).holds

    def test_symbolic_refutation_gives_polynomial_witness(self):
        sys, x0, y0 = self.euclid()
        r, q, y, _ = var_polys(sys)
        p = Polynomial.var(x0) - Polynomial.var(y0) * q - r - q
        verdict = check_invariant(sys, p)
        assert not verdict.holds
        n, witness = verdict.witness
        assert isinstance(witness, Polynomial) or witness != 0


class TestEquivalence:
    def linear_sum(self):
        return make_system("xyzu", [[1, 0, 0, 1], [0, 1, 0, 2], [0, 0, 1, 3], [0, 0, 0, 1]], [0, 0, 0, 1])

    def rational_sum(self):
        # a fractional-step system maintaining c = a + b
        return make_system(
            "cabu",
            [
                [1, 0, Fraction(1, 2), Fraction(-7, 32)],
                [0, 1, Fraction(1, 2), Fraction(-11, 32)],
                [0, 0, 1, Fraction(1, 8)],
                [0, 0, 0, 1],
            ],
            [Fraction(-1, 2), 0, Fraction(-1, 2), 1],
        )

    def test_shared_invariant(self):
        lin, rat = self.linear_sum(), self.rational_sum()
        x, y, z, _ = var_polys(lin)
        c, a, b, _ = var_polys(rat)
        p = z - x - y
        mapping = {lin.vars[2]: rat.vars[0], lin.vars[0]: rat.vars[1], lin.vars[1]: rat.vars[2]}
        assert check_equiv_modulo(lin, rat, p, mapping)

    def test_wrong_mapping_fails(self):
        lin, rat = self.linear_sum(), self.rational_sum()
        x, y, z, _ = var_polys(lin)
        p = z - x - y
        mapping = {lin.vars[2]: rat.vars[1], lin.vars[0]: rat.vars[0], lin.vars[1]: rat.vars[2]}
        assert not check_equiv_modulo(lin, rat, p, mapping)

    def test_map_validation(self):
        lin, rat = self.linear_sum(), self.rational_sum()
        x, y, z, _ = var_polys(lin)
        p = z - x - y
        with pytest.raises(ValueError):
            check_equiv_modulo(lin, rat, p, {lin.vars[2]: rat.vars[0]})
        with pytest.raises(ValueError):
            check_equiv_modulo(
                lin, rat, p,
                {lin.vars[0]: rat.vars[0], lin.vars[1]: rat.vars[0], lin.vars[2]: rat.vars[1]},
            )


class TestVerdict:
    def test_failing_needs_witness(self):
        with pytest.raises(ValueError):
            Verdict(holds=False, bound_used=3)


class TestRandomOracle:
    def test_agreement_with_long_unrolling(self):
        rng = random.Random(7)
        for trial in range(40):
            s = rng.randint(1, 3)
            vars = tuple(Var(n, "program", i) for i, n in enumerate("xyz"[:s]))
            update = tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(s)) for _ in range(s)
            )
            init = tuple(Fraction(rng.randint(-2, 2)) for _ in range(s))
            sys = ConcreteSystem(vars, update, init)
            terms = {}
            for _ in range(rng.randint(1, 3)):
                mono = Monomial.make({v: rng.randint(0, 2) for v in vars})
                terms[mono] = Fraction(rng.randint(-3, 3))
            p = Polynomial(terms)
            verdict = check_invariant(sys, p)
            state = init
            long_holds = True
            for _ in range(5 * old_order_bound(p, vars)):
                if p.substitute(dict(zip(vars, state))) != 0:
                    long_holds = False
                    break
                state = dense_step(sys, state)
            assert verdict.holds == long_holds


PARAM = Var("k", "param")
PARAM2 = Var("j", "param")
FRACTION = st.fractions(min_value=-2, max_value=2, max_denominator=4)
WIDE = st.fractions(min_value=-2, max_value=2, max_denominator=256)


@st.composite
def kernel_cases(draw):
    """A system of size 1-3, initial values that may be linear in the
    parameters k and j, and an invariant whose terms raise each variable
    to 0-2, one of them possibly to 3, with coefficients that may carry k
    and j squared.  Entries, initial values and coefficients have
    denominators up to 256 where the invariant has degree at most 3 in the
    variables, else up to 4.  A `random` invariant mostly fails at once.
    A `late` one is a multiple of x - x_0, so it holds at n = 0 and mostly
    fails later.  For a `conserved` one the update keeps the sum of the
    variables, and the invariant is a multiple of that sum minus its
    initial value, so it holds."""
    s = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["random", "late", "conserved"]))
    shapes = []  # each term's exponents of the variables, k and j
    for _ in range(draw(st.integers(1, 3))):
        exponents = [draw(st.integers(0, 2)) for _ in range(s + 2)]
        exponents[draw(st.integers(0, s - 1))] += draw(st.integers(0, 1))  # a cube
        shapes.append(exponents)
    low = max(sum(e[:s]) for e in shapes) + (kind != "random") <= 3
    number = st.one_of(FRACTION, WIDE) if low else FRACTION
    rows = [[draw(number) for _ in range(s)] for _ in range(s)]
    if kind == "conserved":  # columns of U - I sum to zero
        for j in range(s):
            rows[s - 1][j] = (j == s - 1) - sum(rows[i][j] - (i == j) for i in range(s - 1))
    init = []
    for _ in range(s):
        a, b, c = draw(FRACTION), draw(number), draw(FRACTION)
        linear = b + (a * Polynomial.var(PARAM) if a and draw(st.booleans()) else 0)
        init.append(linear + c * Polynomial.var(PARAM2) if c and draw(st.booleans()) else linear)
    sys = make_system("xyz"[:s], rows, init)
    symbols = (*sys.vars, PARAM, PARAM2)
    p = Polynomial({Monomial.make(dict(zip(symbols, e))): draw(number) for e in shapes})
    if kind != "random":
        p = p if not p.is_zero() else Polynomial.const(1)
    if kind == "late":
        p = p * (var_polys(sys)[0] - init[0])
    if kind == "conserved":
        p = p * (sum(var_polys(sys), Polynomial.zero()) - sum(init, Fraction(0)))
    return sys, p


class TestKernel:
    """`check_invariant` and `ConcreteSystem.step` against the reference
    that substitutes into the invariant and steps densely in `Fraction`s."""

    @given(kernel_cases())
    @settings(deadline=None, max_examples=150)
    def test_verdict_matches_substitution_reference(self, case):
        sys, p = case
        verdict, reference = check_invariant(sys, p), reference_verdict(sys, p)
        assert verdict == reference
        if reference.witness is not None:
            assert type(verdict.witness[1]) is type(reference.witness[1])
        state = sys.init
        for _ in range(4):
            assert sys.step(state) == dense_step(sys, state)
            state = dense_step(sys, state)

    def test_conserved_cases_hold(self):
        # the strategy's conserved branch gives invariants that hold
        sys = make_system("xy", [[Fraction(1, 2), 3], [Fraction(1, 2), -2]], [Polynomial.var(PARAM), 1])
        x, y = var_polys(sys)
        p = (x * Polynomial.var(PARAM) + 1) * (x + y - Polynomial.var(PARAM) - 1)
        assert check_invariant(sys, p) == reference_verdict(sys, p) == Verdict(True, 1 + 2 + 3)

    def test_constant_witness_is_a_fraction(self):
        sys = make_system("xu", [[1, 1], [0, 1]], [1, 1])
        x, _ = var_polys(sys)
        verdict = check_invariant(sys, x - 3)
        assert verdict.witness == (0, Fraction(-2)) and type(verdict.witness[1]) is Fraction
        # a parameter factor that cancels leaves a constant witness
        k = Polynomial.var(PARAM)
        verdict = check_invariant(sys, k * x - k - 2)
        assert verdict.witness == (0, Fraction(-2)) and type(verdict.witness[1]) is Fraction

    def test_parameterized_witness_is_a_polynomial(self):
        sys = make_system("xu", [[1, 1], [0, 1]], [Polynomial.var(PARAM), 1])
        x, _ = var_polys(sys)
        verdict = check_invariant(sys, x * x - Polynomial.var(PARAM))
        n, witness = verdict.witness
        assert n == 0 and type(witness) is Polynomial
        assert witness == Polynomial.var(PARAM) ** 2 - Polynomial.var(PARAM)

    def test_sparse_rows_leave_fields_equality_and_repr_alone(self):
        a = make_system("xu", [[1, Fraction(1, 2)], [0, 1]], [0, 1])
        b = ConcreteSystem(a.vars, tuple(tuple(r) for r in a.update), a.init)
        assert a == b and hash(a) == hash(b) and "rows" not in repr(a)
        assert a.rows == (((0, 1), (1, Fraction(1, 2))), ((1, 1),))
        assert all(type(c) is int for c in (a.rows[0][0][1], a.rows[1][0][1]))


def parameter_update_cases():
    """Code-built systems with a parameter in an update entry, which the
    loop reader refuses: each entry keeps its values polynomials in k and
    j, of a degree that grows with n."""
    k, j = Polynomial.var(PARAM), Polynomial.var(PARAM2)
    x, y, u = (Var(n, "program", i) for i, n in enumerate("xyu"))
    X, Y = Polynomial.var(x), Polynomial.var(y)
    # x += k, y += 1: x - k y - j holds; a degree-3 multiple of it too
    shift = ConcreteSystem((x, y, u), ((1, 0, k), (0, 1, 1), (0, 0, 1)), (j, Fraction(0), Fraction(1)))
    # x *= k/2, y *= k/2 with y = 2x at the start
    geometric = ConcreteSystem((x, y), ((k * Fraction(1, 2), 0), (0, k * Fraction(1, 2))),
                               (j + Fraction(1, 3), 2 * j + Fraction(2, 3)))
    return [
        (shift, X - k * Y - j),
        (shift, (X - k * Y - j) * (X * X - Y * j + Fraction(1, 256))),
        (shift, X - k * Y - j - Y * Y * Fraction(1, 64)),
        (shift, X * X * X - j ** 3),
        (geometric, Y - 2 * X),
        (geometric, Y * Y - 4 * X * X),
        (geometric, X * X - (j + Fraction(1, 3)) * X),
        (geometric, Y - 2 * X - 1),
        (geometric, Y * X - 2 * X * X + k * X * Fraction(1, 128)),
    ]


def width_limit_system(step):
    """x = k + j, stepped by x += step: x^3 - (k + j)^3 has degree 3 in the
    parameters, so their fields are two bits wide and an exponent 3 fills
    one; a field one bit narrower would carry a square into the other
    parameter's field."""
    x, u = Var("x", "program", 0), Var("u", "program", 1)
    init = Polynomial.var(PARAM) + Polynomial.var(PARAM2)
    sys = ConcreteSystem((x, u), ((1, step), (0, 1)), (init, Fraction(1)))
    return sys, Polynomial.var(x) ** 3 - init ** 3


class TestPackedKernel:
    """The integer kernel on what the loop reader never gives it, and at
    its packed fields' width limit, against the substitution reference."""

    @pytest.mark.parametrize("case", range(len(parameter_update_cases())))
    def test_parameter_in_an_update_entry(self, case):
        sys, p = parameter_update_cases()[case]
        verdict, reference = check_invariant(sys, p), reference_verdict(sys, p)
        assert verdict == reference
        if reference.witness is not None:
            assert type(verdict.witness[1]) is type(reference.witness[1])

    def test_width_limit(self):
        sys, p = width_limit_system(0)
        assert check_invariant(sys, p) == reference_verdict(sys, p) == Verdict(True, 5)
        sys, p = width_limit_system(1)
        verdict = check_invariant(sys, p)
        assert verdict == reference_verdict(sys, p)
        k, j = Polynomial.var(PARAM), Polynomial.var(PARAM2)
        assert verdict.witness == (1, 3 * (k + j) ** 2 + 3 * (k + j) + 1)


INTCBRT = "x, s, r = 35/64 + a0, 7/16, -1/4\nwhile true\nx = x - s\ns = s + 6r + 3\nr = r + 1\nend"
INTCBRT_INV = "1 + 4a0 + 6r^2 == 3r + 4r^3 + 4x && 1/4 + 3r^2 == s"


class TestIntcbrt:
    """The corpus loop with the largest order bounds, a parameter and a
    fractional invariant coefficient."""

    def verdicts(self, text):
        loop = parse_loop(text)
        return [check_invariant(loop.system, p) for p in parse_invariant(INTCBRT_INV, loop.symbols())]

    def test_proved_loop(self):
        assert self.verdicts(INTCBRT) == [Verdict(True, 35), Verdict(True, 15)]

    def test_off_by_one_64th_fails_at_iteration_2(self):
        first, second = self.verdicts(INTCBRT.replace("s = s + 6r + 3", "s = s + 6r + 3 + 1/64"))
        assert first == Verdict(False, 35, (2, Fraction(1, 16))) and type(first.witness[1]) is Fraction
        assert second == Verdict(False, 15, (1, Fraction(-1, 64)))
