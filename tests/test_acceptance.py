"""End-to-end acceptance suite.

Each numbered test covers one acceptance criterion and prints as a single
pass/fail line under pytest -v.  The two strict xfails document sub-claims
that are mathematically unattainable; their reasons are in the test bodies.
"""

import pathlib
import random
import time
from fractions import Fraction

import pytest

from loopsynth.constraints import Clause, Pcp, first_violated
from loopsynth.parser import parse_invariant, parse_loop, parse_spec
from loopsynth.pcpgen import build_pcp, gen_alg, gen_coeff, gen_init, gen_roots
from loopsynth.poly import Monomial, Polynomial, Var
from loopsynth.smt import SolverConfig, solve, solve_structured
from loopsynth.synth import SynthRequest, synthesize
from loopsynth.template import ShapeTier, build_template, int_partitions
from loopsynth.verify import ConcreteSystem, check_invariant
from test_smt import exp_sum_at, vandermonde_zero_check
from test_template import companion_embedding

BENCH = pathlib.Path(__file__).parent.parent / "benchmarks"


def old_order_bound(p, vars):
    """The closure-rule order bound, the sum of s^deg over p's terms; it is
    never below `order_bound`, so unrolling to it checks more steps."""
    return max(sum(len(vars) ** sum(e for v, e in m if v in vars) for m in p.terms), 1)


def spec_request(name, tier="un", timeout=60.0):
    request = SynthRequest.from_spec(parse_spec((BENCH / f"{name}.spec").read_text()))
    request.tiers = [ShapeTier.parse(tier)]
    request.timeout = timeout
    return request


# Reference loops: (loop text, invariant text).  The two cube-sum loops and
# every synthesized variant quoted with the benchmark corpus.
CUBE_INV = "c == n^3 && k == 3n^2 + 3n + 1 && m == 6n + 6"
REFERENCE_LOOPS = {
    "cubes-fixed": (
        "c, k, m, n = 0, 1, 6, 0\nwhile true\nc = c + k\nk = k + m\nm = m + 6\nn = n + 1\nend",
        CUBE_INV),
    "cubes-alt": (
        "c, k, m, n = 0, 1, 6, 0\nwhile true\nc = c + k\nk = k + 6n + 6\nm = m + 6\nn = n + 1\nend",
        CUBE_INV),
    "eucliddiv-1": (
        "r, q, y = x0, 0, y0\nwhile true\nr = r - q - y\nq = q + 1\ny = y - 1\nend",
        "x0 == y0*q + r"),
    "eucliddiv-2": (
        "r, q, y = x0 - 1/2 y0, 1/2, y0\nwhile true\nr = r - q - 1/2 y + 1/2\nq = q + 1/2\ny = y - 1\nend",
        "x0 == y0*q + r"),
    "square-1": ("a, b = 0, 0\nwhile true\na = a - 2b + 1\nb = b - 1\nend", "a == b^2"),
    "square-2": ("a, b = 1/16, -1/4\nwhile true\na = a + 2b + 1\nb = b + 1\nend", "a == b^2"),
    "sum1-1": (
        "a, b, c = 1/2, 1/4, 2\nwhile true\na = a - 1/2\nb = b - 1/2 c + 3/4\nc = c - 1\nend",
        "1 + 2a == c && 4b == (c - 1)^2"),
    "sum1-2": (
        "a, b, c = -5/8, 25/64, -1/4\nwhile true\na = a + 1\nb = b + c\nc = c + 2\nend",
        "1 + 2a == c && 4b == (c - 1)^2"),
    "intsqrt2-1": (
        "y, r = 1/2 a0, 0\nwhile true\ny = y + r - 1\nr = r - 1\nend",
        "a0 + r == r^2 + 2y"),
    "intsqrt2-2": (
        "y, r = 1/2 a0 - 5/32, -1/4\nwhile true\ny = y - r\nr = r + 1\nend",
        "a0 + r == r^2 + 2y"),
    # initial value corrected from the quoted 34/64 (see the strict xfail below)
    "intcbrt": (
        "x, s, r = 35/64 + a0, 7/16, -1/4\nwhile true\nx = x - s\ns = s + 6r + 3\nr = r + 1\nend",
        "1 + 4a0 + 6r^2 == 3r + 4r^3 + 4x && 1/4 + 3r^2 == s"),
    "fmi1-1": ("y, x = 15/32, -1/4\nwhile true\ny = 3x + y\nx = x + 1\nend", "2y == 3x(x - 1)"),
    "fmi1-2": (
        "y, x = -3/8, 1/2\nwhile true\ny = y + (3/8)x - 21/128\nx = x + 1/8\nend",
        "2y == 3x(x - 1)"),
    "fmi2-1": (
        "z, x, y = 1/4, 1/64, 1/8\nwhile true\nz = z - 1\nx = x - y + 1/4\ny = y - 1/2\nend",
        "z == 2y && x == y^2"),
    "fmi2-2": (
        "z, x, y = 1, 1/4, 1/2\nwhile true\nz = 1/8 + z\nx = (1/8)y + x + 1/256\ny = y + 1/16\nend",
        "z == 2y && x == y^2"),
    "fmi3-1": (
        "y, x, z = 27/32, -9/4, -1/8\nwhile true\ny = (-1/4)x + y - 1/2 + (25/2)z\nx = x + 2\nz = 1 + z\nend",
        "y == 3xz && x == 2(z - 1)"),
    "fmi3-2": (
        "y, x, z = 9/2, -3, -1/2\nwhile true\ny = y + (1/2)x + 11/32 + (1/2)z\nx = x + 1/4\nz = 1/8 + z\nend",
        "y == 3xz && x == 2(z - 1)"),
    "fmi4-1": ("x, y = 1/8, -1/4\nwhile true\nx = x + 4y + 2\ny = y + 1\nend", "x == 2y^2"),
    "fmi4-2": (
        "x, y = 1/2, 1/2\nwhile true\nx = (1/2)y + x + 1/32\ny = y + 1/8\nend", "x == 2y^2"),
    "fmi5-1": (
        "y, x = -5/16, -1/4\nwhile true\ny = -10x + y - 5\nx = x + 1\nend", "y + 5x^2 == 0"),
    "fmi5-2": (
        "y, x = -5/4, 1/2\nwhile true\ny = y - (5/4)x - 5/64\nx = x + 1/8\nend", "y + 5x^2 == 0"),
}

FAULTY_CUBES = (
    "c, k, m, n = 0, 0, 0, 0\nwhile true\nc = c + k\nk = k + m\nm = m + 9\nn = n + 1\nend"
)


def test_01_reference_loops_verify_exactly_and_faulty_loop_is_refuted():
    for name, (text, inv) in REFERENCE_LOOPS.items():
        loop = parse_loop(text)
        begin = time.monotonic()
        for p in parse_invariant(inv, loop.symbols()):
            verdict = check_invariant(loop.system, p)
            assert verdict.holds, f"{name} violates {p}: witness {verdict.witness}"
        assert time.monotonic() - begin < 1.0, f"{name} exceeded one second"

    loop = parse_loop(FAULTY_CUBES)
    verdicts = [check_invariant(loop.system, p)
                for p in parse_invariant(CUBE_INV, loop.symbols())]
    assert not all(v.holds for v in verdicts)
    # the earliest counterexample is at iteration 0 (second and third conjunct)
    assert min(v.witness[0] for v in verdicts if not v.holds) == 0
    assert verdicts[1].witness == (0, Fraction(-1))
    assert verdicts[2].witness == (0, Fraction(-6))


@pytest.mark.xfail(
    strict=True,
    reason="the quoted initial value x = 34/64 + a0 fails the cubic conjunct at "
    "iteration 0: 1+4a0+6(1/16) = 22/16+4a0 but 3(-1/4)+4(-1/64)+4x = 21/16+4a0; "
    "x = 35/64 + a0 (verified above) is off by exactly 1/64",
)
def test_01_quoted_cubicroot_initial_value():
    text, inv = REFERENCE_LOOPS["intcbrt"]
    loop = parse_loop(text.replace("35/64", "34/64"))
    for p in parse_invariant(inv, loop.symbols()):
        assert check_invariant(loop.system, p).holds


@pytest.mark.parametrize(
    "name",
    ["double2", "square", "fmi1", "fmi2", "fmi3", "fmi4", "fmi5", "sum1", "intsqrt2", "cubes"],
)
def test_02_synthesis_round_trip(name):
    request = spec_request(name, tier="un", timeout=60.0)
    begin = time.monotonic()
    result = synthesize(request, SolverConfig.default())
    elapsed = time.monotonic() - begin
    assert result.status == "found", f"{name}: {result.status} ({result.note})"
    assert elapsed <= 60.0, f"{name} took {elapsed:.1f}s"
    (loop,) = result.loops
    for p in request.invariants:
        assert check_invariant(loop.system(), p).holds


def test_03_parameterized_synthesis_with_symbolic_verification():
    request = spec_request("eucliddiv", tier="un", timeout=60.0)
    begin = time.monotonic()
    result = synthesize(request, SolverConfig.default())
    assert result.status == "found"
    assert time.monotonic() - begin <= 60.0
    (loop,) = result.loops
    assert {p.name for p in loop.params} == {"x0", "y0"}
    # the initial state is genuinely symbolic
    assert any(isinstance(v, Polynomial) and v.variables() for v in loop.init)
    # verification is over the parameters: substituted steps reduce to the
    # identically-zero polynomial, proving the invariant for all x0, y0
    for p in request.invariants:
        verdict = check_invariant(loop.system(), p)
        assert verdict.holds and verdict.witness is None


def _doubling_problem():
    vars = [Var("x", "program", 0), Var("y", "program", 1)]
    tpl = build_template(vars, ShapeTier.FULL, (2,))
    inv = Polynomial.var(vars[0]) - 2 * Polynomial.var(vars[1])
    return tpl, inv


def test_04_doubling_constraint_system_reproduced_and_solved():
    tpl, inv = _doubling_problem()
    b11, b12 = tpl.b.at(0, 0), tpl.b.at(0, 1)
    b21, b22 = tpl.b.at(1, 0), tpl.b.at(1, 1)
    (w, _), = tpl.rootspec
    wp = Polynomial.var(w)
    c1, c2 = tpl.coeff_columns[(w, 1)]
    d1, d2 = tpl.coeff_columns[(w, 2)]
    a1, a2 = tpl.init_exprs

    def names(clauses):  # a polynomial is its unit equality
        return {str(Clause.unit(c) if isinstance(c, Polynomial) else c) for c in clauses}

    assert names(gen_roots(tpl)) == {
        str(Clause.unit(b11 + b22 - 2 * wp)),
        str(Clause.unit(b12 * b21 - b11 * b22 + wp * wp)),
        str(Clause.unit(wp, "!=")),
    }
    expected_coeff = {
        str(Clause.unit(c1 * wp + d1 * wp - b11 * c1 - b12 * c2)),
        str(Clause.unit(c2 * wp + d2 * wp - b21 * c1 - b22 * c2)),
        str(Clause.unit(d1 * wp - b11 * d1 - b12 * d2)),
        str(Clause.unit(d2 * wp - b21 * d1 - b22 * d2)),
    }
    assert names(gen_coeff(tpl)) == expected_coeff
    # the paper's initial-value clauses, at n = 0 and n = 1; gen_init states
    # n = 0, and each n = 1 clause is its coefficient clause plus
    # b_i1 (c1 - a1) + b_i2 (c2 - a2)
    expected_init = {
        str(Clause.unit(c1 - a1)),
        str(Clause.unit(c2 - a2)),
        str(Clause.unit(c1 * wp + d1 * wp - b11 * a1 - b12 * a2)),
        str(Clause.unit(c2 * wp + d2 * wp - b21 * a1 - b22 * a2)),
    }
    assert names(gen_init(tpl)) == {str(Clause.unit(c1 - a1)), str(Clause.unit(c2 - a2))}
    implied = set()
    for coeff, bi1, bi2 in [
        (c1 * wp + d1 * wp - b11 * c1 - b12 * c2, b11, b12),
        (c2 * wp + d2 * wp - b21 * c1 - b22 * c2, b21, b22),
    ]:
        assert str(Clause.unit(coeff)) in expected_coeff
        implied.add(str(Clause.unit(coeff + bi1 * (c1 - a1) + bi2 * (c2 - a2))))
    assert names(gen_init(tpl)) | implied == expected_init
    alg = gen_alg(tpl, [inv])
    assert names(alg) == {str(Clause.unit(c1 - 2 * c2)), str(Clause.unit(d1 - 2 * d2))}

    # the geometric solution (x, y) <- (2x, 2y) from (2, 1) satisfies every clause
    bundle = build_pcp(tpl, [inv])
    by_name = {v.name: v for v in bundle.pcp.variables()}
    model = {v: Fraction(0) for v in bundle.pcp.variables()}
    model.update({
        by_name["b11"]: Fraction(2), by_name["b22"]: Fraction(2),
        by_name[w.name]: Fraction(2),
        by_name["a1"]: Fraction(2), by_name["a2"]: Fraction(1),
        by_name["c1_1_1"]: Fraction(2), by_name["c1_1_2"]: Fraction(1),
    })
    assert first_violated(bundle.pcp, model) is None


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the additive loop (x, y) <- (x+2, y+1) from (2, 1) has trajectory "
    "(2+2n, 1+n), which no 2x2 linear update reproduces: X1 = 2*X0 forces "
    "X2 = 4*X0 = (8, 4), but the loop gives (6, 3); equivalently the "
    "coefficient rows demand B(2,1) = (4,2) and B(2,1) = (2,1) at once",
)
def test_04_additive_solution_satisfies_doubling_problem():
    tpl, inv = _doubling_problem()
    bundle = build_pcp(tpl, [inv])
    by_name = {v.name: v for v in bundle.pcp.variables()}

    def entry(name):
        return Polynomial.var(by_name[name])

    trajectory_pins = [
        Clause.unit(entry("a1") - 2),
        Clause.unit(entry("a2") - 1),
        # one step: B (2, 1) = (4, 2); two steps: B (4, 2) = (6, 3)
        Clause.unit(2 * entry("b11") + entry("b12") - 4),
        Clause.unit(2 * entry("b21") + entry("b22") - 2),
        Clause.unit(4 * entry("b11") + 2 * entry("b12") - 6),
        Clause.unit(4 * entry("b21") + 2 * entry("b22") - 3),
    ]
    res = solve(list(bundle.pcp) + trajectory_pins, SolverConfig.default(),
                time.monotonic() + 30.0)
    assert res.status == "sat"


def test_05_verifier_agrees_with_extended_unrolling_on_random_systems():
    rng = random.Random(2024)
    begin = time.monotonic()
    for _ in range(100):
        s = rng.randint(1, 3)
        vars = tuple(Var(n, "program", i) for i, n in enumerate("xyz"[:s]))
        update = tuple(
            tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s))
            for _ in range(s)
        )
        init = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(s))
        sys = ConcreteSystem(vars, update, init)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = Monomial.make({v: rng.randint(0, 2) for v in vars})
            if mono.degree <= 2:
                terms[mono] = Fraction(rng.randint(-3, 3))
        p = Polynomial(terms)
        verdict = check_invariant(sys, p)
        state, long_holds = init, True
        for _ in range(5 * old_order_bound(p, vars)):
            if p.substitute(dict(zip(vars, state))) != 0:
                long_holds = False
                break
            state = sys.step(state)
        assert verdict.holds == long_holds
    assert time.monotonic() - begin < 30.0


def test_06_structured_solver_stage_behavior():
    cfg = SolverConfig.default()
    deadline = time.monotonic() + 30.0
    w1, w2 = Var("w1", "root"), Var("w2", "root")
    u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")

    # (a) trivially cancellable instance: the model makes the sum vanish
    # for all n, with every coefficient zero or the bases merged
    terms = ((Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2)))
    full = Pcp([Clause.unit(exp_sum_at(terms, n)) for n in range(2)])
    res = solve_structured(full, cfg, deadline)
    assert res.status == "sat"
    m = res.model
    assert m[u1] + m[u2] == 0 and (m[u1] == 0 or m[w1] == m[w2])

    # (b) forcing u1 = 1 rules out zero coefficients; the sum can only
    # vanish for all n with the two bases merged and u2 = -1
    full = Pcp([Clause.unit(Polynomial.var(u1) - 1)]
               + [Clause.unit(exp_sum_at(terms, n)) for n in range(2)])
    res = solve_structured(full, cfg, deadline)
    assert res.status == "sat" and res.model[u1] == 1

    # grid-search oracle: over a rational grid, every (w1, w2, u2) with
    # u1 = 1 whose sum vanishes at n = 0..5 has merged bases and u2 = -1
    grid = [Fraction(n, d) for n in range(-4, 5) for d in (1, 2)]
    oracle = [
        (a, b, u)
        for a in grid for b in grid for u in grid
        if all(a**n + b**n * u == 0 for n in range(6))
    ]
    assert oracle and all(a == b and u == -1 for a, b, u in oracle)
    assert res.model[u2] == -1 and res.model[w1] == res.model[w2]

    # (c) with pairwise-distinct bases, vanishing initial segments force all
    # coefficients to zero
    rng = random.Random(17)
    for _ in range(500):
        ell = rng.randint(1, 5)
        ws = []
        while len(ws) < ell:
            w = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            if w not in ws:
                ws.append(w)
        zero = rng.random() < 0.5
        us = [Fraction(0) if zero else Fraction(rng.randint(-6, 6), rng.randint(1, 3))
              for _ in range(ell)]
        assert vandermonde_zero_check(ws, us) == all(u == 0 for u in us)


def test_07_partition_enumeration_counts():
    expected = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 8: 22}
    for s, count in expected.items():
        parts = int_partitions(s)
        assert len(parts) == count
        assert len(set(parts)) == count
        assert all(sum(p) == s for p in parts)


def test_08_fibonacci_companion_system_satisfies_quartic_relation():
    begin = time.monotonic()
    m = companion_embedding([-1, -1])  # x(n+2) = x(n+1) + x(n)
    a = Var("a", "program", 0)  # x(n)
    b = Var("b", "program", 1)  # x(n+1)
    sys = ConcreteSystem(
        vars=(a, b),
        update=tuple(tuple(e.constant_value() for e in row) for row in m.entries),
        init=(Fraction(0), Fraction(1)),
    )
    pa, pb = Polynomial.var(a), Polynomial.var(b)
    relation = pa**4 + 2 * pa**3 * pb - pa**2 * pb**2 - 2 * pa * pb**3 + pb**4 - 1
    verdict = check_invariant(sys, relation)
    assert verdict.holds
    assert verdict.bound_used == 5 + 1
    assert time.monotonic() - begin < 10.0
