import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import smt
from loopsynth.constraints import Clause, Pcp
from loopsynth.poly import Monomial, Polynomial, Var
from loopsynth.smt import (
    SOLVER_ENV,
    AlgebraicTag,
    SolverConfig,
    SolverError,
    SolverTimeout,
    default_solver_command,
    emit_smtlib,
    parse_solver_output,
    solve,
    solve_structured,
)

X = Var("x", "program", 0)
Y = Var("y", "program", 1)


def vandermonde_zero_check(ws, us):
    """For pairwise-distinct bases, decide whether sum_i ws[i]^n us[i]
    vanishes at n = 0, ..., len-1 — which forces it to vanish for all n,
    because the Vandermonde system in the us is invertible.  Confirms that
    implication (all us must then be zero) and returns the premise."""
    ell = len(ws)
    if len(set(ws)) != ell or len(us) != ell:
        raise ValueError("need equally many pairwise-distinct bases and coefficients")
    for n in range(ell):
        if sum(w**n * u for w, u in zip(ws, us)) != 0:
            return False
    assert all(u == 0 for u in us), "distinct-base exponential sum vanished with nonzero coefficients"
    return True


def cfg():
    return SolverConfig.default()


BUILTIN = SolverConfig(command=("builtin",))


def within(seconds=30.0):
    """The deadline `seconds` from now."""
    return time.monotonic() + seconds


class TestEmission:
    def test_deterministic_and_complete(self):
        clauses = [
            Clause.unit(Polynomial.var(X) - Fraction(1, 2)),
            Clause.unit(Polynomial.var(Y), "!="),
        ]
        script = emit_smtlib(clauses)
        assert script == emit_smtlib(clauses)
        assert "(set-logic QF_NRA)" in script
        assert "(declare-const x Real)" in script and "(declare-const y Real)" in script
        assert "(/ 1 2)" in script
        assert script.index("declare-const x") < script.index("declare-const y")
        assert "(check-sat)" in script and "(get-model)" in script

    def test_negative_and_product_rendering(self):
        p = 3 * Polynomial.var(X) * Polynomial.var(Y) ** 2 - 2
        script = emit_smtlib([Clause.unit(p)])
        assert "(* 3 x y y)" in script and "(- 2)" in script

    def test_disjunction(self):
        c = Clause.any([(Polynomial.var(X), "="), (Polynomial.var(Y) - 1, "=")])
        assert "(or " in emit_smtlib([c])


class TestOutputParsing:
    def test_sat_model(self):
        out = (
            "sat\n(model\n"
            "  (define-fun x () Real (- (/ 1 2)))\n"
            "  (define-fun y () Real 3)\n)"
        )
        res = parse_solver_output(out, [X, Y])
        assert res.status == "sat"
        assert res.model == {X: Fraction(-1, 2), Y: Fraction(3)}

    def test_missing_symbols_default_to_zero(self):
        res = parse_solver_output("sat\n(model)\n", [X, Y])
        assert res.model == {X: Fraction(0), Y: Fraction(0)}

    def test_irrational_values_are_tagged(self):
        out = "sat\n((define-fun x () Real (root-obj (+ (^ x 2) (- 2)) 2)))"
        res = parse_solver_output(out, [X])
        value = res.model[X]
        assert isinstance(value, AlgebraicTag) and value.index == 2
        assert not res.rational

    def test_error_raises(self):
        with pytest.raises(SolverError):
            parse_solver_output('(error "bad input")', [X])
        with pytest.raises(SolverError):
            parse_solver_output("gibberish", [X])


class TestSolverRoundTrip:
    def test_trivial_sat(self):
        res = solve([Clause.unit(Polynomial.var(X) - 2)], cfg(), within())
        assert res.status == "sat" and res.model[X] == 2

    def test_trivial_unsat(self):
        res = solve(
            [Clause.unit(Polynomial.var(X)), Clause.unit(Polynomial.var(X), "!=")],
            cfg(), within(),
        )
        assert res.status == "unsat"

    def test_lying_solver_is_caught(self):
        fake = SolverConfig(command=("sh", "-c", "cat >/dev/null; echo sat"))
        with pytest.raises(SolverError, match="re-check"):
            solve([Clause.unit(Polynomial.var(X) - 2)], fake, within(5.0))

    def test_timeout(self):
        slow = SolverConfig(command=("sh", "-c", "sleep 5"))
        with pytest.raises(SolverTimeout):
            solve([Clause.unit(Polynomial.var(X))], slow, within(0.2))


class TestBuiltinBackend:
    def test_no_rational_root_is_unknown_not_unsat(self):
        # x^2 = 2 has real roots, so a search that tried only rationals
        # must not claim that there are none
        res = solve([Clause.unit(Polynomial.var(X) ** 2 - 2)], BUILTIN, within())
        assert res.status == "unknown"

    def test_pivot_division_is_exact(self):
        # eliminating v from c*v + rest = 0 divides by c; on int
        # coefficients that must stay a Fraction, never a float
        v, w = Var("v", "coeff"), Var("w", "coeff")
        res = smt.solve_builtin([Clause.unit(2 * Polynomial.var(v) + 1)], [v], within())
        assert res.status == "sat" and res.model == {v: Fraction(-1, 2)}
        assert all(type(x) is Fraction for x in res.model.values())
        clauses = [
            Clause.unit(3 * Polynomial.var(v) - 2 * Polynomial.var(w)),
            Clause.unit(Polynomial.var(w) - 1),
        ]
        res = smt.solve_builtin(clauses, [v, w], within())
        assert res.status == "sat" and res.model == {v: Fraction(2, 3), w: Fraction(1)}
        assert all(type(x) is Fraction for x in res.model.values())

    def test_expired_budget_raises_timeout(self):
        with pytest.raises(SolverTimeout):
            solve([Clause.unit(Polynomial.var(X) - 1)], BUILTIN, within(0.0))

    def test_budget_holds_inside_branching(self):
        # no small rationals satisfy this, and only a full assignment shows it
        xs = [Var(f"x{i}", "coeff") for i in range(10)]
        total = sum((Polynomial.var(v) ** 2 for v in xs), Polynomial.zero())
        begin = time.monotonic()
        with pytest.raises(SolverTimeout):
            solve([Clause.unit(total - 1000003)], BUILTIN, within(0.3))
        assert time.monotonic() - begin < 2.0

    def test_budget_holds_inside_propagation(self):
        # a chain of 499 eliminations, each substituting into one long
        # equation, before any branching: seconds of work
        ys = [Var(f"y{i}", "coeff") for i in range(500)]
        chain = [Clause.unit(Polynomial.var(a) - Polynomial.var(b) - 1) for a, b in zip(ys, ys[1:])]
        products = Polynomial({Monomial.make({a: 1, b: 1}): 1 for a, b in zip(ys, ys[1:])})
        begin = time.monotonic()
        with pytest.raises(SolverTimeout):
            solve(chain + [Clause.unit(products - 7)], BUILTIN, within(0.3))
        assert time.monotonic() - begin < 2.0

    def test_environment_variable_precedes_probe(self, monkeypatch):
        def probe():
            raise AssertionError("probed although $LOOPSYNTH_SOLVER is set")

        monkeypatch.setattr(smt, "_probed_default", probe)
        monkeypatch.setenv(SOLVER_ENV, "z3 -in")
        assert default_solver_command() == ["z3", "-in"]
        assert SolverConfig.default().backend == "z3"
        monkeypatch.setenv(SOLVER_ENV, "builtin")
        chosen = SolverConfig.default()
        assert chosen.command == ("builtin",) and chosen.backend == "builtin"
        # an explicit command line wins over the environment
        assert default_solver_command("cvc5 --lang smt2") == ["cvc5", "--lang", "smt2"]

    def test_probe_looks_where_the_wrapper_looks(self, monkeypatch, tmp_path):
        monkeypatch.setattr(smt.shutil, "which", lambda name: "/bin/node" if name == "node" else None)
        monkeypatch.delenv("LOOPSYNTH_NODE_MODULES", raising=False)
        monkeypatch.chdir(tmp_path)
        probe = smt._probed_default.__wrapped__  # uncached
        assert probe() == ("builtin",)
        package = tmp_path / "node_modules" / "z3-solver"
        package.mkdir(parents=True)
        (package / "package.json").write_text("{}")
        deeper = tmp_path / "a" / "b"
        deeper.mkdir(parents=True)
        monkeypatch.chdir(deeper)  # found in an ancestor, as Node resolves it
        assert SolverConfig(probe()).backend == "z3-wasm"


class TestVandermonde:
    def test_random_instances(self):
        rng = random.Random(11)
        for _ in range(500):
            ell = rng.randint(1, 4)
            ws = []
            while len(ws) < ell:
                w = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                if w not in ws:
                    ws.append(w)
            if rng.random() < 0.5:
                us = [Fraction(0)] * ell
            else:
                us = [Fraction(rng.randint(-5, 5)) for _ in range(ell)]
            result = vandermonde_zero_check(ws, us)
            assert result == all(u == 0 for u in us)

    def test_rejects_duplicate_bases(self):
        with pytest.raises(ValueError):
            vandermonde_zero_check([Fraction(1), Fraction(1)], [Fraction(0), Fraction(0)])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_first_values_decide_the_sum_for_any_bases(self, data):
        # bases may coincide or be 0; the coefficients are a random point of
        # the solution set of sum_i w_i^n u_i = 0 for n < l
        ws = data.draw(st.lists(st.sampled_from(
            [Fraction(v) for v in (0, 1, -1, 2, -3, "1/2")]), min_size=1, max_size=6))
        ell = len(ws)
        basis = null_space([[w**n for w in ws] for n in range(ell)], ell)
        assert len(basis) == ell - len(set(ws))
        ks = data.draw(st.lists(st.integers(-4, 4), min_size=len(basis), max_size=len(basis)))
        us = [sum((k * b[i] for k, b in zip(ks, basis)), Fraction(0)) for i in range(ell)]
        for w in set(ws):
            assert sum(u for v, u in zip(ws, us) if v == w) == 0
        for n in range(3 * ell + 1):
            assert sum(w**n * u for w, u in zip(ws, us)) == 0


def null_space(rows, ncols):
    """A basis of the solutions of rows * u = 0, by Gauss-Jordan
    elimination over Fraction."""
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        u = [Fraction(0)] * ncols
        u[free] = Fraction(1)
        for i, c in enumerate(pivots):
            u[c] = -rows[i][free]
        basis.append(u)
    return basis


COUNTING_SOLVER = """\
import re, sys
script = sys.stdin.read()
path = sys.argv[1]
try:
    calls = int(open(path).read())
except FileNotFoundError:
    calls = 0
open(path, "w").write(str(calls + 1))
if calls == 0:
    print("sat")
    for name in re.findall(r"\\(declare-const (\\S+) Real\\)", script):
        print(f"(define-fun {name} () Real (root-obj (+ (^ x 2) (- 2)) 2))")
else:
    print("unknown")
"""


def exp_sum_at(terms, n):
    """The exponential sum sum_i w_i^n * u_i over (base monomial w_i,
    polynomial u_i) terms, at the index n."""
    return sum((Polynomial({w.pow(n): 1}) * u for w, u in terms), Polynomial.zero())


def make_cfc_problem(side_clauses, terms):
    """The side clauses and the exponential sum's instantiations at
    n = 0, ..., length-1, as one problem."""
    return Pcp(list(side_clauses) + [Clause.unit(exp_sum_at(terms, n)) for n in range(len(terms))])


class TestStructuredSolving:
    def test_a_lone_base_forces_its_coefficient_to_zero(self):
        w1 = Var("w1", "root")
        u1 = Var("u1", "coeff")
        pcp = make_cfc_problem([], [(Monomial.of(w1), Polynomial.var(u1))])
        res = solve_structured(pcp, cfg(), within())
        assert res.status == "sat"
        assert res.model[u1] == 0

    def test_forced_base_coincidence(self):
        # u1 = 1 is forced, so the only way the exponential sum can vanish
        # for every n is w1 = w2 with u2 = -1
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")
        pcp = make_cfc_problem(
            [Clause.unit(Polynomial.var(u1) - 1)],
            [(Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2))],
        )
        res = solve_structured(pcp, cfg(), within())
        assert res.status == "sat"
        model = res.model
        assert model[u1] == 1 and model[u2] == -1
        assert model[w1] == model[w2]

    def test_conclusive_unsat(self):
        # both coefficients forced to 1: no coincidence of bases can cancel
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")
        pcp = make_cfc_problem(
            [
                Clause.unit(Polynomial.var(u1) - 1),
                Clause.unit(Polynomial.var(u2) - 1),
            ],
            [(Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2))],
        )
        res = solve_structured(pcp, cfg(), within())
        assert res.status == "unsat"

    def test_irrational_instantiated_model_ends_the_search(self, tmp_path):
        # a stand-in solver: a model with an irrational value for every
        # constant to the first script, then unknown
        calls = tmp_path / "calls"
        solver = tmp_path / "solver.py"
        solver.write_text(COUNTING_SOLVER)
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")
        pcp = make_cfc_problem(
            [Clause.unit(Polynomial.var(u1) - 1)],
            [(Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2))],
        )
        fake = SolverConfig((sys.executable, str(solver), str(calls)))
        res = solve_structured(pcp, fake, within())
        assert res.status == "sat" and not res.rational
        assert calls.read_text() == "1"

    def test_no_structured_constraints_plain_solve(self):
        pcp = Pcp([Clause.unit(Polynomial.var(X) - 7)])
        res = solve_structured(pcp, cfg(), within())
        assert res.status == "sat" and res.model[X] == 7
