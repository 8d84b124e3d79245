import random
import time
from fractions import Fraction

import pytest

from loopsynth import smt
from loopsynth.constraints import Clause, Pcp
from loopsynth.pcpgen import CFiniteConstraint
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
    set_partitions,
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
        with pytest.raises(SolverError):
            res.rational_model()

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


class TestSetPartitions:
    def test_bell_numbers(self):
        for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
            parts = set_partitions(n)
            assert len(parts) == bell
            assert len(set(parts)) == bell
            for p in parts:
                assert sorted(i for b in p for i in b) == list(range(n))

    def test_finest_first_coarsest_last(self):
        parts = set_partitions(3)
        assert parts[0] == ((0,), (1,), (2,))
        assert parts[-1] == ((0, 1, 2),)
        counts = [len(p) for p in parts]
        assert counts == sorted(counts, reverse=True)


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


def make_cfc_problem(hard_clauses, terms):
    cfc = CFiniteConstraint(tuple(terms))
    hard = Pcp(list(hard_clauses))
    full = Pcp(list(hard_clauses) + [Clause.unit(cfc.instantiate(n)) for n in range(cfc.length)])
    return hard, [cfc], full


class TestStructuredSolving:
    def test_all_coefficients_zero_ends_at_first_stage(self):
        w1 = Var("w1", "root")
        u1 = Var("u1", "coeff")
        hard, cfcs, full = make_cfc_problem([], [(Monomial.of(w1), Polynomial.var(u1))])
        res = solve_structured(hard, cfcs, full, cfg(), within())
        assert res.status == "sat"
        assert res.partition == ((0,),)
        assert res.model[u1] == 0

    def test_forced_base_coincidence(self):
        # u1 = 1 is forced, so the only way the exponential sum can vanish
        # for every n is w1 = w2 with u2 = -1
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")
        hard, cfcs, full = make_cfc_problem(
            [Clause.unit(Polynomial.var(u1) - 1)],
            [(Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2))],
        )
        res = solve_structured(hard, cfcs, full, cfg(), within())
        assert res.status == "sat"
        assert res.partition == ((0, 1),)
        model = res.model
        assert model[u1] == 1 and model[u2] == -1
        assert model[w1] == model[w2]

    def test_conclusive_unsat(self):
        # both coefficients forced to 1: no coincidence pattern can cancel
        w1, w2 = Var("w1", "root"), Var("w2", "root")
        u1, u2 = Var("u1", "coeff"), Var("u2", "coeff")
        hard, cfcs, full = make_cfc_problem(
            [
                Clause.unit(Polynomial.var(u1) - 1),
                Clause.unit(Polynomial.var(u2) - 1),
            ],
            [(Monomial.of(w1), Polynomial.var(u1)), (Monomial.of(w2), Polynomial.var(u2))],
        )
        res = solve_structured(hard, cfcs, full, cfg(), within())
        assert res.status == "unsat"

    def test_no_structured_constraints_plain_solve(self):
        hard = Pcp([Clause.unit(Polynomial.var(X) - 7)])
        res = solve_structured(hard, [], Pcp(list(hard)), cfg(), within())
        assert res.status == "sat" and res.model[X] == 7
