import gc
import hashlib
import itertools
import json
import math
import os
import re
import sys
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from loopsynth import pcpgen as pcpgen_module, synth as synth_module
from loopsynth.constraints import variables_of
from loopsynth.matrix import char_poly
from loopsynth.parser import ParseError, parse_invariant, parse_loop, parse_spec
from loopsynth.pcpgen import DegenerateInvariantError, base_clauses, build_pcp
from loopsynth.poly import Polynomial, Var
from loopsynth.smt import SolverConfig, SolverError, SolverRun, emit_smtlib, solve
from loopsynth.synth import (
    Loop,
    RequestError,
    SynthRequest,
    _SharedBases,
    _blocking_clause,
    _cell_problem,
    _cells,
    _effective_vars,
    _nontriviality_clause,
    _search_space,
    first_cell_script,
    synthesize,
)
from loopsynth.template import ShapeTier, build_template, int_partitions
from loopsynth.verify import check_invariant
from test_pcpgen import OUT_OF_ORDER_SPECS


def make_vars(*names):
    return [Var(n, "program", i) for i, n in enumerate(names)]


def request_for(text, names, **kw):
    vars = make_vars(*names)
    syms = {v.name: v for v in vars}
    return SynthRequest(invariants=parse_invariant(text, syms), vars=vars, **kw)


def cfg():
    return SolverConfig.default()


def unknown_runs(monkeypatch):
    """Make every solver run of a search answer unknown without starting
    anything; the returned list gets each run's script, in the order the
    runs are made."""
    scripts = []

    class UnknownRun:
        def __init__(self, clauses, cfg, variables):
            scripts.append(emit_smtlib(list(clauses), variables))

        def result(self, deadline):
            return SimpleNamespace(status="unknown")

        def cancel(self):
            pass

    monkeypatch.setattr(synth_module, "SolverRun", UnknownRun)
    return scripts


def built_cells(req):
    """Each search cell's problem, or None for a cell that is not built,
    in search order, through one `_SharedBases` as the search builds them."""
    cells, bases, _aux = _search_space(req)
    return [_cell_problem(req, perm, tier, part, bases) for tier, perm, part in cells]


class TestEndToEnd:
    def test_doubling_invariant(self):
        req = request_for(
            "x == 2y", ["x", "y"],
            size=3, tiers=[ShapeTier.UNIT_UPPER], partitions=[(3,)], timeout=60.0,
        )
        res = synthesize(req, cfg())
        assert res.status == "found"
        (loop,) = res.loops
        assert loop.tier == "un"
        assert check_invariant(loop.system(), req.invariants[0]).holds
        # the loop must actually move
        sys = loop.system()
        assert sys.step(sys.init) != sys.init

    def test_square_invariant_render_round_trip(self):
        req = request_for(
            "a == b^2", ["a", "b"],
            size=3, tiers=[ShapeTier.UNIT_UPPER], partitions=[(3,)], timeout=60.0,
        )
        res = synthesize(req, cfg())
        assert res.status == "found"
        (loop,) = res.loops
        text = loop.render()
        assert text.splitlines()[1] == "while true" and text.rstrip().endswith("end")
        reparsed = parse_loop(text)
        syms = reparsed.symbols()
        a, b = Polynomial.var(syms["a"]), Polynomial.var(syms["b"])
        assert check_invariant(reparsed.system, a - b * b).holds

    def test_multiple_distinct_loops(self):
        req = request_for(
            "x == 2y", ["x", "y"],
            size=3, tiers=[ShapeTier.UNIT_UPPER], partitions=[(3,)],
            timeout=90.0, count=2,
        )
        res = synthesize(req, cfg())
        assert res.status == "found" and len(res.loops) == 2
        l1, l2 = res.loops
        assert (l1.update, l1.init) != (l2.update, l2.init)
        for loop in res.loops:
            assert check_invariant(loop.system(), req.invariants[0]).holds

    def test_trivial_invariant_still_yields_moving_loop(self):
        req = request_for(
            "x == x", ["x"], tiers=[ShapeTier.UPPER], timeout=30.0,
        )
        res = synthesize(req, cfg())
        assert res.status == "found"
        sys = res.loops[0].system()
        assert sys.step(sys.init) != sys.init

    def test_contradiction_is_notfound(self):
        req = request_for("x == x + 1", ["x"], timeout=30.0)
        res = synthesize(req, cfg())
        assert res.status == "notfound" and not res.loops

    @pytest.mark.parametrize("budget", [0.0, -1.0])  # perfbench passes what is left, which can be spent
    def test_budget_exhaustion_reports_timeout(self, budget):
        req = request_for("x == 2y", ["x", "y"], size=3, timeout=budget)
        res = synthesize(req, cfg())
        assert res.status == "timeout"

    def test_request_budget_reaches_the_solver_process(self):
        req = request_for("x == 2y", ["x", "y"], size=3, timeout=0.5)
        begin = time.monotonic()
        res = synthesize(req, SolverConfig(("sh", "-c", "sleep 5")))
        assert res.status == "timeout"
        assert time.monotonic() - begin < 2.0


IRRATIONAL_SOLVER = """\
import re, sys
script = sys.stdin.read()
print("sat")
for name in re.findall(r"\\(declare-const (\\S+) Real\\)", script):
    value = "1" if name[0] in sys.argv[1] else "(root-obj (+ (^ x 2) (- 2)) 2)"
    print(f"(define-fun {name} () Real {value})")
"""


class TestRefusedModels:
    # A stand-in solver answers sat with an irrational value for every
    # constant whose first letter is not in its argument.  With all of them
    # irrational no loop can be read off; with the matrix (b*) and initial
    # values (a*) set to 1 the loop is read off and fails verification.
    @pytest.mark.parametrize("rational", ["", "ab"])
    def test_a_refused_model_leaves_the_search_undecided(self, tmp_path, rational):
        solver = tmp_path / "irrational.py"
        solver.write_text(IRRATIONAL_SOLVER)
        req = request_for(
            "x == 2y", ["x", "y"],
            size=3, tiers=[ShapeTier.UNIT_UPPER], partitions=[(3,)], timeout=60.0,
        )
        res = synthesize(req, SolverConfig((sys.executable, str(solver), rational)))
        assert res.status == "notfound" and not res.loops
        assert res.note == (
            "some search cells were undecided: a solver model with irrational values was refused"
        )


PINNED_SOLVER = """\
import re, sys
pins = dict(arg.split("=") for arg in sys.argv[1:])
script = sys.stdin.read()
print("sat")
for name in re.findall(r"\\(declare-const (\\S+) Real\\)", script):
    value = pins.get(name, "(root-obj (+ (^ x 2) (- 2)) 2)")
    print(f"(define-fun {name} () Real {value})")
"""


class TestModelsWithIrrationalRoots:
    # A stand-in solver answers sat with the `name=value` pairs it is given
    # and an irrational value for every other constant, so `SolverRun`
    # skips its exact re-check of the clauses.  The size-2 `un` cell has
    # B = [[1, b12], [0, 1]] and initial values a1, a2.

    @staticmethod
    def search(tmp_path, invariant, *pins):
        solver = tmp_path / "pinned.py"
        solver.write_text(PINNED_SOLVER)
        req = request_for(
            invariant, ["x", "y"], tiers=[ShapeTier.UNIT_UPPER], partitions=[(2,)], timeout=60.0,
        )
        return synthesize(req, SolverConfig((sys.executable, str(solver), *pins)))

    def test_a_model_whose_loop_changes_no_variable_is_refused(self, tmp_path):
        # x, y = 2, 1 with b12 = 0 keeps x == 2y but never moves: only the
        # exact nontriviality re-check can refuse it
        res = self.search(tmp_path, "x == 2y", "b12=0", "a1=2", "a2=1")
        assert res.status == "notfound" and not res.loops
        assert res.note == (
            "some search cells were undecided: a solver model with irrational values was refused"
        )

    def test_rational_update_and_initial_values_give_a_verified_loop(self, tmp_path):
        # the path of a Fibonacci-like loop from an external solver: the
        # roots and closed-form coefficients are irrational, the loop is not
        res = self.search(tmp_path, "y == 1", "b12=1", "a1=1", "a2=1")
        assert res.status == "found"
        (loop,) = res.loops
        assert loop.render() == "x, y = 1, 1\nwhile true\n  x = x + y\n  y = y\nend\n"

    def test_a_counter_stepping_by_the_constant_one_is_not_folded(self, tmp_path):
        # t1 starts at 1 and steps by the constant-one variable: folding it
        # as well would print x = x + 1, which breaks the invariant at n = 2
        solver = tmp_path / "pinned.py"
        solver.write_text(PINNED_SOLVER)
        req = request_for(
            "2x == y^2 + y", ["x", "y"], aux_one=True, size=4,
            tiers=[ShapeTier.UNIT_UPPER], partitions=[(4,)], timeout=60.0,
        )
        pins = "b12=0 b13=1 b14=0 b23=0 b24=1 b34=1 a1=0 a2=0 a3=1".split()
        res = synthesize(req, SolverConfig((sys.executable, str(solver), *pins)))
        (loop,) = res.loops
        assert loop.permutation == ("x", "y", "t1", "one")
        assert loop.render() == (
            "x, y, t1 = 0, 0, 1\nwhile true\n  x = x + t1\n  y = y + 1\n  t1 = t1 + 1\nend\n"
        )


STANDIN_SOLVER = """\
import hashlib, json, subprocess, sys, time
log, plan = sys.argv[1], json.load(open(sys.argv[2]))
script = sys.stdin.read()
key = hashlib.sha256(script.encode()).hexdigest()
step = plan.get(key, plan["other"])

def note(line):
    with open(log, "a") as f:
        f.write(line + "\\n")

note(f"start {key}")
if step.get("child"):
    child = subprocess.Popen(["sleep", "30"], stdout=subprocess.DEVNULL)
    note(f"child {child.pid}")
time.sleep(step.get("sleep", 0))
note(f"end {key}")
print(step.get("out", "unknown"))
sys.exit(step.get("status", 0))
"""


def script_key(script):
    return hashlib.sha256(script.encode()).hexdigest()


def _smt_value(q):
    text = str(abs(q.numerator)) if q.denominator == 1 else f"(/ {abs(q.numerator)} {q.denominator})"
    return f"(- {text})" if q < 0 else text


class TestSolverWindow:
    # A stand-in solver follows a plan keyed by the SHA-256 of the script
    # it is given: how long to sleep, what to print, its exit status, and
    # whether to start a `sleep 30` child first.  It logs when it starts
    # and ends, and the pid of any child.  Every test here runs with the
    # default window of 2, unless it says otherwise.

    @staticmethod
    def request(timeout=60.0):
        return request_for(
            "a == b^2", ["a", "b"], size=3, tiers=[ShapeTier.UNIT_UPPER], timeout=timeout,
        )

    @staticmethod
    def cell_scripts(req):
        """Each built cell's bundle and script, in search order."""
        return [(b, emit_smtlib(list(b.pcp))) for b in built_cells(req) if b is not None]

    @staticmethod
    def model_answer(bundle):
        """The solver output for the model the built-in backend finds for the cell."""
        res = solve(list(bundle.pcp), SolverConfig(("builtin",)), time.monotonic() + 30)
        assert res.status == "sat" and res.rational
        return "sat\n" + "\n".join(
            f"(define-fun {v.name} () Real {_smt_value(q)})" for v, q in res.model.items()
        )

    @staticmethod
    def standin(tmp_path, plan):
        solver = tmp_path / "standin.py"
        solver.write_text(STANDIN_SOLVER)
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        return SolverConfig((sys.executable, str(solver), str(tmp_path / "log"),
                             str(tmp_path / "plan.json")))

    @staticmethod
    def log(tmp_path):
        path = tmp_path / "log"
        return [line.split() for line in path.read_text().splitlines()] if path.exists() else []

    @staticmethod
    def read_order(monkeypatch):
        """Record the script of each run whose result the search reads, in order."""
        keys = []

        class ReadRecording(SolverRun):
            def result(self, deadline):
                keys.append(script_key(emit_smtlib(self.clauses)))
                return super().result(deadline)

        monkeypatch.setattr(synth_module, "SolverRun", ReadRecording)
        return keys

    def test_a_run_starts_before_the_previous_one_ends(self, tmp_path):
        req = self.request()
        res = synthesize(req, self.standin(tmp_path, {"other": {"sleep": 0.1}}))
        assert res.status == "notfound" and "undecided" in res.note
        running, overlapped = 0, False
        for event, _key in self.log(tmp_path):
            overlapped |= event == "start" and running > 0
            running += 1 if event == "start" else -1
        assert overlapped and running == 0

    @pytest.mark.parametrize("outcome", ["notfound", "found"])
    def test_the_window_changes_nothing_the_search_reports(self, tmp_path, monkeypatch, outcome):
        # the first cell's solver answers last, so reading results in the
        # order they complete would read a later cell first
        req = self.request()
        cells = self.cell_scripts(req)
        plan = {"other": {}, script_key(cells[0][1]): {"sleep": 0.3}}
        if outcome == "found":
            bundle, script = cells[3]
            plan[script_key(script)] = {"out": self.model_answer(bundle)}
        cfg = self.standin(tmp_path, plan)
        assert synth_module._window(cfg) == 2
        reports = []
        for window in ("default", 1):
            if window == 1:
                monkeypatch.setattr(synth_module, "_window", lambda cfg: 1)
            order = self.read_order(monkeypatch)
            res = synthesize(req, cfg)
            loops = [{k: v for k, v in lp.to_json().items() if k != "millis"} for lp in res.loops]
            reports.append((res.status, res.note, loops, order))
        assert reports[0] == reports[1]
        status, _note, loops, order = reports[0]
        read = cells[:4] if outcome == "found" else cells
        assert status == outcome and order == [script_key(script) for _b, script in read]
        assert len(loops) == (outcome == "found")

    @pytest.mark.parametrize("failure", [{"status": 3}, {"out": "garbage"}],
                             ids=["exit-status", "garbage"])
    @pytest.mark.parametrize("decided", ["found", "timeout"])
    def test_a_later_cells_solver_error_does_not_surface(self, tmp_path, decided, failure):
        req = self.request(timeout=60.0 if decided == "found" else 1.0)
        cells = self.cell_scripts(req)
        first = {"sleep": 0.3, "out": self.model_answer(cells[0][0])} if decided == "found" \
            else {"sleep": 30}
        cfg = self.standin(tmp_path, {"other": failure, script_key(cells[0][1]): first})
        res = synthesize(req, cfg)
        assert res.status == decided
        started = [key for event, key in self.log(tmp_path) if event == "start"]
        assert script_key(cells[1][1]) in started  # the failing run was made

    @pytest.mark.parametrize("ending", ["found", "notfound", "timeout", "error"])
    def test_no_solver_process_outlives_the_search(self, tmp_path, ending):
        # the first cell's solver decides the search after the second
        # one's has started a child; a timed-out first run has one too.
        # In a notfound search every solver answers at once and leaves a
        # child behind that holds its error output open.
        req = self.request(timeout=60.0 if ending != "timeout" else 1.5)
        cells = self.cell_scripts(req)
        first = {
            "found": {"sleep": 0.5, "out": self.model_answer(cells[0][0])},
            "notfound": {"child": True},
            "timeout": {"child": True, "sleep": 30},
            "error": {"sleep": 0.5, "status": 3},
        }[ending]
        other = {"child": True} if ending == "notfound" else {"child": True, "sleep": 30}
        cfg = self.standin(tmp_path, {"other": other, script_key(cells[0][1]): first})
        begin = time.monotonic()
        if ending == "error":
            with pytest.raises(SolverError, match="status 3"):
                synthesize(req, cfg)
        else:
            assert synthesize(req, cfg).status == ending
        assert time.monotonic() - begin < 10
        children = [int(pid) for event, pid in self.log(tmp_path) if event == "child"]
        assert children
        gone_by = time.monotonic() + 5
        while any(map(_alive, children)) and time.monotonic() < gone_by:
            time.sleep(0.05)
        assert not any(map(_alive, children))


def _alive(pid):
    """Whether the process runs; a zombie, killed but not yet reaped by
    its new parent, does not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    except OSError:  # no /proc: ask the process itself
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestRequestExpansion:
    def test_aux_one_and_padding(self):
        req = request_for("x == 2y", ["x", "y"], size=4, aux_one=True)
        vars, pinned, aux = _effective_vars(req)
        assert [v.name for v in vars] == ["x", "y", "one", "t1"]
        assert pinned == {"one": Fraction(1)}
        assert aux == ("one", "t1")

    def test_aux_names_avoid_collisions(self):
        req = request_for("one == 2t1", ["one", "t1"], size=3, aux_one=True)
        vars, pinned, aux = _effective_vars(req)
        assert [v.name for v in vars] == ["one", "t1", "_one"]
        assert pinned == {"_one": Fraction(1)}

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one_rejected(self, count):
        req = request_for("x == 2y", ["x", "y"], size=3, count=count)
        with pytest.raises(RequestError, match="count must be at least 1"):
            synthesize(req, cfg())

    def test_size_below_variable_count_rejected(self):
        req = request_for("x == 2y", ["x", "y"], size=1)
        with pytest.raises(ValueError):
            synthesize(req, cfg())

    @pytest.mark.parametrize("names, message", [
        ((Var("p", "param"), Var("p", "param")), "parameter 'p' is declared twice"),
        ((Var("p", "param"), Var("q", "param")), "variable 'x' is named by two parameters"),
        ((Var("p", "param"), Var("p", "program")), "parameter 'p' is declared twice"),  # two symbols
    ])
    def test_code_built_request_rejects_duplicate_parameter_bindings(self, names, message):
        # the checks parse_spec makes on a spec's params, for a request built in code
        x, y = make_vars("x", "y")
        p, q = names
        second = y if p.name == q.name else x
        req = SynthRequest(
            invariants=[Polynomial.var(x) - Polynomial.var(p)], vars=[x, y],
            params=[(p, x), (q, second)], timeout=60.0,
        )
        with pytest.raises(RequestError, match=message):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match=message):
            first_cell_script(req)

    @pytest.mark.parametrize("binding, pinned, message", [
        ("z", {}, "parameter 'p' refers to unknown variable 'z'"),
        ("x", {"z": Fraction(1)}, "pinned initial value for unknown variable 'z'"),
        ("x", {"x": Fraction(1)}, "variable 'x' is both pinned and parameterized"),
    ])
    def test_code_built_request_rejects_bad_bindings_and_pins(self, binding, pinned, message):
        # the checks parse_spec makes on a spec's params and pins, for a
        # request built in code
        x, y = make_vars("x", "y")
        p, z = Var("p", "param"), Var("z", "program", 2)
        req = SynthRequest(
            invariants=[Polynomial.var(x) - Polynomial.var(p)], vars=[x, y],
            params=[(p, {"x": x, "z": z}[binding])], pinned=pinned, timeout=60.0,
        )
        with pytest.raises(RequestError, match=message):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match=message):
            first_cell_script(req)

    def test_code_built_request_rejects_a_repeated_variable(self):
        # as parse_spec refuses `vars x x`
        x, = make_vars("x")
        req = SynthRequest(invariants=[Polynomial.var(x) - 1], vars=[x, x], timeout=60.0)
        with pytest.raises(RequestError, match="vars line needs distinct names"):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match="vars line needs distinct names"):
            first_cell_script(req)

    def test_code_built_request_rejects_a_parameter_named_like_a_variable(self):
        # as parse_spec refuses `vars x y` with `params y=x`
        x, y = make_vars("x", "y")
        req = SynthRequest(
            invariants=[Polynomial.var(x) - Polynomial.var(y)], vars=[x, y],
            params=[(Var("y", "param"), x)], timeout=60.0,
        )
        with pytest.raises(RequestError, match="parameter 'y' collides with a variable"):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match="parameter 'y' collides with a variable"):
            first_cell_script(req)

    def test_code_built_request_rejects_a_repeated_tier(self):
        # `tiers=[un, un]` would search every `un` cell twice
        req = request_for("x == 2y", ["x", "y"], size=3, tiers=[ShapeTier.UNIT_UPPER] * 2, timeout=60.0)
        with pytest.raises(RequestError, match="a tier is named twice"):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match="a tier is named twice"):
            first_cell_script(req)

    # one fault each: variable names, (parameter, variable) names, pins, message
    NAME_FAULTS = {
        "repeated_variable": (["x", "x"], [], {}, "vars line needs distinct names"),
        "param_collides": (["x", "y"], [("y", "x")], {}, "parameter 'y' collides with a variable"),
        "param_of_unknown_variable": (["x", "y"], [("p", "z")], {}, "parameter 'p' refers to unknown variable 'z'"),
        "param_declared_twice": (["x", "y"], [("p", "x"), ("p", "y")], {}, "parameter 'p' is declared twice"),
        "two_params_on_one_variable": (["x", "y"], [("p", "x"), ("q", "x")], {},
                                       "variable 'x' is named by two parameters"),
        "pin_of_unknown_variable": (["x", "y"], [], {"z": 1}, "pinned initial value for unknown variable 'z'"),
        "pinned_and_parameterized": (["x", "y"], [("p", "x")], {"x": 1},
                                     "variable 'x' is both pinned and parameterized"),
    }

    @pytest.mark.parametrize("case", sorted(NAME_FAULTS))
    def test_one_name_rule_on_every_path(self, case):
        # a spec, a request built in code and a template refuse the same
        # names with the same message
        names, params, pins, message = self.NAME_FAULTS[case]
        text = (f"vars {' '.join(names)}\n" + "".join(f"params {p}={v}\n" for p, v in params)
                + "".join(f"init {v}={c}\n" for v, c in pins.items()) + "invariant x == 2y\n")
        with pytest.raises(ParseError) as err:
            parse_spec(text)
        assert str(err.value) in (message, f"line 1: {message}")  # a vars line error names its line

        vars = make_vars(*names)
        by_name = {v.name: v for v in vars}
        req = SynthRequest(
            invariants=[Polynomial.var(vars[0]) - 2 * Polynomial.var(vars[1])], vars=vars,
            params=[(Var(p, "param"), by_name.get(v, Var(v, "program", len(vars)))) for p, v in params],
            pinned={v: Fraction(c) for v, c in pins.items()}, timeout=60.0,
        )
        for path in (lambda: synthesize(req, cfg()), lambda: first_cell_script(req)):
            with pytest.raises(RequestError) as err:
                path()
            assert str(err.value) == message

        if all(v in names for _, v in params):  # a template binds parameters by position
            with pytest.raises(ValueError) as err:
                build_template(vars, ShapeTier.FULL, (len(vars),), pins,
                               [(Var(p, "param"), names.index(v)) for p, v in params])
            assert str(err.value) == message

    def test_code_built_request_refuses_a_nan_budget(self):
        # no clock reading is at or past a NaN deadline, so the search would never stop
        req = request_for("x == 2y", ["x", "y"], timeout=math.nan)
        with pytest.raises(RequestError, match="timeout must be a number of seconds, found nan"):
            synthesize(req, cfg())

    # (spec, tiers, budget, solver command, status or the error raised)
    SEARCH_ENDS = {
        "builtin_found": ("square", None, None, ("builtin",), "found"),
        "external_undecided": ("intcbrt", [ShapeTier.FULL], None,
                               ("sh", "-c", "cat >/dev/null; echo unknown"), "notfound"),
        "external_timeout": ("square", None, 0.5, ("sh", "-c", "sleep 5; echo unknown"), "timeout"),
        "builtin_timeout": ("sum_of_square", None, 1.0, ("builtin",), "timeout"),
        "start_failure": ("square", None, None, ("/nonexistent/solver",), SolverError),
        "solver_failure": ("square", None, None, ("sh", "-c", "cat >/dev/null; exit 3"), SolverError),
    }

    def search_end(self, case):
        """Run the search of `case` and check how it ends."""
        name, tiers, budget, command, end = self.SEARCH_ENDS[case]
        request = SynthRequest.from_spec(parse_spec((BENCHMARKS / f"{name}.spec").read_text()))
        request.tiers = tiers or request.tiers
        request.timeout = budget or request.timeout
        if isinstance(end, str):
            assert synthesize(request, SolverConfig(command)).status == end
        else:
            with pytest.raises(end):
                synthesize(request, SolverConfig(command))

    @pytest.mark.parametrize("case", sorted(set(SEARCH_ENDS) - {"solver_failure"}))
    def test_search_leaves_no_cyclic_garbage(self, case):
        # the search's objects are freed by reference counting alone, so
        # holding the collector off during a search frees as much
        gc.collect()
        gc.disable()
        try:
            self.search_end(case)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("case", ["builtin_found", "solver_failure"])
    def test_search_leaves_the_collector_as_it_found_it(self, case, collecting):
        (gc.enable if collecting else gc.disable)()
        try:
            self.search_end(case)
            assert gc.isenabled() is collecting
        finally:
            gc.enable()

    def test_searches_on_threads_turn_the_collector_back_on(self):
        # the searches read and set the collector in turn; once all have
        # ended it must be on again, however the threads interleave
        req = request_for("x == 2y", ["x", "y"], timeout=30.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(lambda _: synthesize(req, cfg()).status, range(40)))
        finally:
            sys.setswitchinterval(interval)
        assert results == ["found"] * 40
        assert gc.isenabled()

    def test_spec_timeout_is_kept_and_defaults_to_60(self):
        spec = parse_spec("vars x\ninvariant x == 1\ntimeout 0.5\n")
        assert SynthRequest.from_spec(spec).timeout == 0.5
        spec.timeout = None
        assert SynthRequest.from_spec(spec).timeout == 60.0
        # a zero budget that reaches the request is not replaced by the default
        spec.timeout = 0.0
        assert SynthRequest.from_spec(spec).timeout == 0.0


class TestRendering:
    def sample_loop(self):
        vars = tuple(make_vars("a", "b", "one"))
        return Loop(
            vars=vars,
            update=(
                (Fraction(1), Fraction(2), Fraction(1)),
                (Fraction(0), Fraction(1), Fraction(1)),
                (Fraction(0), Fraction(0), Fraction(1)),
            ),
            init=(Fraction(0), Fraction(0), Fraction(1)),
            aux=("one",),
            tier="un",
            partition=(3,),
        )

    def test_constant_one_folds_into_affine_constants(self):
        text = self.sample_loop().render()
        assert "one" not in text
        assert "a = a + 2*b + 1" in text and "b = b + 1" in text

    def test_render_parse_trajectory_oracle(self):
        loop = self.sample_loop()
        orig = loop.system()
        reparsed = parse_loop(loop.render()).system
        state_a, state_b = orig.init, reparsed.init
        for _ in range(10):
            assert state_a[:2] == state_b[:2]
            state_a, state_b = orig.step(state_a), reparsed.step(state_b)

    def test_an_auxiliary_variable_that_steps_is_not_folded(self):
        # v0 stays 1, v1 = v1 - v0 does not: only v0 folds
        loop = Loop(
            vars=tuple(make_vars("v0", "v1")),
            update=((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))),
            init=(Fraction(1), Fraction(1)),
            aux=("v0", "v1"),
        )
        assert loop.render() == "v1 = 1\nwhile true\n  v1 = v1 - 1\nend\n"

    def test_a_matrix_not_upper_triangular_is_one_simultaneous_line(self):
        loop = Loop(
            vars=tuple(make_vars("x", "y", "z")),
            update=tuple(tuple(map(Fraction, row)) for row in ((0, 1, 0), (-1, 0, 0), (0, 0, 0))),
            init=(Fraction(1), Fraction(-2), Fraction(1, 2)),
        )
        assert loop.render() == "x, y, z = 1, -2, 1/2\nwhile true\n  x, y, z = y, -x, 0\nend\n"

    ENTRIES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 2)]

    @staticmethod
    @st.composite
    def loops(draw):
        """A loop of size 1 to 4 with at least one variable outside `aux`;
        an auxiliary variable is constant one, a counter from 1 stepping by
        another auxiliary variable, or free."""
        s = draw(st.integers(1, 4))
        entries = st.sampled_from(TestRendering.ENTRIES)
        update = [[draw(entries) for _ in range(s)] for _ in range(s)]
        init = [draw(entries) for _ in range(s)]
        kept = draw(st.integers(0, s - 1))
        aux = [i for i in range(s) if i != kept and draw(st.booleans())]
        for i in aux:
            kind = draw(st.sampled_from(["one", "counter", "free"]))
            if kind != "free":
                update[i] = [Fraction(int(j == i)) for j in range(s)]
                init[i] = Fraction(1)
            if kind == "counter" and len(aux) > 1:
                by = draw(st.sampled_from([j for j in aux if j != i]))
                update[i][by] = draw(st.sampled_from(TestRendering.ENTRIES[1:]))
        names = [f"v{i}" for i in range(s)]
        return Loop(
            vars=tuple(make_vars(*names)),
            update=tuple(map(tuple, update)),
            init=tuple(init),
            aux=tuple(names[i] for i in aux),
        )

    @settings(deadline=None, max_examples=300)
    @given(loops())
    def test_rendered_text_keeps_each_trajectory(self, loop):
        text = loop.render()
        reparsed = parse_loop(text)
        kept = reparsed.var_names
        assert {v.name for v in loop.vars} - set(loop.aux) <= set(kept), text
        at = [loop.permutation.index(name) for name in kept]
        orig, new = loop.system(), reparsed.system
        state_a, state_b = orig.init, new.init
        for _ in range(10):
            assert [state_a[i] for i in at] == list(state_b[:len(kept)]), text
            state_a, state_b = orig.step(state_a), new.step(state_b)

    def test_json_payload(self):
        payload = self.sample_loop().to_json()
        assert payload["vars"] == ["a", "b", "one"]
        assert payload["tier"] == "un" and payload["verified"] is True
        assert payload["loop"].startswith("a, b = 0, 0")


class TestScriptExport:
    def test_first_cell_script_is_smtlib(self):
        req = request_for("x == 2y", ["x", "y"])
        script = first_cell_script(req)
        assert script.startswith("(set-logic QF_NRA)")
        assert "(check-sat)" in script and "(declare-const" in script


BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def benchmark_request(name, tiers):
    spec = parse_spec((BENCHMARKS / f"{name}.spec").read_text())
    symbols = spec.symbols()
    return SynthRequest(
        invariants=spec.invariants(),
        vars=[symbols[v] for v in spec.var_names],
        params=[(symbols[p], symbols[v]) for p, v in spec.params],
        pinned=dict(spec.init_pins),
        tiers=tiers,
        size=spec.size,
        aux_one=spec.aux_one,
    )


class TestSearchSpace:
    TIERS = [ShapeTier.UNIT_UPPER, ShapeTier.UPPER, ShapeTier.FULL]

    def test_unit_upper_tier_searches_only_the_single_part_partition(self):
        vars = make_vars("x", "y", "z")
        parts = int_partitions(3)
        cells = list(_cells(vars, self.TIERS, parts))
        perms = list(itertools.permutations(vars))
        assert cells == (
            [(ShapeTier.UNIT_UPPER, perm, (3,)) for perm in perms]
            + [(ShapeTier.UPPER, perm, part) for perm in perms for part in parts]
            + [(ShapeTier.FULL, tuple(vars), part) for part in parts]
        )

    def test_multi_part_unit_upper_request_is_a_clean_notfound(self, monkeypatch):
        def no_solver(*args, **kwargs):
            raise AssertionError("no cell should reach the solver")

        monkeypatch.setattr(synth_module, "SolverRun", no_solver)
        req = request_for(
            "x == 2y", ["x", "y"], size=3,
            tiers=[ShapeTier.UNIT_UPPER], partitions=[(2, 1)], timeout=60.0,
        )
        res = synthesize(req, cfg())
        assert res.status == "notfound" and res.note == ""
        with pytest.raises(RequestError):
            first_cell_script(req)

    def test_a_size_one_unit_upper_cell_is_never_built(self, monkeypatch):
        # B = I changes nothing, so the cell has no nontriviality clause and
        # never reaches a solver, nor `_blocking_clause` with no symbol
        runs = unknown_runs(monkeypatch)
        spec = parse_spec("vars x\ninvariant x == 1\ntier un\n")
        res = synthesize(SynthRequest.from_spec(spec), SolverConfig(("recording",)))
        assert res.status == "notfound" and res.note == "" and runs == []

    def test_emitted_script_is_the_first_cell_the_search_solves(self, monkeypatch):
        solved = unknown_runs(monkeypatch)
        # every unit-upper cell is pruned, so both paths must skip that tier
        req = request_for("x == 2y", ["x", "y"], size=3, partitions=[(2, 1)])
        assert synthesize(req, SolverConfig(("recording",))).status == "notfound"
        assert solved and solved[0] == first_cell_script(req)
        assert "b21" not in solved[0]  # an upper-triangular cell, not a full one

    @pytest.mark.parametrize("name, tiers", [
        ("square", [ShapeTier.UNIT_UPPER, ShapeTier.UPPER]),
        ("eucliddiv", [ShapeTier.UNIT_UPPER]),  # parameters and the aux-one pin
    ])
    def test_one_solver_call_per_built_cell(self, name, tiers, monkeypatch):
        calls = unknown_runs(monkeypatch)
        req = benchmark_request(name, tiers)
        res = synthesize(req, SolverConfig(("counting",)))
        assert res.status == "notfound" and "undecided" in res.note
        assert len(calls) == sum(1 for b in built_cells(req) if b is not None) > 0

    @pytest.mark.parametrize("name", [
        "square", "fmi2",
        "eucliddiv",  # parameters and the aux-one pin: every key has one cell
        "intcbrt",  # a parameter, and keys of six cells
    ])
    def test_shared_clause_families_match_a_fresh_build(self, name, monkeypatch):
        templates, built = [], []

        def recording_build_template(perm, tier, part, pinned, params, shape):
            templates.append((tier, part, tuple(pinned.get(v.name) for v in perm),
                              tuple(i for _, i in params)))
            return build_template(perm, tier, part, pinned, params, shape)

        def counting_base_clauses(tpl, products):
            built.append(tpl)
            return base_clauses(tpl, products)

        monkeypatch.setattr(synth_module, "build_template", recording_build_template)
        monkeypatch.setattr(synth_module, "base_clauses", counting_base_clauses)
        tiers = list(ShapeTier)
        req = benchmark_request(name, tiers)
        _vars, pinned, _aux = _effective_vars(req)
        cells, keys = reference_keys(req, tiers)
        search, bases, _ = _search_space(req)
        assert list(search) == cells
        shared = [_cell_problem(req, perm, tier, part, bases) for tier, perm, part in cells]
        # one template and one base per key, whatever the number of its
        # orders, and nothing held once the search is over
        assert Counter(templates) == Counter(set(keys))
        assert len(built) == len(keys)
        assert (len(keys) < len(cells)) == (name != "eucliddiv")
        assert not bases.held
        for (tier, perm, part), cell in zip(cells, shared):
            fresh = fresh_cell_problem(req, perm, tier, part, pinned)
            assert (cell is None) == (fresh is None)
            if fresh is not None:
                assert cell.template == fresh.template
                assert emit_smtlib(list(cell.pcp)) == emit_smtlib(list(fresh.pcp))

    @pytest.mark.parametrize("name, tier", [
        ("fmi2", ShapeTier.FULL),  # one order: one shape for every partition
        ("eucliddiv", ShapeTier.FULL),
        ("fmi2", ShapeTier.UPPER),  # shapes that span orders and partitions
        ("intsqrt2", ShapeTier.UPPER),
    ])
    def test_partition_free_parts_are_built_once_per_shape(self, name, tier, monkeypatch):
        calls = Counter()

        def counting(fn):
            def counted(*args):
                calls[fn.__name__] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(pcpgen_module, "char_poly", counting(char_poly))
        monkeypatch.setattr(synth_module, "_nontriviality_clause", counting(_nontriviality_clause))
        req = benchmark_request(name, [tier])
        cells, keys = reference_keys(req, [tier])
        shapes = {(t, pins, positions) for t, _part, pins, positions in keys}
        assert any(b is not None for b in built_cells(req))
        assert calls == {"char_poly": len(shapes), "_nontriviality_clause": len(shapes)}
        assert len(shapes) < len(keys)
        assert (len(keys) < len(cells)) == (tier is ShapeTier.UPPER)

    @pytest.mark.parametrize("name, tiers, holds", [
        ("eucliddiv", [ShapeTier.UNIT_UPPER], False),  # each order pins differently
        ("square", [ShapeTier.UNIT_UPPER, ShapeTier.UPPER], True),
        ("square", [ShapeTier.FULL], True),  # one order, one shape over the partitions
        ("eucliddiv", [ShapeTier.FULL, ShapeTier.UNIT_UPPER], True),
    ])
    def test_a_search_holds_clause_families_only_while_a_later_cell_uses_them(
        self, name, tiers, holds, monkeypatch
    ):
        sizes, built = [], []

        def counting_base_clauses(tpl, products):
            built.append(tpl)
            return base_clauses(tpl, products)

        class RecordingBases(_SharedBases):
            def take(self, *cell):
                base = super().take(*cell)
                sizes.append(len(self.held))
                return base

        monkeypatch.setattr(synth_module, "_SharedBases", RecordingBases)
        monkeypatch.setattr(synth_module, "base_clauses", counting_base_clauses)
        unknown_runs(monkeypatch)
        req = benchmark_request(name, tiers)
        res = synthesize(req, cfg())
        assert res.status == "notfound"
        cells, keys = reference_keys(req, tiers)
        shapes = {(t, pins, positions) for t, _part, pins, positions in keys}
        assert len(sizes) == len(cells)
        assert (max(sizes) > 0) == holds == (len(shapes) < len(cells))
        assert len(built) == len(keys)
        assert sizes[-1] == 0

    def test_a_large_search_space_keeps_to_the_budget(self, monkeypatch):
        # size 9 has 9! orders per triangular tier: listing the cells or
        # counting their base keys up front would outlast the budget
        unknown_runs(monkeypatch)
        req = request_for("a == b^2", ["a", "b"], size=9, timeout=1.0)
        begin = time.monotonic()
        assert synthesize(req, cfg()).status == "timeout"
        assert time.monotonic() - begin < 2.0


def reference_keys(req, tiers):
    """The request's cells in search order, and the number of cells of
    each reference key, taken from the request rather than the template:
    tier, partition, pins by position, parameter positions."""
    vars, pinned, _aux = _effective_vars(req)
    cells = list(_cells(vars, tiers, int_partitions(len(vars))))
    keys = Counter(
        (tier, part, tuple(pinned.get(v.name) for v in perm),
         tuple(perm.index(v) for _, v in req.params))
        for tier, perm, part in cells
    )
    return cells, keys


def fresh_cell_problem(req, perm, tier, part, pinned):
    """The cell's problem built from nothing that another cell shares:
    its own template, clause families and nontriviality clause."""
    tpl = build_template(perm, tier, part, pinned, [(p, perm.index(v)) for p, v in req.params])
    try:
        bundle = build_pcp(tpl, req.invariants)
    except DegenerateInvariantError:
        return None
    nontrivial = _nontriviality_clause(tpl)
    if nontrivial is None:
        return None
    bundle.pcp.add(nontrivial)
    return bundle


def _cell_text_digest(req):
    """SHA-256 over the SMT-LIB script of every search cell of the
    request, in search order, each declaring the bundle's symbols as its
    solver run does."""
    digest = hashlib.sha256()
    for bundle in built_cells(req):
        if bundle is None:
            digest.update(b"none\n")
            continue
        digest.update(emit_smtlib(list(bundle.pcp), bundle.variables).encode())
    return digest.hexdigest()


class TestKeySymbols:
    @pytest.mark.parametrize("tier", list(ShapeTier), ids=lambda t: t.value)
    def test_every_cell_has_its_keys_symbols(self, tier):
        """Each built cell of every corpus spec has exactly the symbols of
        its key's base clauses, which its solver runs declare, and keeps
        them once a blocking clause on every matrix and initial-value
        symbol is added."""
        for spec in sorted(BENCHMARKS.glob("*.spec")):
            for bundle in filter(None, built_cells(benchmark_request(spec.stem, [tier]))):
                assert variables_of(bundle.pcp) == bundle.variables
                tpl = bundle.template
                model = {v: Fraction(1) for v in tpl.b.variables() | tpl.a_matrix.variables()}
                bundle.pcp.add(_blocking_clause(tpl, model))
                assert variables_of(bundle.pcp) == bundle.variables


class TestClauseTextIdentity:
    # The scripts are those of the comparison-function (cmp_to_key)
    # monomial order that the precomputed sort key replaced; the digests
    # were taken again over the scripts alone when the structured
    # constraints left the cell's bundle, and again when the initial-value
    # family kept only n = 0: each cell's script was checked to be the
    # former one without exactly its n > 0 initial-value asserts.  Any
    # change to term order, clause order or coefficients changes them.
    # intcbrt, the cells with the most relation terms and the only
    # parameter of degree 3, was recorded before the relation family came
    # to split its terms by parameter as it builds them.
    FULL_TIER_DIGESTS = {
        "fmi2": "beacf5ae4b588b31acc0db68a5fd7e1d53b79d738a9935179c8eb3041e270713",
        "eucliddiv": "a153b9624c4f00e84fd15952e9c22216cc22ca0154f25ad6d979595c0f64c629",
        "intcbrt": "ae7c110303bfb8de267b57f3e278626827337ef711cb25118a751b34764d5ade",
    }

    @pytest.mark.parametrize("name", sorted(FULL_TIER_DIGESTS))
    def test_full_tier_cells_emit_the_recorded_text(self, name):
        req = benchmark_request(name, [ShapeTier.FULL])
        assert _cell_text_digest(req) == self.FULL_TIER_DIGESTS[name]

    # The upper-triangular tier, where one shape (pins and parameter
    # positions) spans several orders and every partition, recorded before
    # the partitions of a shape came to share its partition-free parts.
    UPPER_TIER_DIGESTS = {
        "fmi2": "0bc6a54587c9fa2b674796ddb5f2c9938f8c43c19b67c4f3842d96e947e5b2c2",
        "eucliddiv": "f467f4da91beddf8872948b0fe04bf3f7d07af7a40fa833cfb2ebe738e50d0dd",
        "intsqrt2": "126a9dd5229ac965964fc511b06786518574733558db86194b5d33dc230439b0",
    }

    @pytest.mark.parametrize("name", sorted(UPPER_TIER_DIGESTS))
    def test_upper_tier_cells_emit_the_recorded_text(self, name):
        req = benchmark_request(name, [ShapeTier.UPPER])
        assert _cell_text_digest(req) == self.UPPER_TIER_DIGESTS[name]

    # The unit-upper-triangular tier of the sweep-un instances, recorded
    # before the clause text came to be joined from memoized factor and
    # coefficient texts.
    UNIT_UPPER_TIER_DIGESTS = {
        "square": "b422aeed098a0ce74a5e9fc91e5a075c9afcc3500b263ab2a1e56f7765281f66",
        "fmi1": "2ab71d2319e94e5272faccd5ad08839f6c415c7d2573fca28becd802289cae92",
        "fmi2": "767b4756a4f141c92c0a991fc87fec4c8aa586f0d49e95cf6cff0f32c1261200",
    }

    @pytest.mark.parametrize("name", sorted(UNIT_UPPER_TIER_DIGESTS))
    def test_unit_upper_tier_cells_emit_the_recorded_text(self, name):
        req = benchmark_request(name, [ShapeTier.UNIT_UPPER])
        assert _cell_text_digest(req) == self.UNIT_UPPER_TIER_DIGESTS[name]


def recorded_digests():
    """The recorded cell-text digests, by tier."""
    return {
        ShapeTier.FULL: TestClauseTextIdentity.FULL_TIER_DIGESTS,
        ShapeTier.UPPER: TestClauseTextIdentity.UPPER_TIER_DIGESTS,
        ShapeTier.UNIT_UPPER: TestClauseTextIdentity.UNIT_UPPER_TIER_DIGESTS,
    }


class TestOutOfOrderNamesText:
    """The cell scripts of specs whose names push generated names out of
    their usual order (`test_pcpgen.OUT_OF_ORDER_SPECS`), in every tier,
    recorded before the relation clauses came to be built on packed
    exponent keys."""

    DIGESTS = {
        ("root-first", "un"): "fc00b470ad0966d25f03c97702f9256dc3d3c1bbe0208fb952b4e44e7267dfce",
        ("root-first", "up"): "74a3694414b7307190a8678130de6756e624507e8822243478cde57dd503eda7",
        ("root-first", "fu"): "90131739f7d1de4b2e032808f0b3068622de759e421632177868e9fa40c3a3ab",
        ("coefficient-named", "un"): "e54d3809e569f69fcb42bd02df89d6b885762bdb3b54d92db98c74f078f0b083",
        ("coefficient-named", "up"): "9d7b2f15d9d2e9648c80a2ba966465c52f3707d2fe28f0b885cdedafd8f79ad1",
        ("coefficient-named", "fu"): "466b0ee7873c99276f9605a25569e4bff08a1f57b51a14de222430b20a7acf55",
    }

    @pytest.mark.parametrize("name, tier", sorted(DIGESTS))
    def test_cells_emit_the_recorded_text(self, name, tier):
        req = SynthRequest.from_spec(parse_spec(OUT_OF_ORDER_SPECS[name]))
        req.tiers = [ShapeTier(tier)]
        assert _cell_text_digest(req) == self.DIGESTS[(name, tier)]


class TestRecordedSearchResults:
    """The first loop the built-in backend finds for each benchmark spec,
    recorded before the closed forms became polynomials in stand-in
    symbols.  Any change to the search order, the clause text or the
    solver's choices shows here.  sum_of_square is left out: no cell
    decides within its budget (see ROADMAP item 1).  intsqrt1's loop was
    recorded again when the initial-value family kept only n = 0: on the
    smaller problem the solver picks another model of the same cell."""

    RESULTS = {
        "add1": ("un", (4,), ("a", "b", "c", "t1"), """\
a, b, c, t1 = 1, 0, 1, 0
while true
  a = a + c
  b = b + c
  c = c
  t1 = t1
end
"""),
        "add2": ("un", (4,), ("a", "b", "c", "t1"), """\
a, b, c, t1 = 3/2, 0, 1, 0
while true
  a = a + 1/2*c
  b = b + c
  c = c
  t1 = t1
end
"""),
        "cube_conj": ("un", (4,), ("b", "c", "d", "a"), """\
b, c, d, a = -1/2, 1, 0, 1
while true
  b = b + 1/2*a
  c = c - 2*d - a
  d = d + a
  a = a
end
"""),
        "cube_square": ("un", (3,), ("a", "b", "c"), """\
a, b, c = 1, 0, 1
while true
  a = a + 2*b + c
  b = b + c
  c = c
end
"""),
        "cubes": ("un", (5,), ("c", "k", "m", "n", "t1"), """\
c, k, m, n = 0, 1, 6, 0
while true
  c = c + k
  k = k + m
  m = m + 6
  n = n + 1
end
"""),
        "dblsquare": ("un", (3,), ("x", "y", "t1"), """\
x, y = 0, 0
while true
  x = x + 4*y + 2
  y = y + 1
end
"""),
        "double1": ("un", (3,), ("x", "y", "t1"), """\
x, y = 2, 1
while true
  x = x + 2
  y = y + 1
end
"""),
        "double2": ("un", (3,), ("x", "y", "t1"), """\
x, y = 0, 0
while true
  x = x + 2
  y = y + 1
end
"""),
        "eucliddiv": ("un", (4,), ("r", "q", "y", "one"), """\
r, q, y = x0, 0, y0
while true
  r = r
  q = q
  y = y + 1
end
"""),
        "fmi1": ("un", (3,), ("y", "x", "t1"), """\
y, x = 0, 0
while true
  y = y + 3*x
  x = x + 1
end
"""),
        "fmi2": ("un", (4,), ("z", "x", "y", "t1"), """\
z, x, y = 0, 0, 0
while true
  z = z + 2
  x = x + 2*y + 1
  y = y + 1
end
"""),
        "fmi3": ("un", (4,), ("y", "x", "z", "t1"), """\
y, x, z = 0, -2, 0
while true
  y = y + 6*x + 12
  x = x + 2
  z = z + 1
end
"""),
        "fmi4": ("un", (3,), ("x", "y", "t1"), """\
x, y = 0, 0
while true
  x = x + 4*y + 2
  y = y + 1
end
"""),
        "fmi5": ("un", (3,), ("y", "x", "t1"), """\
y, x = 0, 0
while true
  y = y - 10*x - 5
  x = x + 1
end
"""),
        "intcbrt": ("un", (4,), ("x", "s", "r", "t1"), """\
x, s, r = a0, 13/4, 1
while true
  x = x - s
  s = s + 6*r + 3
  r = r + 1
end
"""),
        "intsqrt1": ("un", (4,), ("a", "y", "r", "t1"), """\
a, y, r, t1 = a0, 1, a0 - 1, 0
while true
  a = a + y
  y = y
  r = r
  t1 = t1
end
"""),
        "intsqrt2": ("un", (4,), ("a", "y", "r", "t1"), """\
a, y, r, t1 = a0, 1/2*a0, 0, 0
while true
  a = a + y
  y = y
  r = r
  t1 = t1
end
"""),
        "petter1": ("un", (3,), ("x", "t1", "y"), """\
x, t1, y = 0, 0, 1
while true
  x = x
  t1 = t1 + y
  y = y
end
"""),
        "square": ("un", (3,), ("a", "b", "t1"), """\
a, b = 0, 0
while true
  a = a + 2*b + 1
  b = b + 1
end
"""),
        "square_conj": ("up", (2, 1), ("a", "b", "c"), """\
a, b, c = 1, -2/3, 1
while true
  a = a - 3*b - 4*c
  b = -b - 8/3*c
  c = c
end
"""),
        "squared_varied1": ("un", (3,), ("c", "b", "a"), """\
c, b, a = 5/2, 0, 1
while true
  c = c + b
  b = b + a
  a = a
end
"""),
        "squared_varied2": ("un", (3,), ("a", "b", "c"), """\
a, b, c = 3/2, 0, 3
while true
  a = a + 3/2*c
  b = b + c
  c = c
end
"""),
        "sum1": ("un", (4,), ("a", "b", "c", "t1"), """\
a, b, c = -1/2, 1/4, 0
while true
  a = a + 1/2
  b = b + 1/2*c - 1/4
  c = c + 1
end
"""),
        "sum2": ("un", (4,), ("a", "b", "t1", "t2"), """\
a, b, t1 = 0, 0, 0
while true
  a = a
  b = b
  t1 = t1 + 1
end
"""),
    }

    @pytest.mark.parametrize("name", sorted(RESULTS))
    def test_builtin_search_finds_the_recorded_loop(self, name):
        request = SynthRequest.from_spec(parse_spec((BENCHMARKS / f"{name}.spec").read_text()))
        result = synthesize(request, SolverConfig(("builtin",)))
        assert result.status == "found"
        loop = result.loops[0]
        tier, partition, permutation, text = self.RESULTS[name]
        assert (loop.tier, loop.partition, loop.permutation) == (tier, partition, permutation)
        assert loop.render() == text
