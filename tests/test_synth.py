import hashlib
import itertools
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from loopsynth import synth as synth_module
from loopsynth.parser import parse_invariant, parse_loop, parse_spec
from loopsynth.pcpgen import base_clauses
from loopsynth.poly import Polynomial, Var
from loopsynth.smt import SolverConfig, emit_smtlib
from loopsynth.synth import (
    Loop,
    RequestError,
    SynthRequest,
    _SharedBases,
    _base_key,
    _cell_problem,
    _cells,
    _effective_vars,
    first_cell_script,
    synthesize,
)
from loopsynth.template import ShapeTier, int_partitions
from loopsynth.verify import check_invariant


def make_vars(*names):
    return [Var(n, "program", i) for i, n in enumerate(names)]


def request_for(text, names, **kw):
    vars = make_vars(*names)
    syms = {v.name: v for v in vars}
    return SynthRequest(invariants=parse_invariant(text, syms), vars=vars, **kw)


def cfg():
    return SolverConfig.default()


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

    def test_budget_exhaustion_reports_timeout(self):
        req = request_for("x == 2y", ["x", "y"], size=3, timeout=0.0)
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
        assert res.note == "some search cells were undecided by the solver"


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
        (("p", "p"), "parameter 'p' is declared twice"),
        (("p", "q"), "variable 'x' is named by two parameters"),
    ])
    def test_code_built_request_rejects_duplicate_parameter_bindings(self, names, message):
        # the checks parse_spec makes on a spec's params, for a request built in code
        x, y = make_vars("x", "y")
        p, q = (Var(n, "param") for n in names)
        second = y if names[0] == names[1] else x
        req = SynthRequest(
            invariants=[Polynomial.var(x) - Polynomial.var(p)], vars=[x, y],
            params=[(p, x), (q, second)], timeout=60.0,
        )
        with pytest.raises(RequestError, match=message):
            synthesize(req, cfg())
        with pytest.raises(RequestError, match=message):
            first_cell_script(req)

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

        monkeypatch.setattr(synth_module, "solve_structured", no_solver)
        req = request_for(
            "x == 2y", ["x", "y"], size=3,
            tiers=[ShapeTier.UNIT_UPPER], partitions=[(2, 1)], timeout=60.0,
        )
        res = synthesize(req, cfg())
        assert res.status == "notfound" and res.note == ""
        with pytest.raises(RequestError):
            first_cell_script(req)

    def test_emitted_script_is_the_first_cell_the_search_solves(self, monkeypatch):
        solved = []

        def record(hard, cfcs, full, cfg, deadline):
            solved.append(emit_smtlib(list(full), full.variables()))
            return SimpleNamespace(status="unknown")

        monkeypatch.setattr(synth_module, "solve_structured", record)
        # every unit-upper cell is pruned, so both paths must skip that tier
        req = request_for("x == 2y", ["x", "y"], size=3, partitions=[(2, 1)])
        assert synthesize(req, cfg()).status == "notfound"
        assert solved and solved[0] == first_cell_script(req)
        assert "b21" not in solved[0]  # an upper-triangular cell, not a full one

    @pytest.mark.parametrize("name, tiers", [
        ("square", [ShapeTier.UNIT_UPPER, ShapeTier.UPPER]),
        ("fmi2", [ShapeTier.UNIT_UPPER, ShapeTier.UPPER]),
        ("eucliddiv", [ShapeTier.UNIT_UPPER]),  # parameters and the aux-one pin
    ])
    def test_shared_clause_families_match_a_fresh_build(self, name, tiers, monkeypatch):
        built = []

        def counting_base_clauses(tpl):
            built.append(tpl)
            return base_clauses(tpl)

        monkeypatch.setattr(synth_module, "base_clauses", counting_base_clauses)
        req = benchmark_request(name, tiers)
        vars, pinned, _aux = _effective_vars(req)
        cells = list(_cells(vars, tiers, int_partitions(len(vars))))
        keys = [_base_key(req, perm, tier, part, pinned) for tier, perm, part in cells]
        bases = _SharedBases(keys)
        for tier, perm, part in cells:
            shared = _cell_problem(req, perm, tier, part, pinned, bases)
            fresh = _cell_problem(req, perm, tier, part, pinned)
            assert (shared is None) == (fresh is None)
            if fresh is not None:
                assert [str(c) for c in shared.pcp] == [str(c) for c in fresh.pcp]
                assert [str(c) for c in shared.hard] == [str(c) for c in fresh.hard]
        # one build per shared key, and nothing held once the search is over
        assert len(built) == sum(1 for n in Counter(keys).values() if n > 1) < len(cells)
        assert bool(built) == (name != "eucliddiv")
        assert not bases.held

    @pytest.mark.parametrize("name, tiers, holds", [
        ("eucliddiv", [ShapeTier.UNIT_UPPER], False),  # each order pins differently
        ("square", [ShapeTier.UNIT_UPPER, ShapeTier.UPPER], True),
    ])
    def test_a_search_holds_clause_families_only_while_a_later_cell_uses_them(
        self, name, tiers, holds, monkeypatch
    ):
        sizes = []

        class RecordingBases(_SharedBases):
            def take(self, key, tpl):
                base = super().take(key, tpl)
                sizes.append(len(self.held))
                return base

        monkeypatch.setattr(synth_module, "_SharedBases", RecordingBases)
        monkeypatch.setattr(
            synth_module, "solve_structured",
            lambda *args, **kwargs: SimpleNamespace(status="unknown"),
        )
        req = benchmark_request(name, tiers)
        res = synthesize(req, cfg())
        assert res.status == "notfound"
        vars, _pinned, _aux = _effective_vars(req)
        assert len(sizes) == len(list(_cells(vars, tiers, int_partitions(len(vars)))))
        assert (max(sizes) > 0) == holds
        assert sizes[-1] == 0


def _cell_text_digest(req):
    """SHA-256 over the SMT-LIB script and the structured constraints of
    every search cell of the request, in search order."""
    vars, pinned, _aux = _effective_vars(req)
    digest = hashlib.sha256()
    for tier, perm, part in _cells(vars, req.tiers, int_partitions(len(vars))):
        bundle = _cell_problem(req, perm, tier, part, pinned)
        if bundle is None:
            digest.update(b"none\n")
            continue
        digest.update(emit_smtlib(list(bundle.pcp), bundle.pcp.variables()).encode())
        for cfc in bundle.cfcs:
            for w, u in cfc.terms:
                digest.update(f"{Polynomial({w: 1})} : {u}\n".encode())
            digest.update(b";\n")
    return digest.hexdigest()


class TestClauseTextIdentity:
    # Recorded with the comparison-function (cmp_to_key) monomial order that
    # the precomputed sort key replaced; any change to term order, clause
    # order or coefficients changes them.
    FULL_TIER_DIGESTS = {
        "fmi2": "3e4acbad2a1d90f3c6eec3650ea0f0394013af08ba8250bd4548796f8b113442",
        "eucliddiv": "3a72f28f13868c25671a6e33661159c2c5d37b6524c20613b14a4aa215cceacc",
    }

    @pytest.mark.parametrize("name", sorted(FULL_TIER_DIGESTS))
    def test_full_tier_cells_emit_the_recorded_text(self, name):
        req = benchmark_request(name, [ShapeTier.FULL])
        assert _cell_text_digest(req) == self.FULL_TIER_DIGESTS[name]


class TestRecordedSearchResults:
    """The first loop the built-in backend finds for each benchmark spec,
    recorded before the closed forms became polynomials in stand-in
    symbols.  Any change to the search order, the clause text or the
    solver's choices shows here.  sum_of_square is left out: no cell
    decides within its budget (see ROADMAP item 1)."""

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
a, y, r, t1 = a0, 0, a0, a0
while true
  a = a + t1
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
