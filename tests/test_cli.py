import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from loopsynth.cli import EXIT_INPUT, EXIT_NEGATIVE, EXIT_OK, EXIT_SOLVER, EXIT_TIMEOUT, main


DOUBLE_SPEC = "vars x y\ninvariant x == 2y\nsize 3\ntier un\n"

SQUARE_LOOP = (
    "a, b = 0, 0\n"
    "while true\n"
    "  a = a + 2b + 1\n"
    "  b = b + 1\n"
    "end\n"
)

SUM_LINEAR_LOOP = "x, y, z = 0, 0, 0\nwhile true\n  x = x + 1\n  y = y + 2\n  z = z + 3\nend\n"
SUM_SCALED_LOOP = "a, b, c = 0, 0, 0\nwhile true\n  a = a + 2\n  b = b + 4\n  c = c + 6\nend\n"
SUM_BROKEN_LOOP = "a, b, c = 0, 0, 0\nwhile true\n  a = a + 1\n  b = b + 2\n  c = c + 4\nend\n"
TWO_STEP_LOOP = "a, x = 0, 0\nwhile true\n  a = a + 1\n  x = x + 2\nend\n"  # has a hidden constant one


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def solver_script(tmp_path, action):
    """An executable stand-in solver that runs the shell line `action`,
    then answers unknown."""
    path = tmp_path / "solver.sh"
    path.write_text(f"#!/bin/sh\ncat >/dev/null\n{action}\necho unknown\n")
    path.chmod(0o755)
    return str(path)


class TestSynthCommand:
    def test_finds_and_prints_loop(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC + "# partition fixed for speed\n")
        res = runner.invoke(main, ["synth", spec, "--partition", "3", "--timeout", "60"])
        assert res.exit_code == EXIT_OK, res.output
        assert "verified=yes" in res.output and "while true" in res.output

    def test_json_output(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["synth", spec, "--partition", "3", "--json", "--timeout", "60"])
        assert res.exit_code == EXIT_OK, res.output
        payload = json.loads(res.output)
        assert payload["status"] == "found"
        (loop,) = payload["loops"]
        assert loop["verified"] is True and loop["tier"] == "un"

    def test_emit_smt2(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC)
        out = tmp_path / "cell.smt2"
        res = runner.invoke(
            main,
            ["synth", spec, "--partition", "3", "--emit-smt2", str(out), "--timeout", "60"],
        )
        assert res.exit_code == EXIT_OK, res.output
        script = out.read_text()
        assert script.startswith("(set-logic QF_NRA)") and "(check-sat)" in script

    def test_unsatisfiable_spec_is_negative(self, runner, tmp_path):
        spec = write(tmp_path, "bad.spec", "vars x\ninvariant x == x + 1\n")
        res = runner.invoke(main, ["synth", spec, "--timeout", "30"])
        assert res.exit_code == EXIT_NEGATIVE
        assert "notfound" in res.output

    def test_malformed_spec_is_input_error(self, runner, tmp_path):
        spec = write(tmp_path, "bad.spec", "vars x\ninvariant x ==\n")
        res = runner.invoke(main, ["synth", spec])
        assert res.exit_code == EXIT_INPUT

    def test_bad_partition_flag(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["synth", spec, "--partition", "zebra"])
        assert res.exit_code != EXIT_OK

    @pytest.mark.parametrize("tier", ["un", "auto"])
    def test_tier_flag(self, runner, tmp_path, tier):
        spec = write(tmp_path, "d.spec", "vars x y\ninvariant x == 2y\nsize 3\ntier fu\n")
        res = runner.invoke(main, ["synth", spec, "--partition", "3", "--tier", tier,
                                   "--solver", "builtin"])
        assert res.exit_code == EXIT_OK, res.output
        assert res.output.startswith("# tier=un ")

    def test_size_flag_pads_with_auxiliary_variables(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", "vars x y\ninvariant x == 2y\ntier un\n")
        res = runner.invoke(main, ["synth", spec, "--size", "3", "--partition", "3",
                                   "--solver", "builtin"])
        assert res.exit_code == EXIT_OK, res.output
        assert " order=" in res.output and ",t1 " in res.output.splitlines()[0]

    def test_text_output_separates_loops_with_a_blank_line(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["synth", spec, "--partition", "3", "--count", "2",
                                   "--solver", "builtin", "--timeout", "90"])
        assert res.exit_code == EXIT_OK, res.output
        first, second = res.output.split("\n\n")
        assert first.startswith("# tier=un ") and second.startswith("# tier=un ")
        assert first.rstrip().endswith("end") and second.rstrip().endswith("end")

    @pytest.mark.parametrize("where", ["flag", "spec"])
    def test_unbounded_timeout_with_an_external_solver(self, runner, tmp_path, where):
        # an infinite budget is accepted, as on the built-in backend, and
        # the solver is waited on for as long as the system allows
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC + ("timeout inf\n" if where == "spec" else ""))
        flag = ["--timeout", "inf"] if where == "flag" else []
        res = runner.invoke(main, ["synth", spec, "--solver", "sh -c 'cat >/dev/null; echo unknown'"] + flag)
        assert res.exit_code == EXIT_NEGATIVE, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("notfound")

    def test_json_error_object(self, runner, tmp_path):
        spec = write(tmp_path, "bad.spec", "vars x\ninvariant x ==\n")
        res = runner.invoke(main, ["synth", spec, "--json"])
        assert res.exit_code == EXIT_INPUT
        payload = json.loads(res.output)
        assert payload["status"] == "error" and payload["code"] == EXIT_INPUT
        assert payload["message"]


class TestInputErrors:
    TOO_SMALL_SPEC = "vars x y\ninvariant x == 2y\nsize 1\n"
    BAD_SPECS = {
        "zero_denominator": ("vars x y\ninvariant x == 2y\ninit y=1/0\n",
                             "error: line 3: bad number '1/0'\n"),
        "pinned_param": ("vars x y\nparams x0=x\ninvariant x == 2y + x0\ninit x=1\n",
                         "error: variable 'x' is both pinned and parameterized\n"),
        "bad_size": ("vars x y\ninvariant x == 2y\nsize abc\n",
                     "error: line 3: bad number 'abc'\n"),
        "param_names_a_variable_twice": ("vars x y\nparams p=x q=x\ninvariant x == p\n",
                                         "error: variable 'x' is named by two parameters\n"),
        "param_declared_twice": ("vars x y\nparams p=x\nparams p=y\ninvariant x == p\n",
                                 "error: parameter 'p' is declared twice\n"),
        "param_collides_with_a_variable": ("vars x y\nparams y=x\ninvariant x == 2y\n",
                                           "error: parameter 'y' collides with a variable\n"),
        "zero_timeout": ("vars x y\ninvariant x == 2y\ntimeout 0\n",
                         "error: line 3: timeout must be positive, found '0'\n"),
        "negative_timeout": ("vars x y\ninvariant x == 2y\ntimeout -1\n",
                             "error: line 3: timeout must be positive, found '-1'\n"),
        "bad_invariant_identifier": ("vars a b\n\ninvariant a == bq\n",
                                     "error: line 3: unknown identifier 'bq' (at position 5)\n"),
    }

    @pytest.mark.parametrize("name", sorted(BAD_SPECS))
    def test_synth_bad_spec_value(self, runner, tmp_path, name):
        text, message = self.BAD_SPECS[name]
        spec = write(tmp_path, f"{name}.spec", text)
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == message

    def test_bench_records_bad_spec_values_and_carries_on(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        for name, (text, _message) in self.BAD_SPECS.items():
            write(tmp_path, f"{name}.spec", text)
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin"])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        for name, (_text, message) in self.BAD_SPECS.items():
            assert rows[name]["status"] == "parse-error", rows[name]
            assert rows[name]["note"] == message.removeprefix("error: ").rstrip("\n")
        assert rows["double"]["status"] == "found"

    @pytest.mark.parametrize("command", ["synth", "bench"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_nonpositive_timeout_flag_is_a_usage_error(self, runner, tmp_path, command, value):
        spec = write(tmp_path, "double.spec", DOUBLE_SPEC)
        target = spec if command == "synth" else str(tmp_path)
        res = runner.invoke(main, [command, target, "--solver", "builtin", "--timeout", value])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "Invalid value for '--timeout'" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_count_below_one_is_a_usage_error(self, runner, tmp_path, value):
        spec = write(tmp_path, "double.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin", "--count", value])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "Invalid value for '--count'" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_jobs_below_one_is_a_usage_error(self, runner, tmp_path, value):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin", "--jobs", value])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "Usage: " in res.output and "Invalid value for '--jobs'" in res.output
        assert "Traceback" not in res.output

    def test_unwritable_emit_smt2_path(self, runner, tmp_path):
        spec = write(tmp_path, "double.spec", DOUBLE_SPEC)
        out = tmp_path / "missing" / "x.smt2"
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin", "--emit-smt2", str(out)])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ") and str(out) in res.output
        assert "Traceback" not in res.output

    def test_unwritable_csv_path(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        out = tmp_path / "missing" / "out.csv"
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin", "--csv", str(out)])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith("error: ") and str(out) in res.output
        assert "Traceback" not in res.output

    def test_unwritable_csv_path_fails_before_any_spec_runs(self, runner, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        write(specs, "double.spec", DOUBLE_SPEC)
        marker = tmp_path / "solver-ran"
        solver = solver_script(tmp_path, f"touch '{marker}'")
        out = tmp_path / "missing" / "out.csv"
        res = runner.invoke(main, ["bench", str(specs), "--solver", solver, "--csv", str(out)])
        assert res.exit_code == EXIT_INPUT, res.output
        assert res.output.startswith("error: ") and str(out) in res.output
        assert not marker.exists()

    def test_existing_csv_is_kept_until_the_rows_are_written(self, runner, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        write(specs, "double.spec", DOUBLE_SPEC)
        out = tmp_path / "out.csv"
        out.write_text("earlier rows\n")
        seen = tmp_path / "seen.csv"
        solver = solver_script(tmp_path, f"cp '{out}' '{seen}'")
        res = runner.invoke(main, ["bench", str(specs), "--solver", solver, "--csv", str(out)])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        assert seen.read_text() == "earlier rows\n"
        assert next(csv.DictReader(io.StringIO(out.read_text())))["instance"] == "double"

    def test_solver_that_cannot_be_executed(self, runner, tmp_path):
        spec = write(tmp_path, "double.spec", DOUBLE_SPEC)
        solver = write(tmp_path, "not-a-program.txt", "plain text\n")
        res = runner.invoke(main, ["synth", spec, "--solver", solver])
        assert res.exit_code == EXIT_SOLVER, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output.startswith(f"error: cannot run solver '{solver}'")
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("where", ["flag", "environment"])
    @pytest.mark.parametrize("command, message", [
        (" ", "error: bad solver command ' ': it names no program\n"),
        ('z3 "', "error: bad solver command 'z3 \"': No closing quotation\n"),
    ], ids=["blank", "unclosed-quote"])
    def test_malformed_solver_command_is_an_input_error(
        self, runner, tmp_path, command, message, where
    ):
        # bench refuses it once, before any row
        spec = write(tmp_path, "double.spec", DOUBLE_SPEC)
        flag = ["--solver", command] if where == "flag" else []
        env = {"LOOPSYNTH_SOLVER": command if where == "environment" else "builtin"}
        for args in (["synth", spec], ["bench", str(tmp_path)]):
            res = runner.invoke(main, args + flag, env=env)
            assert res.exit_code == EXIT_INPUT, res.output
            assert isinstance(res.exception, SystemExit)
            assert res.output == message

    def test_synth_size_below_variable_count(self, runner, tmp_path):
        spec = write(tmp_path, "small.spec", self.TOO_SMALL_SPEC)
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == "error: size 1 is below the variable count 2\n"

    def test_bench_records_input_error_and_carries_on(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        write(tmp_path, "small.spec", self.TOO_SMALL_SPEC)
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin"])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        assert rows["small"]["status"] == "input-error"
        assert "below the variable count" in rows["small"]["note"]
        assert rows["double"]["status"] == "found"

    # 400 nested parentheses pass Python's recursion limit in the parser;
    # splitting the unknown 40-letter identifier used to try every split
    DEEP_SPECS = {
        "deep": "vars a b\ninvariant " + "(" * 400 + "a" + ")" * 400 + " == b\n",
        "split": "vars a aa\ninvariant " + "a" * 40 + "b == aa\n",
    }

    @pytest.mark.parametrize("name", sorted(DEEP_SPECS))
    def test_synth_refuses_pathological_expressions_quickly(self, runner, tmp_path, name):
        spec = write(tmp_path, f"{name}.spec", self.DEEP_SPECS[name])
        start = time.monotonic()
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin"])
        assert time.monotonic() - start < 1.0
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert len(res.output.splitlines()) == 1 and res.output.startswith("error: ")

    def test_verify_refuses_a_deeply_nested_invariant(self, runner, tmp_path):
        loop = write(tmp_path, "sq.loop", SQUARE_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "(" * 400 + "a" + ")" * 400 + " == b"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert isinstance(res.exception, SystemExit)
        assert res.output == "error: expression nested too deeply\n"

    def test_bench_records_pathological_expressions_and_carries_on(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        for name, text in self.DEEP_SPECS.items():
            write(tmp_path, f"{name}.spec", text)
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin"])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        for name in self.DEEP_SPECS:
            assert rows[name]["status"] == "parse-error", rows[name]
        assert rows["double"]["status"] == "found"

    def test_python_dash_m_entry_point(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        res = subprocess.run([sys.executable, "-m", "loopsynth", "--help"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 0, res.stderr
        assert "Usage: loopsynth" in res.stdout


class TestBackendReporting:
    def test_synth_names_the_backend(self, runner, tmp_path):
        spec = write(tmp_path, "d.spec", DOUBLE_SPEC)
        args = ["synth", spec, "--partition", "3", "--solver", "builtin"]
        res = runner.invoke(main, args)
        assert res.exit_code == EXIT_OK, res.output
        assert res.output.splitlines()[0].endswith(" backend=builtin")
        res = runner.invoke(main, args + ["--json"])
        assert json.loads(res.output)["backend"] == "builtin"

    def test_default_backend_starts_no_process(self, runner, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError(f"process started: {args}")

        monkeypatch.setattr(subprocess, "run", no_process)
        monkeypatch.setattr(subprocess, "Popen", no_process)
        monkeypatch.delenv("LOOPSYNTH_SOLVER", raising=False)
        spec = Path(__file__).resolve().parent.parent / "benchmarks" / "square.spec"
        res = runner.invoke(main, ["synth", str(spec)])
        assert res.exit_code == EXIT_OK, res.output
        assert res.output.splitlines()[0].endswith(" backend=builtin")

    def test_bench_rows_carry_backend_and_note(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        write(tmp_path, "broken.spec", "vars x\n")
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin"])
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        assert rows["double"]["backend"] == "builtin" and rows["double"]["note"] == ""
        assert rows["broken"]["status"] == "parse-error" and rows["broken"]["note"]


class TestVerifyCommand:
    def test_holds(self, runner, tmp_path):
        loop = write(tmp_path, "sq.loop", SQUARE_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "a == b^2"])
        assert res.exit_code == EXIT_OK
        assert "holds" in res.output

    def test_fails_with_witness_iteration(self, runner, tmp_path):
        loop = write(tmp_path, "sq.loop", SQUARE_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "a == b^3"])
        assert res.exit_code == EXIT_NEGATIVE
        assert "fails at iteration" in res.output

    def test_json_witness(self, runner, tmp_path):
        loop = write(tmp_path, "sq.loop", SQUARE_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "a == b^3", "--json"])
        payload = json.loads(res.output)
        assert payload["holds"] is False
        assert payload["witness"]["iteration"] >= 0

    def test_parse_error(self, runner, tmp_path):
        loop = write(tmp_path, "sq.loop", SQUARE_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "a == zz"])
        assert res.exit_code == EXIT_INPUT

    def test_a_variable_named_like_the_hidden_constant_one(self, runner, tmp_path):
        # the constant-one variable that absorbs `+ 1` and `+ 2` takes a
        # name no loop variable has, so the invariant reads the user's `_one`
        loop = write(tmp_path, "one.loop", "_one, x = 0, 0\nwhile true\n  _one = _one + 1\n  x = x + 2\nend\n")
        res = runner.invoke(main, ["verify", loop, "--invariant", "x == 2 _one"])
        assert res.exit_code == EXIT_OK, res.output
        assert "holds" in res.output

    def test_the_hidden_constant_one_is_not_an_invariant_name(self, runner, tmp_path):
        loop = write(tmp_path, "two.loop", TWO_STEP_LOOP)
        res = runner.invoke(main, ["verify", loop, "--invariant", "x == 2 a + _one - 1"])
        assert res.exit_code == EXIT_INPUT, res.output
        assert "unknown identifier '_one'" in res.output


class TestEquivCommand:
    def test_equivalent_modulo_renaming(self, runner, tmp_path):
        l1 = write(tmp_path, "lin.loop", SUM_LINEAR_LOOP)
        l2 = write(tmp_path, "scaled.loop", SUM_SCALED_LOOP)
        res = runner.invoke(
            main,
            ["equiv", l1, l2, "--invariant", "z == x + y", "--map", "x=a,y=b,z=c"],
        )
        assert res.exit_code == EXIT_OK
        assert "equivalent" in res.output

    def test_same_names_fill_in_by_default(self, runner, tmp_path):
        l1 = write(tmp_path, "a.loop", SUM_LINEAR_LOOP)
        l2 = write(tmp_path, "b.loop", SUM_LINEAR_LOOP)
        res = runner.invoke(main, ["equiv", l1, l2, "--invariant", "z == x + y"])
        assert res.exit_code == EXIT_OK

    def test_not_equivalent(self, runner, tmp_path):
        l1 = write(tmp_path, "lin.loop", SUM_LINEAR_LOOP)
        l2 = write(tmp_path, "broken.loop", SUM_BROKEN_LOOP)
        res = runner.invoke(
            main,
            ["equiv", l1, l2, "--invariant", "z == x + y", "--map", "x=a,y=b,z=c"],
        )
        assert res.exit_code == EXIT_NEGATIVE
        assert "not equivalent" in res.output

    def test_bad_mapping(self, runner, tmp_path):
        l1 = write(tmp_path, "lin.loop", SUM_LINEAR_LOOP)
        l2 = write(tmp_path, "scaled.loop", SUM_SCALED_LOOP)
        res = runner.invoke(
            main, ["equiv", l1, l2, "--invariant", "z == x + y", "--map", "x=zz"]
        )
        assert res.exit_code == EXIT_INPUT

    def test_the_hidden_constant_one_cannot_be_mapped(self, runner, tmp_path):
        l1 = write(tmp_path, "a.loop", TWO_STEP_LOOP)
        l2 = write(tmp_path, "b.loop", TWO_STEP_LOOP)
        res = runner.invoke(main, ["equiv", l1, l2, "--invariant", "x == 2 a", "--map", "_one=_one"])
        assert res.exit_code == EXIT_INPUT
        assert "bad mapping entry '_one=_one'" in res.output

    @pytest.mark.parametrize("args, message", [
        ([], "variable map does not cover: a, b"),
        (["--map", "a=x,b=x"], "variable map is not injective"),
    ], ids=["no-map", "not-injective"])
    def test_a_map_the_check_refuses_is_an_input_error(self, runner, tmp_path, args, message):
        l1 = write(tmp_path, "scaled.loop", SUM_SCALED_LOOP)
        l2 = write(tmp_path, "lin.loop", SUM_LINEAR_LOOP)
        res = runner.invoke(main, ["equiv", l1, l2, "--invariant", "b == 2a", *args])
        assert res.exit_code == EXIT_INPUT, res.output
        assert f"error: {message}" in res.output
        assert isinstance(res.exception, SystemExit)  # no traceback


class TestParseBudget:
    """Expanding (a+b+c+d)^40 takes seconds; the request's budget, which
    starts before its invariants are parsed, ends it as a timeout."""

    SPEC = "vars a b c d\ninvariant a == (a+b+c+d)^40\n"

    @pytest.mark.parametrize("where", ["spec", "flag"])
    def test_synth_times_out_while_parsing(self, runner, tmp_path, where):
        spec = write(tmp_path, "power.spec", self.SPEC + ("timeout 1\n" if where == "spec" else ""))
        flag = ["--timeout", "1"] if where == "flag" else []
        begin = time.monotonic()
        res = runner.invoke(main, ["synth", spec, "--solver", "builtin", "--json"] + flag)
        assert time.monotonic() - begin < 2
        assert res.exit_code == EXIT_TIMEOUT, res.output
        assert isinstance(res.exception, SystemExit)
        payload = json.loads(res.output)
        assert payload["status"] == "timeout" and 1000 <= payload["millis"] < 2000
        assert payload["note"] == "the budget ran out while the invariants were parsed"

    def test_bench_records_a_timeout_row(self, runner, tmp_path):
        write(tmp_path, "power.spec", self.SPEC)
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["bench", str(tmp_path), "--solver", "builtin", "--timeout", "1"])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        assert rows["power"]["status"] == "timeout" and 1000 <= int(rows["power"]["millis"]) < 2000
        assert rows["double"]["status"] == "found"


class TestBenchCommand:
    def test_directory_run_with_csv(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        write(tmp_path, "recon.spec", "vars x y\ninvariant x == y\nreconstructed\n")
        write(tmp_path, "broken.spec", "vars x\n")  # no invariant
        out = tmp_path / "results.csv"
        res = runner.invoke(
            main, ["bench", str(tmp_path), "--timeout", "60", "--csv", str(out)]
        )
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(out.read_text()))}
        assert rows["double"]["status"] == "found"
        assert rows["double"]["verified"] == "yes"
        assert rows["recon"]["status"] == "skipped"
        assert rows["broken"]["status"] == "parse-error"
        assert res.exit_code == EXIT_NEGATIVE  # the broken instance counts as bad

    def test_all_found_exits_zero(self, runner, tmp_path):
        write(tmp_path, "double.spec", DOUBLE_SPEC)
        res = runner.invoke(main, ["bench", str(tmp_path), "--timeout", "60", "--jobs", "2"])
        assert res.exit_code == EXIT_OK, res.output
        assert "found" in res.output

    def test_solver_error_is_one_row_and_the_run_goes_on(self, runner, tmp_path):
        specs = tmp_path / "specs"
        specs.mkdir()
        write(specs, "double.spec", DOUBLE_SPEC)
        write(specs, "broken.spec", "vars x\n")  # no invariant
        write(specs, "contradiction.spec", "vars x\ninvariant x == x + 1\n")  # no solver call
        solver = solver_script(tmp_path, "echo '(error \"boom\")'")
        res = runner.invoke(main, ["bench", str(specs), "--solver", solver])
        assert res.exit_code == EXIT_NEGATIVE, res.output
        rows = {r["instance"]: r for r in csv.DictReader(io.StringIO(res.output))}
        assert rows["double"]["status"] == "solver-error" and "boom" in rows["double"]["note"]
        assert rows["broken"]["status"] == "parse-error"
        assert rows["contradiction"]["status"] == "notfound"

    def test_empty_directory(self, runner, tmp_path):
        res = runner.invoke(main, ["bench", str(tmp_path)])
        assert res.exit_code == EXIT_INPUT
