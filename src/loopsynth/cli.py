"""Command-line interface.

Exit codes: 0 success (loop found / invariant holds), 1 negative answer
(nothing found / invariant fails), 2 input error, 3 solver failure,
4 timeout.
"""

from __future__ import annotations

import csv
import io
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click

from .parser import LoopFile, ParseError, ParseTimeout, parse_invariant, parse_loop, parse_spec
from .poly import Var
from .smt import SolverConfig, SolverConfigError, SolverError
from .synth import RequestError, SynthRequest, SynthResult, first_cell_script, synthesize
from .template import ShapeTier
from .verify import check_equiv_modulo, check_invariant

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_TIMEOUT = 4


@click.group()
def main():
    """Synthesize and verify affine loops with polynomial equality invariants."""


def _solver_option(f):
    return click.option(
        "--solver",
        default=None,
        help="'builtin' for the in-process exact search, 'z3-wasm' for the "
             "bundled node wrapper around z3, or an SMT-LIB 2 solver command "
             "line (default: $LOOPSYNTH_SOLVER, else builtin).",
    )(f)


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as e:
        raise click.ClickException(str(e)) from None


def _write(path: str, text: str, as_json: bool) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), as_json)) from None


def _seconds(ctx, param, value):
    if value is not None and not value > 0:  # NaN too: a deadline of start + nan never comes
        raise click.BadParameter(f"{value} is not a positive number of seconds")
    return value


def _parse_partition(text: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise click.UsageError(f"bad partition {text!r}; expected e.g. '2,1'")
    if not parts:
        raise click.UsageError("empty partition")
    return parts


@main.command()
@click.argument("specfile", type=click.Path(exists=True, dir_okay=False))
@_solver_option
@click.option("--timeout", type=float, default=None, callback=_seconds,
              help="Total budget in seconds, positive (default 60).")
@click.option("--tier", type=click.Choice(["un", "up", "fu", "auto"]), default=None)
@click.option("--partition", default=None, help="Fix the multiplicity partition, e.g. '2,1'.")
@click.option("--size", type=int, default=None, help="System size (pad with auxiliary variables).")
@click.option("--aux-one", is_flag=True, help="Add an auxiliary variable with initial value 1.")
@click.option("--count", type=click.IntRange(min=1), default=1, help="Emit up to N distinct loops.")
@click.option("--emit-smt2", type=click.Path(dir_okay=False), default=None,
              help="Write the first search cell's SMT-LIB script to this file.")
@click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
def synth(specfile, solver, timeout, tier, partition, size, aux_one, count, emit_smt2, as_json):
    """Synthesize loops satisfying the invariants in SPECFILE."""
    start = time.monotonic()
    try:
        request = SynthRequest.from_spec(parse_spec(_read(specfile)), timeout, start)
    except (ParseError, ValueError) as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), as_json))
    except ParseTimeout:
        request = None
    try:
        cfg = SolverConfig.default(solver)
    except SolverConfigError as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), as_json))
    if request is None:
        _emit_synth_result(_parse_timeout(start, cfg), as_json)
        raise SystemExit(EXIT_TIMEOUT)
    if tier:
        request.tiers = None if tier == "auto" else [ShapeTier.parse(tier)]
    if partition:
        request.partitions = [_parse_partition(partition)]
    if size is not None:
        request.size = size
    request.aux_one |= aux_one
    request.count = count
    try:
        if emit_smt2:
            _write(emit_smt2, first_cell_script(request), as_json)
        result = synthesize(request, cfg)
    except RequestError as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), as_json))
    except SolverError as e:
        raise SystemExit(_fail(EXIT_SOLVER, str(e), as_json))
    _emit_synth_result(result, as_json)
    if result.status == "found":
        raise SystemExit(EXIT_OK)
    raise SystemExit(EXIT_TIMEOUT if result.status == "timeout" else EXIT_NEGATIVE)


def _parse_timeout(start: float, cfg: SolverConfig) -> SynthResult:
    """The result of a request whose budget, started at `start`, ran out
    while its invariants were parsed."""
    return SynthResult("timeout", millis=int((time.monotonic() - start) * 1000), backend=cfg.backend,
                       note="the budget ran out while the invariants were parsed")


def _emit_synth_result(result: SynthResult, as_json: bool) -> None:
    if as_json:
        click.echo(json.dumps({
            "status": result.status,
            "backend": result.backend,
            "millis": result.millis,
            "note": result.note,
            "loops": [lp.to_json() for lp in result.loops],
        }, indent=2))
        return
    if result.status == "found":
        for i, lp in enumerate(result.loops):
            header = f"# tier={lp.tier} partition={','.join(map(str, lp.partition))} " \
                     f"order={','.join(lp.permutation)} millis={lp.millis} verified=yes " \
                     f"backend={result.backend}"
            if i:
                click.echo()
            click.echo(header)
            click.echo(lp.render(), nl=False)
    else:
        click.echo(f"{result.status} after {result.millis} ms (backend={result.backend}"
                   + (f"; {result.note})" if result.note else ")"))


def _fail(code: int, message: str, as_json: bool) -> int:
    if as_json:
        click.echo(json.dumps({"status": "error", "code": code, "message": message}))
    else:
        click.echo(f"error: {message}", err=True)
    return code


@main.command()
@click.argument("loopfile", type=click.Path(exists=True, dir_okay=False))
@click.option("--invariant", required=True, help="Conjunction of polynomial equations.")
@click.option("--json", "as_json", is_flag=True)
def verify(loopfile, invariant, as_json):
    """Decide exactly whether the loop in LOOPFILE maintains the invariant."""
    try:
        loop = parse_loop(_read(loopfile))
        polys = parse_invariant(invariant, loop.symbols())
    except (ParseError, ValueError) as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), as_json))
    verdicts = [check_invariant(loop.system, p) for p in polys]
    holds = all(v.holds for v in verdicts)
    if as_json:
        click.echo(json.dumps({
            "holds": holds,
            "bounds": [v.bound_used for v in verdicts],
            "witness": next(
                ({"iteration": v.witness[0], "value": str(v.witness[1])}
                 for v in verdicts if not v.holds), None),
        }, indent=2))
    elif holds:
        click.echo(f"holds (proved by unrolling to the order bound)")
    else:
        bad = next(v for v in verdicts if not v.holds)
        click.echo(f"fails at iteration {bad.witness[0]} (value {bad.witness[1]})")
    raise SystemExit(EXIT_OK if holds else EXIT_NEGATIVE)


@main.command()
@click.argument("loop1", type=click.Path(exists=True, dir_okay=False))
@click.argument("loop2", type=click.Path(exists=True, dir_okay=False))
@click.option("--invariant", required=True,
              help="Invariant over the first loop's variables.")
@click.option("--map", "mapping", default="",
              help="Variable renaming 'a=x,b=y' from the first loop to the second.")
def equiv(loop1, loop2, invariant, mapping):
    """Check that both loops maintain the invariant (modulo renaming)."""
    try:
        lf1 = parse_loop(_read(loop1))
        lf2 = parse_loop(_read(loop2))
        polys = parse_invariant(invariant, lf1.symbols())
        bijection = _parse_mapping(mapping, lf1, lf2)
        ok = all(check_equiv_modulo(lf1.system, lf2.system, p, bijection) for p in polys)
    except (ParseError, ValueError) as e:  # a map check_equiv_modulo refuses, too
        raise SystemExit(_fail(EXIT_INPUT, str(e), False))
    click.echo("equivalent" if ok else "not equivalent")
    raise SystemExit(EXIT_OK if ok else EXIT_NEGATIVE)


def _parse_mapping(text: str, lf1: LoopFile, lf2: LoopFile) -> dict[Var, Var]:
    sym1 = dict(zip(lf1.var_names, lf1.system.vars))  # declared names: not the hidden one
    sym2 = dict(zip(lf2.var_names, lf2.system.vars))
    out: dict[Var, Var] = {}
    for item in filter(None, (s.strip() for s in text.split(","))):
        a, sep, b = item.partition("=")
        if not sep or a.strip() not in sym1 or b.strip() not in sym2:
            raise ParseError(f"bad mapping entry {item!r}")
        out[sym1[a.strip()]] = sym2[b.strip()]
    for name in sym1.keys() & sym2.keys():
        out.setdefault(sym1[name], sym2[name])
    return out


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@_solver_option
@click.option("--timeout", type=float, default=60.0, show_default=True, callback=_seconds)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--csv", "csv_path", type=click.Path(dir_okay=False), default=None,
              help="Write results as CSV (default: stdout).")
@click.option("--include-reconstructed", is_flag=True,
              help="Also run instances marked as reconstructed transcriptions.")
def bench(directory, solver, timeout, jobs, csv_path, include_reconstructed):
    """Run synthesis over every .spec file in DIRECTORY and tabulate."""
    specs = sorted(Path(directory).glob("*.spec"))
    if not specs:
        raise SystemExit(_fail(EXIT_INPUT, f"no .spec files in {directory}", False))
    if csv_path:
        try:  # fail before the run; append mode keeps an existing file as it is
            with open(csv_path, "a"):
                pass
        except OSError as e:
            raise SystemExit(_fail(EXIT_INPUT, str(e), False)) from None
    try:
        cfg = SolverConfig.default(solver)
    except SolverConfigError as e:
        raise SystemExit(_fail(EXIT_INPUT, str(e), False))

    def run_one(path: Path) -> dict:
        row = {"instance": path.stem, "status": "", "tier": "", "partition": "",
               "permutation": "", "millis": "", "verified": "", "backend": "", "note": ""}
        try:
            start = time.monotonic()
            spec = parse_spec(path.read_text())
            if spec.reconstructed and not include_reconstructed:
                row["status"] = "skipped"
                return row
            row["backend"] = cfg.backend
            try:
                request = SynthRequest.from_spec(spec, timeout, start)
            except ParseTimeout:
                result = _parse_timeout(start, cfg)
            else:
                result = synthesize(request, cfg)
            row["status"] = result.status
            row["note"] = result.note
            row["millis"] = str(result.millis)
            if result.loops:
                lp = result.loops[0]
                row["tier"] = lp.tier
                row["partition"] = " ".join(map(str, lp.partition))
                row["permutation"] = " ".join(lp.permutation)
                row["millis"] = str(lp.millis)
                row["verified"] = "yes"  # synthesize returns verified loops only
        except ParseError as e:
            row["status"], row["note"] = "parse-error", str(e)
        except RequestError as e:
            row["status"], row["note"] = "input-error", str(e)
        except SolverError as e:
            row["status"], row["note"] = "solver-error", str(e)
        return row

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        rows = list(pool.map(run_one, specs))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))  # run_one's keys, in column order
    writer.writeheader()
    writer.writerows(rows)
    if csv_path:
        _write(csv_path, buf.getvalue(), False)
        click.echo(f"wrote {csv_path}")
    else:
        click.echo(buf.getvalue(), nl=False)
    bad = [r for r in rows if r["status"] not in ("found", "skipped")]
    raise SystemExit(EXIT_OK if not bad else EXIT_NEGATIVE)
