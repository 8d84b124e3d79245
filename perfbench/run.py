#!/usr/bin/env python3
"""The loopsynth benchmark.

    python3 perfbench/run.py --workload sweep-un|sweep-fu|verify \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree; the package is imported from
`src/`.  Each workload is a closed loop with one caller.  The seed fixes
the order of operations in every pass and, on `verify`, the amounts by
which the refuted variants are perturbed.  Every verdict is checked
against an answer known in advance.

The sweeps run `synthesize` over whole search spaces with a stand-in
solver (`stub_solver.sh`, chosen through LOOPSYNTH_SOLVER) that answers
"unknown" to every script, so each instance must end "notfound" flagged
undecided.  `verify` parses corpus loops and decides their invariants.

Runs are made of whole passes over the workload's operations; another
pass starts only while the last one still fits in the remaining seconds,
and at least one pass is made.  With --trace 0 the end-to-end metrics are
reported, with every time paced to the machine's speed (see pace.py);
with --trace 1 passes alternate untraced and traced, and the per-layer
metrics are reported per traced pass in plain wall time.  The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shlex
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus
import unroll
from pace import REFERENCE_S, Pacer
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ["sweep-un", "sweep-fu", "verify"]
SETUP_REPEATS = 5
VARIANTS_PER_LOOP = 3  # refuted loops are 3/4 of a pass, so the median lands among them
UNROLL_STEPS = 200  # beyond the largest order bound in the corpus (130)
EARLY_STEPS = 3  # a refuted variant fails every conjunct within this many iterations
BUDGET_S = 120.0  # per synthesis instance; the costliest takes about 7 s
RUN_LIMIT_S = 170.0  # no operation may run past this, so a run ends within 180 s

END_TO_END = {
    "setup_s": "s", "cells_per_s": "1/s", "verdicts_per_s": "1/s",
    "verdict_ms.geomean": "ms", "verdict_ms.p50": "ms", "verdict_ms.max": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "template.ms": "ms", "pcpgen.build.ms": "ms", "pcpgen.roots.ms": "ms",
    "pcpgen.roots.share": "ratio", "matrix.char_poly.ms": "ms", "pcpgen.coeff.ms": "ms",
    "pcpgen.init.ms": "ms", "pcpgen.alg.ms": "ms", "constraints.decompose.ms": "ms",
    "pcpgen.clauses": "count", "pcpgen.vars": "count", "smt.emit.ms": "ms",
    "smt.script_kb": "KB", "smt.calls": "count", "smt.solver_ms": "ms",
    "smt.structured.ms": "ms", "synth.self_ms": "ms", "cells.built": "count",
    "cells.degenerate": "count", "cells.built_ratio": "ratio", "parser.ms": "ms",
    "verify.check.ms": "ms", "verify.calls": "count", "verify.bound_sum": "count",
    "pass.ms": "ms", "trace.overhead_ms": "ms",
}


@dataclass
class Op:
    name: str
    cells: int  # work units: search-space cells, or invariant conjuncts on verify
    request: object = None  # SynthRequest (sweeps)
    invariant_text: str = ""
    loop_text: str = ""  # verify
    holds: bool = True  # known answer (verify)


def fresh_import():
    """Import loopsynth as a new process would, so set-up can be repeated."""
    for name in [m for m in sys.modules if m == "loopsynth" or m.startswith("loopsynth.")]:
        del sys.modules[name]
    return importlib.import_module("loopsynth")


def partitions(s: int, largest: int | None = None) -> int:
    """The number of integer partitions of s into parts of at most `largest`."""
    largest = s if largest is None else largest
    if s == 0:
        return 1
    return sum(partitions(s - k, k) for k in range(1, min(s, largest) + 1))


def build_sweep(ls, workload: str) -> list[Op]:
    tier, names = corpus.SWEEPS[workload]
    ops = []
    for name in names:
        spec = ls.parse_spec(corpus.SPECS[name])
        symbols = spec.symbols()
        request = ls.SynthRequest(
            invariants=spec.invariants(),
            vars=[symbols[v] for v in spec.var_names],
            params=[(symbols[p], symbols[v]) for p, v in spec.params],
            pinned=dict(spec.init_pins),
            tiers=[ls.ShapeTier.parse(tier)],
            size=spec.size,
            aux_one=spec.aux_one,
            timeout=BUDGET_S,
        )
        s = spec.size if spec.size is not None else len(spec.var_names) + spec.aux_one
        orders = 1 if tier == "fu" else math.factorial(s)
        ops.append(Op(name, orders * partitions(s), request=request,
                      invariant_text=" && ".join(spec.invariant_texts)))
    return ops


def build_verify(rng: random.Random) -> list[Op]:
    ops = []
    for name, (text, inv) in corpus.REFERENCE_LOOPS.items():
        conjuncts = inv.count("&&") + 1
        ops.append(Op(name, conjuncts, loop_text=text, invariant_text=inv, holds=True))
        for k in range(VARIANTS_PER_LOOP):
            variant = unroll.refuted_variant(text, inv, k, rng, EARLY_STEPS)
            ops.append(Op(f"{name}~{k}", conjuncts, loop_text=variant, invariant_text=inv,
                          holds=False))
    return ops


def build(ls, workload: str, seed: int) -> list[Op]:
    if workload == "verify":
        return build_verify(random.Random(seed))
    return build_sweep(ls, workload)


def run_sweep_op(ls, op: Op, deadline: float) -> str | None:
    """Why the verdict is wrong, or None when it is right."""
    op.request.timeout = min(BUDGET_S, deadline - time.monotonic())
    result = ls.synthesize(op.request)
    if result.status == "notfound" and "undecided" in result.note:
        return None
    if result.status == "found":
        bad = [lp for lp in result.loops if not _loop_holds(lp.render(), op.invariant_text)]
        return f"found a loop that fails the invariant:\n{bad[0].render()}" if bad else None
    return f"status {result.status!r} ({result.note or 'no note'})"


def _loop_holds(loop_text: str, invariant_text: str) -> bool:
    rng = random.Random(0)
    params = unroll.random_params(unroll.parameter_names(loop_text, invariant_text), rng)
    failures = unroll.first_failures(loop_text, invariant_text, params, UNROLL_STEPS)
    return all(f is None for f in failures)


def run_verify_op(ls, op: Op, deadline: float) -> str | None:
    """Why the verdict is wrong, or None when it is right."""
    loop = ls.parse_loop(op.loop_text)
    verdicts = [ls.check_invariant(loop.system, p)
                for p in ls.parse_invariant(op.invariant_text, loop.symbols())]
    holds = all(v.holds for v in verdicts)
    return None if holds == op.holds else f"verdict holds={holds}, known answer holds={op.holds}"


@dataclass
class Pass:
    wall: float
    traced: bool
    spans: dict[str, tuple[float, float]]  # operation name -> (start, end) of its call
    failed: int


def measure(ls, workload, ops, seed, seconds, tracer: Tracer | None) -> list[Pass]:
    run_op = run_verify_op if workload == "verify" else run_sweep_op
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[Pass] = []
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(ops)
        rng.shuffle(order)
        if traced:
            tracer.install()
        p = Pass(0.0, traced, {}, 0)
        begin = time.perf_counter()
        for op in order:
            if time.monotonic() >= deadline:
                break
            if tracer is not None:
                tracer.instance = f"{len(passes)}:{op.name}"
            t = time.perf_counter()
            try:
                why = run_op(ls, op, deadline)
            except Exception as exc:
                why = f"{type(exc).__name__}: {exc}"
            p.spans[op.name] = (t, time.perf_counter())
            if why is not None:
                p.failed += 1
                print(f"FAILED {workload} {op.name}: {why}", file=sys.stderr)
        p.wall = time.perf_counter() - begin
        if traced:
            tracer.uninstall()
        passes.append(p)
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if time.monotonic() >= deadline or (enough and elapsed + p.wall > seconds):
            return passes


def per_operation(passes: list[Pass], pacer: Pacer) -> dict[str, list[float]]:
    """Each operation's paced times to verdict, in ms, one per pass."""
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for name, (t0, t1) in p.spans.items():
            by_op.setdefault(name, []).append(pacer.cost(t0, t1) * 1000)
    return by_op


def end_to_end(by_op: dict[str, list[float]], ops: list[Op],
               setups: list[tuple[float, float]], pacer: Pacer) -> dict[str, float]:
    """Every figure comes from each operation's median paced time over the
    passes.  Throughput is that of a pass made of these median times."""
    typical = [statistics.median(v) for v in by_op.values()]
    cells = {op.name: op.cells for op in ops}
    pass_s = sum(typical) / 1000
    return {
        "setup_s": statistics.median(pacer.cost(t0, t1) for t0, t1 in setups),
        "cells_per_s": sum(cells[name] for name in by_op) / pass_s,
        "verdicts_per_s": len(by_op) / pass_s,
        "verdict_ms.geomean": math.exp(statistics.fmean(math.log(x) for x in typical)),
        "verdict_ms.p50": statistics.median(typical),
        "verdict_ms.max": max(typical),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summary_lines(passes: list[Pass], by_op: dict[str, list[float]], pacer: Pacer) -> list[str]:
    """The machine's pace, and the p99 of all samples when at least ten
    samples lie beyond it."""
    kernel_ms = statistics.median(e - s for s, e in zip(pacer.starts, pacer.ends)) * 1000
    wall = sum(p.wall for p in passes)
    lines = [f"# pace: reference kernel {kernel_ms:.4f} ms (reference {REFERENCE_S * 1000:g} ms), "
             f"{len(pacer.starts)} samples; unpaced wall time {wall:.3f} s"]
    samples = [ms for v in by_op.values() for ms in v]
    if len(samples) < 1000:
        lines.append(f"# p99 needs 1000 samples, have {len(samples)}")
    else:
        lines.append(f"# p99 {statistics.quantiles(samples, n=100)[98]:.3f} ms "
                     f"over {len(samples)} samples")
    return lines


def per_layer(passes: list[Pass], tracer: Tracer, ops: list[Op]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    total, own = tracer.totals()
    c = tracer.counts
    built = c["pcpgen.build"]
    calls = c["smt.solver"]
    searched = sum(op.cells for op in ops) * n
    pass_ms = statistics.fmean(p.wall for p in traced) * 1000
    return {
        "template.ms": total["template"] / n,
        "pcpgen.build.ms": total["pcpgen.build"] / n,
        "pcpgen.roots.ms": total["pcpgen.roots"] / n,
        "pcpgen.roots.share": total["pcpgen.roots"] / n / pass_ms,
        "matrix.char_poly.ms": total["matrix.char_poly"] / n,
        "pcpgen.coeff.ms": total["pcpgen.coeff"] / n,
        "pcpgen.init.ms": total["pcpgen.init"] / n,
        "pcpgen.alg.ms": total["pcpgen.alg"] / n,
        "constraints.decompose.ms": total["constraints.decompose"] / n,
        "pcpgen.clauses": c["pcpgen.clauses"] / built if built else 0.0,
        "pcpgen.vars": c["pcpgen.vars"] / built if built else 0.0,
        "smt.emit.ms": total["smt.emit"] / n,
        "smt.script_kb": c["smt.script_bytes"] / 1024 / calls if calls else 0.0,
        "smt.calls": calls / n,
        "smt.solver_ms": total["smt.solver"] / n,
        "smt.structured.ms": total["smt.structured"] / n,
        "synth.self_ms": own["synth"] / n,
        "cells.built": built / n,
        "cells.degenerate": c["pcpgen.build!DegenerateInvariantError"] / n,
        "cells.built_ratio": built / searched if searched else 0.0,
        "parser.ms": total["parser"] / n,
        "verify.check.ms": total["verify.check"] / n,
        "verify.calls": c["verify.check"] / n,
        "verify.bound_sum": c["verify.bound_sum"] / n,
        "pass.ms": pass_ms,
        "trace.overhead_ms": pass_ms - statistics.fmean(p.wall for p in plain) * 1000,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "loopsynth" / "__init__.py").is_file():
        print(f"error: no loopsynth sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["LOOPSYNTH_SOLVER"] = shlex.join(["sh", str(HERE / "stub_solver.sh")])

    if args.trace:
        tracer = Tracer()
        ls = fresh_import()
        tracer.instance = "setup"
        tracer.install()
        ops = build(ls, args.workload, args.seed)
        tracer.uninstall()
        passes = measure(ls, args.workload, ops, args.seed, args.seconds, tracer)
        metrics, units = per_layer(passes, tracer, ops), PER_LAYER
        for where in tracer.absent:
            print(f"layer absent: {where} (its metrics read 0)")
        tracer.write(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        with Pacer() as pacer:
            setups = []
            for _ in range(SETUP_REPEATS):
                t = time.perf_counter()
                ls = fresh_import()
                ops = build(ls, args.workload, args.seed)
                setups.append((t, time.perf_counter()))
            passes = measure(ls, args.workload, ops, args.seed, args.seconds, None)
        by_op = per_operation(passes, pacer)
        metrics, units = end_to_end(by_op, ops, setups, pacer), END_TO_END
        print("\n".join(summary_lines(passes, by_op, pacer)))
    attempted = sum(len(p.spans) for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"# {args.workload} seed={args.seed} passes={len(passes)} operations={attempted} "
          f"fail_ratio={failed / attempted if attempted else 1.0}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
