"""Spans for the benchmark's traced run.

The tracer wraps the functions each layer is reached through, at the
module attribute its caller looks up (for instance `build_pcp` as
`loopsynth.synth` sees it), so the program itself is not edited.  Spans
are kept in memory as (name, start, end, parent, instance) and written
once, when the run ends.  A hook point that no longer exists is reported
as an absent layer instead of stopping the run.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path


def _observe_bundle(tracer: "Tracer", args, bundle) -> None:
    tracer.counts["pcpgen.clauses"] += len(bundle.pcp)
    tracer.counts["pcpgen.vars"] += len(bundle.pcp.variables())


def _observe_script(tracer: "Tracer", args, output) -> None:
    tracer.counts["smt.script_bytes"] += len(args[0])


def _observe_verdict(tracer: "Tracer", args, verdict) -> None:
    tracer.counts["verify.bound_sum"] += verdict.bound_used


# (module, attribute, span name, observer run after a successful call)
HOOKS = [
    ("loopsynth", "synthesize", "synth", None),
    ("loopsynth.synth", "build_template", "template", None),
    ("loopsynth.synth", "build_pcp", "pcpgen.build", _observe_bundle),
    ("loopsynth.pcpgen", "gen_roots", "pcpgen.roots", None),
    ("loopsynth.pcpgen", "char_poly", "matrix.char_poly", None),
    ("loopsynth.pcpgen", "gen_coeff", "pcpgen.coeff", None),
    ("loopsynth.pcpgen", "gen_init", "pcpgen.init", None),
    ("loopsynth.pcpgen", "gen_alg", "pcpgen.alg", None),
    ("loopsynth.pcpgen", "decompose", "constraints.decompose", None),
    ("loopsynth.synth", "solve_structured", "smt.structured", None),
    ("loopsynth.smt", "emit_smtlib", "smt.emit", None),
    ("loopsynth.smt", "run_solver", "smt.solver", _observe_script),
    ("loopsynth.synth", "check_invariant", "verify.check", _observe_verdict),
    ("loopsynth", "check_invariant", "verify.check", _observe_verdict),
    ("loopsynth", "parse_spec", "parser", None),
    ("loopsynth", "parse_loop", "parser", None),
    ("loopsynth", "parse_invariant", "parser", None),
    ("loopsynth.parser", "parse_invariant", "parser", None),
]


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.counts: Counter = Counter()
        self.instance = ""
        self.absent: list[str] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name, observe in HOOKS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                where = f"{module_name}.{attr}"
                if where not in self.absent:
                    self.absent.append(where)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, observe))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, observe):
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = [name, time.perf_counter(), None, parent, self.instance]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.counts[name] += 1
            if observe is not None:
                # observer work is a child span, so no layer's self time pays for it
                self.spans.append(["trace.observe", time.perf_counter(), None, parent, self.instance])
                observe(self, args, result)
                self.spans[-1][2] = time.perf_counter()
            return result

        return traced

    def totals(self) -> tuple[Counter, Counter]:
        """Milliseconds per span name, not counting a span nested in one of
        the same name, and self milliseconds (duration minus children)."""
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            ms = (end - start) * 1000
            if parent is not None:
                child[parent] += ms
            up = parent
            while up is not None and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up is None:
                total[name] += ms
        own: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += (end - start) * 1000 - child[i]
        return total, own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, instance in self.spans:
                f.write(json.dumps({
                    "name": name, "start": start - self.t0, "end": end - self.t0,
                    "parent": parent, "instance": instance,
                }) + "\n")
