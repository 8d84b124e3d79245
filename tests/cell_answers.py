"""Print the SHA-256 of the built-in backend's answer on every `un` search
cell, for each corpus spec in `benchmarks/` other than sum_of_square, as
one JSON object {spec: digest}.

Each digest is taken over the cells of the spec's request with the single
tier `un`, built through one `_SharedBases` in search order, as the search
builds them: per cell its status and, for `sat`, its model, one
`name=value` per symbol the cell declares, or `none` for a cell that is
not built.  Each cell is solved on its own with a 10 s slice.  Every cell
ends `sat` or `unknown` within a second on a slow machine, so the object
does not depend on the machine's speed; a cell that ran out of its slice
would print `timeout` and change the digest.  sum_of_square is left out
because its cells do run out.

Two trees that print the same object give the built-in backend problems
that it answers alike, model for model.  Run from the root of a tree:

    python tests/cell_answers.py > answers.json

`tests/cell_answers.json` holds the digests of the committed tree, and CI
requires the printed object to equal it.
"""

import gc
import hashlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from loopsynth.smt import SolverConfig, SolverRun, SolverTimeout  # noqa: E402
from loopsynth.template import ShapeTier  # noqa: E402
from test_synth import BENCHMARKS, benchmark_request, built_cells  # noqa: E402

SLICE_S = 10.0
LEFT_OUT = {"sum_of_square"}  # its cells run out of any slice the built-in backend is given


def answers_digest(name: str) -> str:
    digest, builtin = hashlib.sha256(), SolverConfig(("builtin",))
    for bundle in built_cells(benchmark_request(name, [ShapeTier.UNIT_UPPER])):
        if bundle is None:
            digest.update(b"none\n")
            continue
        try:
            result = SolverRun(bundle.pcp, builtin, bundle.variables).result(time.monotonic() + SLICE_S)
        except SolverTimeout:
            digest.update(b"timeout\n")
            continue
        model = " ".join(f"{v.name}={result.model[v]}" for v in bundle.variables if v in result.model)
        digest.update(f"{result.status} {model}\n".encode())
    return digest.hexdigest()


def main() -> None:
    gc.disable()  # as a search runs: its objects hold no cycles
    answers = {spec.stem: answers_digest(spec.stem)
               for spec in sorted(BENCHMARKS.glob("*.spec")) if spec.stem not in LEFT_OUT}
    json.dump(answers, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
