"""Print the SHA-256 of every search cell's SMT-LIB script, for each corpus
spec in `benchmarks/` and each shape tier, as one JSON object
{spec: {tier: digest}}.

Each digest is `test_synth._cell_text_digest` of the spec's request with
that single tier: the scripts of all its cells, built through one
`_SharedBases` in search order, each declaring the bundle's symbol list
as its solver run does.  Two trees that print the same object build and
send the same problem for every cell.  Run from the root of a tree:

    python tests/cell_digests.py > digests.json

`tests/cell_digests.json` holds the digests of the committed tree, and CI
requires the printed object to equal it.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from loopsynth.template import ShapeTier  # noqa: E402
from test_synth import BENCHMARKS, _cell_text_digest, benchmark_request  # noqa: E402


def main() -> None:
    digests = {
        spec.stem: {tier.value: _cell_text_digest(benchmark_request(spec.stem, [tier])) for tier in ShapeTier}
        for spec in sorted(BENCHMARKS.glob("*.spec"))
    }
    json.dump(digests, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
