"""The benchmark's traced run wraps program functions by (module,
attribute).  A hook point that stops resolving is reported there only as
an absent layer, so a deletion or rename in the program is caught here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _hooks():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


POINTS = sorted({(module, attr) for module, attr, _name, _observe in _hooks()})


@pytest.mark.parametrize("module_name, attr", POINTS, ids=[f"{m}.{a}" for m, a in POINTS])
def test_hook_point_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
