import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_example_runs_and_prints_a_loop():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "while true" in res.stdout and "end" in res.stdout, res.stdout


def test_every_exported_name_resolves():
    import loopsynth

    assert len(set(loopsynth.__all__)) == len(loopsynth.__all__)
    missing = [name for name in loopsynth.__all__ if not hasattr(loopsynth, name)]
    assert not missing
    namespace: dict = {}
    exec("from loopsynth import *", namespace)
    assert set(loopsynth.__all__) <= namespace.keys()
