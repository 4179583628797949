"""Each demo script runs to completion against the current library."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghzpurify

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    src = str(Path(ghzpurify.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    # -W error: a warning fails the demo, as it fails an in-process test
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
