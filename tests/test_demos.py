"""Every demo script runs to completion from source."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cvislr

_SRC = Path(cvislr.__file__).resolve().parents[1]
_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[d.name for d in _DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    # demos put scratch files under the system temporary directory and do
    # not all remove them, so give each run its own
    env["TMPDIR"] = str(tmp_path)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
