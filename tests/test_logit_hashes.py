"""tools/logit_hashes.py hashes the untracked logits of a fixed case list."""

import hashlib
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "logit_hashes.py"


def _run(*cases):
    return subprocess.run([sys.executable, str(_TOOL), *cases],
                          capture_output=True, text=True, timeout=600)


def _tool_module():
    spec = importlib.util.spec_from_file_location("logit_hashes", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_case_list_ends_with_the_paper_clip():
    cases = _tool_module().CASES
    assert len(cases) == 14
    assert list(cases)[-1] == "full-small-32x224x224-b1"
    assert cases["full-small-32x224x224-b1"][2] == (32, 224, 224)


def test_one_toy_case_hashes_its_untracked_logits():
    proc = _run("toy-small-8x32x32-b2")
    assert proc.returncode == 0, proc.stderr
    digest, name = proc.stdout.splitlines()[0].split("  ")
    assert len(proc.stdout.splitlines()) == 1 and name == "toy-small-8x32x32-b2"
    assert re.fullmatch("[0-9a-f]{64}", digest)
    logits = _tool_module().logits(name)
    assert logits.shape == (2, 4) and logits.dtype.name == "float64"
    assert digest == hashlib.sha256(logits.tobytes()).hexdigest()


def test_unknown_case_is_a_usage_error():
    proc = _run("toy-small-8x32x32-b2", "no-such-case")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no-such-case" in proc.stderr and "toy-small-8x32x32-b1" in proc.stderr
