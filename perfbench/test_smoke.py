"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("tensor.tape_nodes_per_step", "tensor.copy_nodes_per_step",
         "tensor.copy_mb_per_step", "vst.pad_token_share", "vst.masked_pair_share")


def run(workload, trace, seed=5, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_every_check_passes(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert math.isfinite(metric["value"])
        if not trace:
            assert metric["value"] > 0, m["name"]
    assert any(line.startswith("machine: ") for line in lines)
    assert any(line.split()[:2] == ["failed_share", "0"] for line in lines)


def test_exact_counts_repeat():
    first, second = (json.loads(run("crossview-toy", 1, seed=s).stdout.splitlines()[-1])
                     for s in (1, 2))
    for key in EXACT:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
