"""tools/pipeline_hashes.py runs the CLI pipeline and hashes every file it writes."""

import hashlib
import re
import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "pipeline_hashes.py"


def _run(out):
    return subprocess.run([sys.executable, str(_TOOL), str(out)],
                          capture_output=True, text=True, timeout=600)


def test_lists_every_pipeline_artifact(tmp_path):
    out = tmp_path / "run"
    proc = _run(out)
    assert proc.returncode == 0, proc.stderr
    entries = [line.split("  ", 1) for line in proc.stdout.splitlines()]
    paths = [path for _, path in entries]
    assert paths == sorted(paths)
    assert paths == sorted(p.relative_to(out).as_posix()
                           for p in out.rglob("*") if p.is_file())
    for digest, path in entries:
        assert re.fullmatch("[0-9a-f]{64}", digest)
        assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest()

    # 3 classes x 2 signers: 6 train, 6 val and 12 test clips, RGB and depth
    assert len([p for p in paths if p.startswith("data/") and p.endswith(".tnsr")]) == 48
    assert "data/manifest.tsv" in paths
    members = [f"{size}_{modality}" for size in ("large", "base", "small")
               for modality in ("rgb", "depth")]
    assert sorted(p for p in paths if p.endswith(".vstc")) == sorted(
        m + ".vstc" for m in members)
    assert sorted(p for p in paths if p.endswith(".pred")) == sorted(
        [m + ".pred" for m in members] + ["rgb.pred", "depth.pred", "fused.pred"])
    assert "report.txt" in paths
    assert (out / "report.txt").read_text().startswith("overall_acc: ")


def test_refuses_a_non_empty_directory(tmp_path):
    (tmp_path / "old.txt").write_text("kept")
    proc = _run(tmp_path)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
