"""Run a fixed, seeded, tiny CLI pipeline and print the SHA-256 of every file it writes.

Usage: python tools/pipeline_hashes.py OUT_DIR

The pipeline runs ``python -m cvislr`` from this checkout's ``src``:
``gen-data``; ``train`` for three sizes and two modalities; ``predict`` on the
test split with each model; ``ensemble`` over the sizes of each modality, then
over the two modalities; and ``evaluate`` on the fused predictions.  OUT_DIR
must not exist or must be empty.  Each output line is ``<sha256>  <path>``,
with the path relative to OUT_DIR, sorted by path, so the outputs of two
checkouts compare with ``diff``.  Hashes depend on the BLAS build and the
machine, so compare runs made on one machine.  The CLI trains and predicts
in float32, the library's default dtype, so the checkpoints, loss curves
and predictions differ from those of a checkout that computed in float64;
the clips and the manifest do not.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
SIZES = ("large", "base", "small")  # the order the default size weights expect
MODALITIES = ("rgb", "depth")


def _cvislr(*args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, "-m", "cvislr", *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)


def run_pipeline(out: str) -> None:
    data = os.path.join(out, "data")
    _cvislr("gen-data", "--classes", "3", "--signers", "2", "--geometry", "4x32x32",
            "--seed", "7", "--out", data)
    for modality in MODALITIES:
        for size in SIZES:
            stem = os.path.join(out, f"{size}_{modality}")
            _cvislr("train", "--data", data, "--size", size, "--modality", modality,
                    "--epochs", "2", "--batch-size", "4", "--seed", "1",
                    "--out", stem + ".vstc", "--loss-curve", stem + ".loss.tsv")
            _cvislr("predict", "--data", data, "--checkpoint", stem + ".vstc",
                    "--modality", modality, "--out", stem + ".pred")
        _cvislr("ensemble", "--inputs",
                *(os.path.join(out, f"{size}_{modality}.pred") for size in SIZES),
                "--out", os.path.join(out, f"{modality}.pred"))
    fused = os.path.join(out, "fused.pred")
    _cvislr("ensemble", "--rgb", os.path.join(out, "rgb.pred"),
            "--depth", os.path.join(out, "depth.pred"), "--out", fused)
    _cvislr("evaluate", "--data", data, "--pred", fused,
            "--out", os.path.join(out, "report.txt"))


def file_hashes(out: str) -> list[str]:
    """``<sha256>  <relative path>`` for every file under ``out``, sorted by path."""
    entries = []
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            entries.append((os.path.relpath(path, out), digest))
    return [f"{digest}  {rel}" for rel, digest in sorted(entries)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out = argv[0]
    if os.path.exists(out) and (not os.path.isdir(out) or os.listdir(out)):
        print(f"error: {out} exists and is not an empty directory", file=sys.stderr)
        return 2
    os.makedirs(out, exist_ok=True)
    run_pipeline(out)
    print("\n".join(file_hashes(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
