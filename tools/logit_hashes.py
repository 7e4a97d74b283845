"""Print the SHA-256 of the logits of one untracked forward pass per fixed case.

Usage: python tools/logit_hashes.py [CASE ...]

Each case builds a float64 model with ``vst.init_params(cfg, seed=0,
dtype=np.float64)``, draws float32 clips in [0, 1) from a seeded generator,
runs ``vst.forward_batch`` with no tape, and hashes the float64 logits.  The
cases cover full-scale small models at 16x64x64 (batches 1 and 2),
16x128x128 and 8x64x64 (batch 3), the three toy sizes at batches 1, 2 and 8,
and last the paper's 32x224x224 clip, whose forward pass takes tens of
seconds and several hundred MB.  With no argument every case runs;
otherwise only the named ones, in the order of the list.  Each output line
is ``<sha256>  <case>``, so the outputs of two checkouts compare with
``diff``.  Hashes depend on the BLAS build and the machine, so compare runs
made on one machine.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

import numpy as np

from cvislr import vst
from cvislr.tensor import Tensor

NUM_CLASSES = 4

#: name -> (arch, size, geometry, batch)
CASES = {
    "full-small-16x64x64-b1": ("full", "small", (16, 64, 64), 1),
    "full-small-16x64x64-b2": ("full", "small", (16, 64, 64), 2),
    "full-small-16x128x128-b1": ("full", "small", (16, 128, 128), 1),
    "full-small-8x64x64-b3": ("full", "small", (8, 64, 64), 3),
    **{f"toy-{size}-8x32x32-b{batch}": ("toy", size, (8, 32, 32), batch)
       for size in ("small", "base", "large") for batch in (1, 2, 8)},
    "full-small-32x224x224-b1": ("full", "small", vst.FULL_GEOMETRY, 1),
}


def logits(name: str) -> np.ndarray:
    arch, size, geometry, batch = CASES[name]
    make = vst.make_config if arch == "full" else vst.make_toy_config
    cfg = make(size, NUM_CLASSES, geometry=geometry)
    params = {k: Tensor(p.data)
              for k, p in vst.init_params(cfg, seed=0, dtype=np.float64).items()}
    rng = np.random.default_rng(sum(geometry) + batch)
    clips = rng.random((batch, *geometry, 3), dtype=np.float32)
    return vst.forward_batch(Tensor(clips), cfg, params).data


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in CASES]
    if unknown:
        print(f"error: unknown case {unknown[0]!r}; cases: {', '.join(CASES)}",
              file=sys.stderr)
        return 2
    for name in CASES:
        if not argv or name in argv:
            digest = hashlib.sha256(logits(name).tobytes()).hexdigest()
            print(f"{digest}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
