"""Pinned reference outputs: logits, loss and gradients of one fixed toy model.

The fixture ``tests/fixtures/reference_toy_small.npz`` holds float64 values:
the logits, the loss and the gradients of the input, of every ``.attn.``
parameter and of ``embed.proj.weight`` were computed by the unfused attention
chain (one tape node per reshape, roll, softmax and product); the gradients
of the other parameters were added later, from the one-node-per-block code.
Any later kernel change must reproduce them to within ``REL_TOL`` of each
array's largest magnitude.  Regenerate the fixture only when a change is
meant to alter the model's mathematics:

    PYTHONPATH=src python tests/test_reference.py

The geometry is chosen so every attention feature runs: stages 1 and 2 pad
their grids to window multiples, stage 3's second block is shifted and
masked, and stages 2 to 4 have several heads.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np

from cvislr import train, vst
from cvislr.tensor import Tensor, backward

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "reference_toy_small.npz")
REL_TOL = 1e-12

GEOMETRY = (6, 32, 32)
WINDOW = (2, 3, 3)
BATCH = 2
CLASSES = 5


def reference_outputs() -> dict[str, np.ndarray]:
    """Logits, loss and the gradient of the input and of every parameter."""
    cfg = replace(vst.make_toy_config("small", CLASSES, geometry=GEOMETRY), window=WINDOW)
    rng = np.random.Generator(np.random.Philox(2025))
    params = {}
    for name, shape in vst.param_spec(cfg).items():
        # wider than init_params' N(0, 0.02) so attention rows are far from
        # uniform and every gradient is well above rounding noise
        scale = 1.0 / np.sqrt(shape[0]) if len(shape) == 2 else 0.3
        base = 1.0 if name.endswith(".gain") else 0.0
        params[name] = Tensor(base + scale * rng.normal(size=shape), requires_grad=True)
    clips = Tensor(rng.random(size=(BATCH, *GEOMETRY, 3)), requires_grad=True)
    labels = np.arange(BATCH) % CLASSES

    logits = vst.forward_batch(clips, cfg, params)
    loss = train.cross_entropy(logits, labels)
    grads = backward(loss)
    out = {"logits": logits.data, "loss": loss.data, "grad.input": grads[clips]}
    out.update((f"grad.{name}", grads[p]) for name, p in params.items())
    return out


def test_matches_pinned_reference():
    want = np.load(FIXTURE)
    got = reference_outputs()
    assert sorted(got) == sorted(want.files)
    for key in want.files:
        ref = want[key]
        assert got[key].shape == ref.shape, key
        scale = np.abs(ref).max()
        err = np.abs(got[key] - ref).max()
        assert err <= REL_TOL * scale, f"{key}: error {err:.3g} vs max-abs {scale:.3g}"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    np.savez_compressed(FIXTURE, **reference_outputs())
    print(f"wrote {FIXTURE} ({os.path.getsize(FIXTURE)} bytes)")
