"""Reverse-mode autodiff through model layers, from scratch.

Every model in this package is built on one Tensor class: a float32 or
float64 numpy array plus an optional record of the layer that produced it.  Each layer of
the video transformer -- the patch embedding, a transformer block, a patch
merge, the head -- and the loss records one node on a tape, with a
closed-form backward rule.  The tape is a chain: each node has at most one
parent that carries a node, and parameters and inputs are leaves.  Calling
``backward`` on a scalar loss walks that chain from the loss back to the
first node with one running gradient, and returns the gradient of every
leaf tensor that asked for one.

This script runs the last transformer block of a toy model, the head and the
cross-entropy loss on a tiny token grid, prints the tape, checks gradients
against central differences, and round-trips a tensor through the binary
.tnsr format.

Run:  python demos/01_autodiff_basics.py
"""

import os
import tempfile

import numpy as np

from cvislr import GradTape, Tensor, backward, read_tensor, vst, write_tensor
from cvislr.train import cross_entropy

print("=== 1. A block, the head and the loss on a tape ===")

# init_params returns leaves: tensors with requires_grad=True, here in
# float64, which the central differences below need (float32 is the
# default).  The input grid is a leaf too, so that we can ask for its
# gradient.  The block runs at stage 4 of toy small (a 4x1x1 token grid,
# C = 64, 8 heads), where the head reads its output.
cfg = vst.make_toy_config("small", num_classes=3)
params = vst.init_params(cfg, seed=0, dtype=np.float64)
rng = np.random.default_rng(0)
grid = Tensor(rng.normal(size=(2, *vst.stage_grids(cfg)[3], cfg.stage_channels(3))),
              requires_grad=True)
labels = np.array([0, 2])


def forward(grid):
    out = vst.wmsa_block(grid, params, cfg, shifted=False, stage=3, block=0)
    return cross_entropy(vst.head(out, params), labels)


loss = forward(grid)
print(f"grid: {grid.shape}, loss = {loss.item():.6f}")

# Each layer is one node whose parents are its input and its parameters.
for node in GradTape.trace(loss).nodes:
    print(f"  node {node.op!r}: {len(node.parents)} parents")

print()
print("=== 2. Backward pass ===")

# backward(loss) returns {leaf -> gradient array}, looked up by identity:
# the grid, the block's 13 parameters and the head's 4.  Each node drops
# its backward rule once it has run: the tape is consumed, and a second
# backward through it raises.
grads = backward(loss)
print(f"gradients returned for {len(grads)} leaves")
for name in ("stage4.block1.attn.qkv.weight", "stage4.block1.ffn.fc1.bias",
             "head.fc.weight"):
    g = grads[params[name]]
    print(f"  d loss / d {name}: shape {g.shape}, |g|_max = {np.abs(g).max():.3e}")

print()
print("=== 3. Central-difference check ===")

# Perturb one entry of a leaf at a time and compare the slope of the loss
# with the analytic gradient.  With h = 1e-6 they agree to about 1e-10.
h = 1e-6
for name, leaf, idx in [("grid", grid, (1, 2, 0, 0, 5)),
                        ("stage4.block1.attn.qkv.weight",
                         params["stage4.block1.attn.qkv.weight"], (3, 70)),
                        ("head.norm.gain", params["head.norm.gain"], (9,))]:
    orig = leaf.data[idx]
    leaf.data[idx] = orig + h
    hi = forward(grid).item()
    leaf.data[idx] = orig - h
    lo = forward(grid).item()
    leaf.data[idx] = orig
    fd = (hi - lo) / (2 * h)
    an = grads[leaf][idx]
    print(f"  {name}{list(idx)}: analytic {an: .10f}, central difference {fd: .10f}")
    assert abs(fd - an) < 1e-8

print()
print("=== 4. A pass with no tracked input records nothing ===")

# Inference wraps the parameters in plain tensors: no layer records a node,
# so no layer keeps the arrays its backward rule would need.
frozen = {name: Tensor(p.data) for name, p in params.items()}
out = vst.wmsa_block(Tensor(grid.data), frozen, cfg, shifted=False, stage=3, block=0)
print(f"block output {out.shape}, node: {out.node}")

print()
print("=== 5. The .tnsr on-disk format ===")

# write_tensor stores little-endian float32 with explicit rank and extents.
# Reading back gives bit-identical float32 values, so artifacts written by
# one run can be compared byte-for-byte against another.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "grid.tnsr")
    write_tensor(path, grid)
    again = read_tensor(path)
    size = os.path.getsize(path)
    print(f"wrote {path!r}: {size} bytes for shape {grid.shape}")
    print(f"round trip exact at f32: "
          f"{np.array_equal(again.data, grid.data.astype(np.float32))}")
