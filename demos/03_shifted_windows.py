"""Shifted-window attention: partitioning, cyclic shifts, and masks.

Windowed attention keeps cost linear in token count by restricting each
token to its own local 3-D window.  On its own that freezes information
inside window boundaries, so every other block shifts the whole grid by
half a window before partitioning.  After a cyclic shift, one "window"
can contain tokens that were never neighbours -- the wrap-around seam.
``attention_mask`` describes which pairs may attend as an additive -inf
mask on the padded, shifted grid; the model itself computes attention only
within groups of tokens that share a window and a pre-shift region, so
padding and blocked pairs are never computed at all.

This script walks through each piece on grids small enough to print.

Run:  python demos/03_shifted_windows.py
"""

import numpy as np

from cvislr import Tensor, backward, vst
from cvislr.tensor import mul, tensor_sum

print("=== 1. Window partitioning ===")

# A (4, 4, 4) token grid with a (2, 2, 2) window splits into 8 windows of
# 8 tokens each.  Numbering the tokens row-major shows which ones share a
# window; the inverse reshape puts every token back in place.
grid = np.arange(4 * 4 * 4).reshape(4, 4, 4)
windows = grid.reshape(2, 2, 2, 2, 2, 2).transpose(0, 2, 4, 1, 3, 5).reshape(8, 8)
back = windows.reshape(2, 2, 2, 2, 2, 2).transpose(0, 3, 1, 4, 2, 5).reshape(4, 4, 4)
print(f"grid (4,4,4) -> windows {windows.shape}  (num_windows, tokens)")
print(f"first window holds tokens {windows[0].tolist()}")
print(f"round trip exact: {np.array_equal(back, grid)}")

print()
print("=== 2. Cyclic shift ===")

# Shifting by half the window slides the grid with wrap-around; tokens
# falling off one edge reappear at the other.  On a 1-D slice:
line = np.arange(6)
shifted = np.roll(line, -1)
print(f"tokens            : {line.tolist()}")
print(f"shifted by -1     : {shifted.tolist()}")
print("index 5 now sits next to index 0 -- a seam the mask must respect.")

print()
print("=== 3. The attention mask ===")

# attention_mask labels each padded, shifted token by which region of the
# original grid it came from; tokens may attend within a window only when
# all three axis regions agree.  0 keeps a pair, -inf cuts it.
#
# A 1-D grid of 4 tokens, window 4, shift 1: after the shift the window
# holds original tokens [1, 2, 3, 0].  Token 0 wrapped around, so it is
# masked against the others (and they against it).
mask = vst.attention_mask((1, 1, 4), (1, 1, 4), (0, 0, 1))
cut = np.isneginf(mask[0])
print("window contents after shift: [1, 2, 3, 0] (0 wrapped around)")
print("masked pairs (X = blocked):")
labels = [1, 2, 3, 0]
print("      " + "  ".join(f"t{j}" for j in labels))
for i, row in enumerate(cut):
    marks = "   ".join("X" if c else "." for c in row)
    print(f"  t{labels[i]}  {marks}")

print()
print("=== 4. Masks on a padded, shifted 3-D grid ===")

# Grids that do not divide evenly are padded up to the window size first;
# padding tokens are masked against everything real.  Counting the blocked
# pairs on a (3, 5, 4) grid with window (2, 2, 2) and a full half-shift:
grid_extents, window, offsets = (3, 5, 4), (2, 2, 2), (1, 1, 1)
mask3 = vst.attention_mask(grid_extents, window, offsets)
blocked = int(np.isneginf(mask3).sum())
total = mask3.size
print(f"grid {grid_extents}, window {window}, shift {offsets}")
print(f"mask shape {mask3.shape}: {blocked}/{total} pairs blocked")

# Without a shift there is nothing to hide inside aligned windows.
print(f"unshifted mask is all zero: "
      f"{not np.isneginf(vst.attention_mask((4, 4, 4), window, (0, 0, 0))).any()}")

print()
print("=== 5. Shifting actually moves information ===")

# Gradient probe: an input token can only influence output tokens that
# (transitively) attend to it, so the gradient of one output token with
# respect to the whole input grid reads off its receptive field.
toy = vst.make_toy_config("small", num_classes=2, geometry=(8, 32, 32))
params = vst.init_params(toy, seed=0)
rng = np.random.default_rng(7)


def receptive_field(token: tuple[int, int, int], shifted_second: bool) -> int:
    onehot = np.zeros((1, 4, 4, 4, toy.embed_dim))  # blocks take a batch, here of one grid
    onehot[(0, *token)] = 1.0
    x = Tensor(rng.standard_normal(onehot.shape), requires_grad=True)
    y = vst.wmsa_block(x, params, toy, shifted=False, stage=0, block=0)
    if shifted_second:
        y = vst.wmsa_block(y, params, toy, shifted=True, stage=0, block=0)
    g = backward(tensor_sum(mul(y, onehot)))[x][0]
    return int((np.abs(g).sum(axis=-1) > 1e-12).sum())


# An interior token: one block sees only its own 2x2x2 window; adding a
# shifted block lets neighbouring windows flow in and the field explodes.
print("receptive field of output (1,1,1):")
print(f"  one regular block : {receptive_field((1, 1, 1), False):2d}/64 tokens")
print(f"  regular + shifted : {receptive_field((1, 1, 1), True):2d}/64 tokens")

# A seam token: (0,0,0) lands in the wrap-around window after the shift,
# where no cross-region pair is computed -- so its field does NOT
# grow.  Locality is extended by shifting, never by wrapping.
print("receptive field of output (0,0,0), which sits on the cyclic seam:")
print(f"  one regular block : {receptive_field((0, 0, 0), False):2d}/64 tokens")
print(f"  regular + shifted : {receptive_field((0, 0, 0), True):2d}/64 tokens")
