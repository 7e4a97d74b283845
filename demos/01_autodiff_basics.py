"""Reverse-mode autodiff on dense tensors, from scratch.

Every model in this package is built on one Tensor class: a float64 numpy
array plus an optional record of the operation that produced it.  Calling
``backward`` on a scalar loss walks that record in reverse topological
order and returns the gradient of every leaf tensor that asked for one.

This script builds a tiny computation by hand, differentiates it, checks
one gradient against a finite difference, and round-trips a tensor through
the binary .tnsr format.

Run:  python demos/01_autodiff_basics.py
"""

import os
import tempfile

import numpy as np

from cvislr import Tensor, backward, read_tensor, write_tensor
from cvislr import tensor as T

print("=== 1. Tensors and a forward computation ===")

# A tensor wraps a numpy array.  requires_grad=True marks it as a leaf we
# want gradients for; results of tracked inputs record their op instead.
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
b = Tensor(np.zeros(5), requires_grad=True)

# Every op is a function of the tensor module -- T.matmul(x, w), not
# x @ w: Tensor defines no operators.  matmul takes (m, k) @ (k, n)
# operands, add and mul broadcast like numpy, and a Python float operand
# becomes an untracked constant.
a = T.add(T.matmul(x, w), b)  # (4, 5): affine map
h = T.mul(a, a)  # elementwise square, a nonlinearity
loss = T.tensor_mean(T.tensor_sum(T.mul(h, h), axis=-1))  # scalar: mean squared row norm

print(f"x: {x.shape}, w: {w.shape}, h: {h.shape}")
print(f"loss = {loss.item():.6f}")

print()
print("=== 2. Backward pass ===")

# backward(loss) returns {leaf -> gradient array}, looked up by identity.
# Intermediate gradients are dropped as the sweep passes, and so is each
# node's backward rule: the graph is consumed, and a second backward
# through it raises.
grads = backward(loss)
print(f"gradients returned for {len(grads)} tensors (3 leaves)")
for name, leaf in [("x", x), ("w", w), ("b", b)]:
    g = grads[leaf]
    print(f"  d loss / d {name}: shape {g.shape}, |g|_max = {np.abs(g).max():.3e}")

print()
print("=== 3. Finite-difference check ===")

# Perturb one entry of w and compare the slope of the loss against the
# analytic gradient.  Central differences with h = 1e-6 agree to ~1e-9.
i, j = 1, 2
eps = 1e-6


def loss_at(delta: float) -> float:
    w2 = Tensor(w.data.copy())
    w2.data[i, j] += delta
    a2 = T.add(T.matmul(x, w2), b)
    h2 = T.mul(a2, a2)
    return T.tensor_mean(T.tensor_sum(T.mul(h2, h2), axis=-1)).item()


fd = (loss_at(eps) - loss_at(-eps)) / (2 * eps)
an = grads[w][i, j]
print(f"analytic d loss / d w[{i},{j}] = {an: .10f}")
print(f"finite difference             = {fd: .10f}")
print(f"abs error = {abs(fd - an):.2e}")
assert abs(fd - an) < 1e-7

print()
print("=== 4. Gradients through structural ops ===")

# Reshape and permute are differentiable: the backward of a data movement
# is the inverse movement.  A permute's gradient is the inverse permute, so
# it is exactly norm-preserving.
v = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
moved = T.permute(v, (2, 0, 1))
s = T.tensor_sum(T.mul(moved, moved))
gv = backward(s)[v]
print(f"|d/dv sum(permute(v)^2) - 2v|_max = {np.abs(gv - 2 * v.data).max():.2e}")

print()
print("=== 5. The .tnsr on-disk format ===")

# write_tensor stores little-endian float32 with explicit rank and extents.
# Reading back gives bit-identical float32 values, so artifacts written by
# one run can be compared byte-for-byte against another.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "x.tnsr")
    write_tensor(path, x)
    again = read_tensor(path)
    size = os.path.getsize(path)
    print(f"wrote {path!r}: {size} bytes for shape {x.shape}")
    print(f"round trip exact at f32: "
          f"{np.array_equal(again.data, x.data.astype(np.float32))}")
