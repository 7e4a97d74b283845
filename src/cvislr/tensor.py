"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation evaluates eagerly on contiguous row-major numpy arrays and,
when an input is tracked, records an ``OpNode`` carrying the parent tensors
and a closed-form backward rule.  A leaf is a tensor created with
``requires_grad=True``; results of tracked inputs carry a node instead.
``backward(loss)`` replays the recorded graph in reverse topological order
and returns the gradient of every reached leaf.

Each op is one module function with one code path; ``Tensor`` defines no
operators.  Non-tensor operands, Python floats included, become untracked
constants, and ``matmul`` takes rank-2 operands only (flattened token rows).

Tensors are never mutated in place once they participate in a graph; each op
returns a fresh tensor.  Graphs are single-use: ``backward`` drops each
node's rule, and with it the arrays the rule saved, once the rule has run,
so a second ``backward`` through any node of the same graph raises.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO, Callable

import numpy as np

from .errors import ContractError, FormatError, ShapeError

_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class OpNode:
    """One recorded primitive: parent tensors plus the backward rule.

    ``backward(grad)`` maps the output gradient to one gradient (or ``None``)
    per parent, in parent order.  It is ``None`` once the sweep has run it.
    """

    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], tuple]):
        self.op = op
        self.parents = parents
        self.backward = backward

    def __repr__(self) -> str:
        return f"OpNode({self.op}, parents={len(self.parents)})"


class Tensor:
    """Contiguous row-major float64 array, optionally a leaf that wants a gradient."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # note: np.asarray(order="C") keeps 0-d inputs 0-d, unlike
        # np.ascontiguousarray which forces ndim >= 1
        arr = np.asarray(data, dtype=np.float64, order="C")
        if not arr.flags.c_contiguous:
            arr = np.ascontiguousarray(arr)
        if any(e < 1 for e in arr.shape):
            raise ShapeError(f"tensor extents must all be >= 1, got {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.node: OpNode | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _tracked(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(_tracked(p) for p in parents):
        out.node = OpNode(op, parents, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# graph traversal


class GradTape:
    """Topologically ordered list of the op nodes reaching a root tensor.

    Invariant: every node's parents appear earlier in ``nodes`` (leaves carry
    no node and are omitted).
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[OpNode]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        nodes: list[OpNode] = []
        state: dict[int, int] = {}  # 0 unseen / 1 expanded / 2 emitted
        stack = [root.node] if root.node is not None else []
        while stack:
            node = stack[-1]
            st = state.get(id(node), 0)
            if st == 0:
                state[id(node)] = 1
                for p in node.parents:
                    if p.node is not None and state.get(id(p.node), 0) == 0:
                        stack.append(p.node)
            else:
                stack.pop()
                if st == 1:
                    state[id(node)] = 2
                    nodes.append(node)
        return cls(nodes)


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from every reached leaf (a ``requires_grad`` tensor with no
    node) to its gradient.  The graph is consumed: each node drops its rule
    once the rule has run, and a later sweep through any of those nodes
    raises.
    """
    if loss.data.ndim != 0:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise ContractError("loss is a leaf tensor, not connected to a tape")
    tape = GradTape.trace(loss)
    if any(node.backward is None for node in tape.nodes):
        raise ContractError("backward was already called through this graph")

    pending: dict[OpNode, np.ndarray] = {loss.node: np.ones((), dtype=np.float64)}
    out: dict[Tensor, np.ndarray] = {}
    for node in reversed(tape.nodes):
        g = pending.pop(node, None)
        if g is None:
            continue
        for p, pg in zip(node.parents, node.backward(g)):
            if pg is None or not _tracked(p):
                continue
            # a leaf's gradient sums straight into the result
            sink, key = (out, p) if p.node is None else (pending, p.node)
            if key in sink:
                sink[key] = sink[key] + pg
            else:
                sink[key] = pg
        node.backward = None
    return out


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(data, "add", (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data
    ad, bd = a.data, b.data

    def bwd(g):
        return _unbroadcast(g * bd, a.shape), _unbroadcast(g * ad, b.shape)

    return _result(data, "mul", (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product a[m, k] @ b[k, n] of two rank-2 operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m, k) @ (k, n) operands, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _result(ad @ bd, "matmul", (a, b), bwd)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    orig = x.shape

    def bwd(g):
        return (np.ascontiguousarray(g).reshape(orig),)

    return _result(x.data.reshape(shape), "reshape", (x,), bwd)


def permute(x, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(x.ndim)):
        raise ShapeError(f"permute axes {axes} are not a permutation of rank {x.ndim}")
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (np.ascontiguousarray(g.transpose(inverse)),)

    return _result(np.ascontiguousarray(x.data.transpose(axes)), "permute", (x,), bwd)


def gelu(x) -> Tensor:
    """Exact Gaussian-CDF gelu: x * Phi(x) (erf form, not the tanh fit)."""
    # imported here so that commands which never run a model start without scipy
    from scipy.special import erf

    x = _as_tensor(x)
    arr = x.data
    cdf = 0.5 * (1.0 + erf(arr * _INV_SQRT_2))

    def bwd(g):
        pdf = np.exp(-0.5 * arr * arr) * _INV_SQRT_2PI
        return (g * (cdf + arr * pdf),)

    return _result(arr * cdf, "gelu", (x,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({c},), got "
                         f"{gain.shape} and {bias.shape}")
    arr = x.data
    # sum / c is what ndarray.mean computes, bit for bit, without its wrapper
    mu = arr.sum(axis=-1, keepdims=True) / c
    xc = arr - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data
    gd = gain.data
    lead = tuple(range(arr.ndim - 1))

    def bwd(g):
        dxhat = g * gd
        m1 = dxhat.sum(axis=-1, keepdims=True) / c
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / c
        dx = inv * (dxhat - m1 - xhat * m2)
        dgain = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbias = g.sum(axis=lead) if lead else g.copy()
        return dx, dgain, dbias

    return _result(out, "layer_norm", (x, gain, bias), bwd)


def tensor_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and not isinstance(axis, tuple):
        axis = (int(axis),)
    shape = x.shape

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, shape).astype(np.float64, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).astype(np.float64, copy=True),)

    return _result(x.data.sum(axis=axis, keepdims=keepdims), "sum", (x,), bwd)


def tensor_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    if axis is not None and not isinstance(axis, tuple):
        axis = (int(axis),)
    shape = x.shape
    if axis is None:
        count = x.size
    else:
        count = math.prod(shape[a] for a in axis)

    def bwd(g):
        if axis is None:
            gg = g
        else:
            gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).astype(np.float64, copy=True) / count,)

    return _result(x.data.mean(axis=axis, keepdims=keepdims), "mean", (x,), bwd)


# ---------------------------------------------------------------------------
# TNSR serialization: magic, u32 rank, rank x u64 extents, f32 payload.

_TNSR_MAGIC = b"TNSR"


def _check_remaining(f: BinaryIO, nbytes: int, what: str) -> None:
    """Raise FormatError when a header declares more bytes than ``f`` has left.

    Binary readers call this before reading or allocating a payload whose
    size comes from the file, so a corrupt size field fails without a huge
    allocation.  A stream that cannot seek is left to the readers' own
    truncation checks.
    """
    if not f.seekable():
        return
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if nbytes > left:
        raise FormatError(f"truncated {what}: declares {nbytes} bytes, "
                          f"but only {left} remain")


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes:
    """Read exactly ``n`` bytes of ``what``, or raise FormatError."""
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"truncated {what}: expected {n} bytes, got {len(raw)}")
    return raw


def _check_end(f: BinaryIO, what: str) -> None:
    """Raise FormatError when bytes follow the declared payload of ``what``."""
    if f.read(1):
        raise FormatError(f"{what} has bytes after its declared payload")


def _read_text(f: BinaryIO, n: int, what: str) -> str:
    """Read a UTF-8 field whose length ``n`` comes from the file.

    The length is checked against the bytes left before anything is read,
    and bytes that are not UTF-8 raise FormatError.
    """
    _check_remaining(f, n, what)
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from e


def write_tensor(f: str | BinaryIO, tensor) -> None:
    """Write a tensor (or ndarray) to the TNSR binary format (f32 payload)."""
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
    if any(e < 1 for e in arr.shape):
        raise ShapeError(f"cannot serialize tensor with extents {arr.shape}")
    if isinstance(f, str):
        with open(f, "wb") as fh:
            write_tensor(fh, arr)
        return
    f.write(_TNSR_MAGIC)
    f.write(struct.pack("<I", arr.ndim))
    for e in arr.shape:
        f.write(struct.pack("<Q", e))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_tensor(f: str | BinaryIO) -> Tensor:
    """Read a TNSR file back as a float64 tensor (payload widened from f32).

    A path must hold exactly one tensor; a stream may continue after it.
    A payload holding NaN or an infinity raises FormatError.
    """
    if isinstance(f, str):
        with open(f, "rb") as fh:
            tensor = read_tensor(fh)
            _check_end(fh, f"tensor file {f!r}")
            return tensor
    head = f.read(4)
    if head != _TNSR_MAGIC:
        raise FormatError(f"bad tensor magic {head!r}, expected {_TNSR_MAGIC!r}")
    (rank,) = struct.unpack("<I", _read_exact(f, 4, "tensor header (rank)"))
    if rank > 16:
        raise FormatError(f"implausible tensor rank {rank}")
    raw = _read_exact(f, 8 * rank, "tensor header (extents)")
    shape = struct.unpack(f"<{rank}Q", raw) if rank else ()
    if any(e < 1 for e in shape):
        raise FormatError(f"tensor extents must all be >= 1, got {shape}")
    count = math.prod(shape)
    _check_remaining(f, 4 * count, "tensor payload")
    raw = _read_exact(f, 4 * count, "tensor payload")
    payload = np.frombuffer(raw, dtype="<f4")
    # checked before widening: casting a signaling NaN would warn
    if not np.isfinite(payload).all():
        raise FormatError("tensor payload holds NaN or infinite values")
    return Tensor(payload.astype(np.float64).reshape(shape))
