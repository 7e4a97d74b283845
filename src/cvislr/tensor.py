"""Dense float64 tensors with reverse-mode automatic differentiation.

Each model layer in ``cvislr.vst``, the loss in ``cvislr.train`` and each op
here evaluates eagerly on contiguous row-major numpy arrays and, when an
input is tracked, records one ``OpNode`` carrying the parent tensors and a
closed-form backward rule.  A leaf is a tensor created with
``requires_grad=True``.  ``backward(out, grad)`` replays the recorded graph
in reverse topological order from ``out``, seeded with the gradient ``grad``
of ``out``, and returns the gradient of every reached leaf.

The four ops build reference chains around the model layers.  Each is one
module function; ``Tensor`` defines no operators.  Non-tensor operands
become untracked constants, and ``matmul`` takes rank-2 operands.

Tensors are never mutated in place once they participate in a graph; each op
returns a fresh tensor.  Graphs are single-use: ``backward`` drops each
node's rule, and with it the arrays the rule saved, once the rule has run,
so a second ``backward`` through any node of the same graph raises.
"""

from __future__ import annotations

import contextlib
import io
import math
import struct
from typing import BinaryIO, Callable

import numpy as np

from .errors import ContractError, FormatError, NumericError, ShapeError

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


class Tensor:
    """Contiguous row-major float64 array, optionally a leaf that wants a gradient."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # note: np.asarray(order="C") always returns a C-contiguous array and
        # keeps 0-d inputs 0-d, unlike np.ascontiguousarray which forces ndim >= 1
        arr = np.asarray(data, dtype=np.float64, order="C")
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


def backward(out: Tensor, grad=None) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from ``out``, seeded with its gradient ``grad``.

    A seed has ``out``'s shape and is copied; with none, ``out`` must be a
    scalar loss.  Returns a map from every reached leaf to its gradient.
    The graph is consumed: each node drops its rule once the rule has run,
    and a later sweep through any of those nodes raises.
    """
    try:
        seed = np.asarray(1.0 if grad is None else grad)
    except ValueError as e:  # a ragged nested sequence
        raise ContractError(f"the seed gradient is not an array: {e}") from e
    if seed.dtype.kind not in "iuf" or seed.shape != out.shape:
        got = "no seed" if grad is None else f"a {seed.dtype} seed of shape {seed.shape}"
        raise ContractError(f"backward needs a numeric seed of shape {out.shape}, got {got}")
    if out.node is None:
        raise ContractError("output is a leaf tensor, not connected to a tape")
    tape = GradTape.trace(out)
    if any(node.backward is None for node in tape.nodes):
        raise ContractError("backward was already called through this graph")

    pending = {out.node: np.array(seed, dtype=np.float64, order="C")}  # a fresh copy
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(tape.nodes):
        g = pending.pop(node, None)
        if g is None:
            continue
        for p, pg in zip(node.parents, node.backward(g)):
            if pg is None or not _tracked(p):
                continue
            # a leaf's gradient sums straight into the result
            sink, key = (leaves, p) if p.node is None else (pending, p.node)
            sink[key] = sink[key] + pg if key in sink else pg
        node.backward = None
    return leaves


# ---------------------------------------------------------------------------
# primitive operations


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _result(a.data + b.data, "add", (a, b), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product a[m, k] @ b[k, n] of two rank-2 operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m, k) @ (k, n) operands, got {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return _result(ad @ bd, "matmul", (a, b), bwd)


def _layer_norm(arr: np.ndarray, gain: np.ndarray, bias: np.ndarray):
    """Numpy layer norm over the last axis, then affine: the output and its rule.

    Rows are scaled by 1 / sqrt(variance + 1e-5).  The rule maps the output
    gradient to (dx, dgain, dbias).  It keeps only the row statistics and
    recomputes the normalized input from ``arr``.
    """
    c = arr.shape[-1]
    # sum / c is what ndarray.mean computes, bit for bit, without its wrapper
    mu = arr.sum(axis=-1, keepdims=True) / c
    xc = arr - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / c
    inv = 1.0 / np.sqrt(var + 1e-5)
    xc *= inv  # xhat, then the affine output, in place
    xc *= gain
    xc += bias
    lead = tuple(range(arr.ndim - 1))

    def rule(g):
        xhat = (arr - mu) * inv
        dxhat = g * gain
        m1 = dxhat.sum(axis=-1, keepdims=True) / c
        m2 = (dxhat * xhat).sum(axis=-1, keepdims=True) / c
        dx = inv * (dxhat - m1 - xhat * m2)
        dgain = (g * xhat).sum(axis=lead) if lead else g * xhat
        dbias = g.sum(axis=lead) if lead else g.copy()
        return dx, dgain, dbias

    return xc, rule


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({c},), got "
                         f"{gain.shape} and {bias.shape}")
    out, rule = _layer_norm(x.data, gain.data, bias.data)
    return _result(out, "layer_norm", (x, gain, bias), rule)


def tensor_mean(x, axis) -> Tensor:
    """The mean over ``axis``, an axis or a tuple of axes."""
    if axis is None:
        raise ContractError("tensor_mean needs an axis or a tuple of axes, not None")
    x = _as_tensor(x)
    data = x.data.mean(axis=axis)
    shape, count = x.shape, x.size // data.size

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).astype(np.float64, copy=True)
                / count,)

    return _result(data, "mean", (x,), bwd)


# ---------------------------------------------------------------------------
# Framing shared by TNSR, VSTC and PRED: a magic, then fields; a string is a
# u32 byte length, then UTF-8.  TNSR: magic, u32 rank, u64 extents, f32 payload.

_TNSR_MAGIC = b"TNSR"


def _stream(f: str | BinaryIO, mode: str):
    """A context manager giving the path ``f`` opened in ``mode``, or the stream ``f``."""
    return open(f, mode) if isinstance(f, str) else contextlib.nullcontext(f)


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


def _read_magic(f: BinaryIO, magic: bytes, what: str) -> None:
    """Raise FormatError unless ``f`` continues with the file magic of ``what``."""
    head = f.read(len(magic))
    if head != magic:
        raise FormatError(f"bad {what} magic {head!r}, expected {magic!r}")


def _write_text(f: BinaryIO, text: str | bytes) -> None:
    """Write ``text``, a str or its UTF-8 bytes, as a u32 byte length, then the bytes."""
    raw = text.encode("utf-8") if isinstance(text, str) else text
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _read_text(f: BinaryIO, what: str, end_ok: bool = False) -> str | None:
    """Read a string ``what``: a u32 byte length, checked against the bytes left,
    then UTF-8 bytes, else FormatError.  With ``end_ok``, a clean end of file
    where the length would start returns None."""
    raw = f.read(4)
    if end_ok and not raw:
        return None
    (n,) = struct.unpack("<I", raw + _read_exact(f, 4 - len(raw), f"{what} length"))
    _check_remaining(f, n, what)
    try:
        return _read_exact(f, n, what).decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{what} is not valid UTF-8: {e}") from e


def _finite_f32(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr`` as a contiguous little-endian float32 array.

    Raises NumericError when a value is NaN or infinite in float32, as a
    float64 beyond the float32 range becomes: the readers refuse such a payload.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.ascontiguousarray(arr, dtype="<f4")
    if not np.isfinite(out).all():
        raise NumericError(f"{what} holds NaN or infinite values in float32")
    return out


def write_tensor(f: str | BinaryIO, tensor) -> None:
    """Write a tensor (or ndarray) to the TNSR binary format (f32 payload).

    A value that is NaN or infinite in float32 raises NumericError before
    anything is written.
    """
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor, dtype=np.float64)
    if any(e < 1 for e in arr.shape):
        raise ShapeError(f"cannot serialize tensor with extents {arr.shape}")
    header = struct.pack(f"<4sI{arr.ndim}Q", _TNSR_MAGIC, arr.ndim, *arr.shape)
    payload = _finite_f32(arr, "tensor payload")
    with _stream(f, "wb") as fh:
        fh.write(header)
        # a flat byte view: no copy, and len() is the byte count
        fh.write(memoryview(payload).cast("B"))


def _read_payload(f: str | BinaryIO) -> np.ndarray:
    """Read one TNSR tensor's payload as a float32 array of its extents.

    Checks the magic, the rank, the extents, the bytes left against the
    declared payload and that every value is finite, raising FormatError.
    A path must hold exactly one tensor; a stream may continue after it.
    """
    with _stream(f, "rb") as fh:
        _read_magic(fh, _TNSR_MAGIC, "tensor")
        (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor header (rank)"))
        if rank > 16:
            raise FormatError(f"implausible tensor rank {rank}")
        shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "tensor header (extents)"))
        if any(e < 1 for e in shape):
            raise FormatError(f"tensor extents must all be >= 1, got {shape}")
        count = math.prod(shape)
        _check_remaining(fh, 4 * count, "tensor payload")
        payload = np.frombuffer(_read_exact(fh, 4 * count, "tensor payload"), dtype="<f4")
        # checked before widening: casting a signaling NaN would warn
        if not np.isfinite(payload).all():
            raise FormatError("tensor payload holds NaN or infinite values")
        if isinstance(f, str):
            _check_end(fh, f"tensor file {f!r}")
    return payload.reshape(shape)


def read_tensor(f: str | BinaryIO) -> Tensor:
    """Read a TNSR file back as a float64 tensor (payload widened from f32).

    A path must hold exactly one tensor; a stream may continue after it.
    A payload holding NaN or an infinity raises FormatError.
    """
    return Tensor(_read_payload(f).astype(np.float64))
