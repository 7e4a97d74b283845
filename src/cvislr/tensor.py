"""Dense float32 or float64 tensors with reverse-mode automatic differentiation.

Each model layer in ``cvislr.vst`` and the loss in ``cvislr.train``
evaluates eagerly on contiguous row-major numpy arrays and, when an input is
tracked, records one ``OpNode`` carrying the parent tensors and a
closed-form backward rule.  A leaf is a tensor created with
``requires_grad=True``.  The graph is a chain: a node has at most one parent
that carries a node, while a leaf may feed many nodes.  ``backward(out, grad)``
walks the chain back from ``out`` with one running gradient, seeded with the
gradient ``grad`` of ``out``, and returns the gradient of every reached leaf.

The ops ``add``, ``matmul``, ``layer_norm`` and ``tensor_mean`` are forward-only
reference arithmetic: they record no node and refuse a tracked operand with
ContractError.  Each is a module function (``Tensor`` defines no operators),
non-tensor operands are constants, and ``matmul`` takes rank-2 operands.

A tensor keeps a float32 or float64 array's dtype, converts any other bool,
integer or float array to float64 and refuses any other value with
ContractError; every array a node allocates follows its input's dtype.
Tensors are never mutated in place once they participate in a graph; each
node returns a fresh tensor.  Graphs are single-use: ``backward`` drops each
node's rule, and with it the arrays the rule saved, once the rule has run,
so a second ``backward`` through any node of the same graph raises.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import struct
from typing import BinaryIO, Callable

import numpy as np

from .errors import ContractError, FormatError, NumericError, ShapeError

class OpNode:
    """One recorded primitive: parent tensors plus the backward rule.

    ``backward(grad)`` maps the output gradient to one gradient per parent, in
    order, ``None`` for an untracked one.  It is ``None`` once the sweep has run it.
    """

    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple["Tensor", ...],
                 backward: Callable[[np.ndarray], tuple]):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tensor:
    """Contiguous row-major float32 or float64 array, optionally a leaf that wants a gradient."""

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False):
        # note: np.asarray(order="C") always returns a C-contiguous array and
        # keeps 0-d inputs 0-d, unlike np.ascontiguousarray which forces ndim >= 1
        try:
            arr = np.asarray(data, order="C")
        except ValueError as e:  # a ragged nested sequence
            raise ContractError(f"tensor values must be an array of real numbers: {e}") from e
        if arr.dtype not in (np.float32, np.float64):
            if arr.dtype.kind not in "biuf":
                raise ContractError(f"tensor values must be real numbers, got {arr.dtype}")
            arr = arr.astype(np.float64)
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


def _result(data: np.ndarray, op: str, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(_tracked(p) for p in parents):
        out.node = OpNode(op, parents, backward_fn)
    return out


# ---------------------------------------------------------------------------
# graph traversal


class GradTape:
    """The chain of op nodes ending at a root tensor, oldest first.

    ``trace`` steps back through each node's one recorded parent, one that
    carries a node; a node with two, even the same tensor twice, raises ContractError.
    """

    __slots__ = ("nodes",)

    def __init__(self, nodes: list[OpNode]):
        self.nodes = nodes

    @classmethod
    def trace(cls, root: Tensor) -> "GradTape":
        nodes, node = [], root.node
        while node is not None:
            nodes.append(node)
            recorded = [p.node for p in node.parents if p.node is not None]
            if len(recorded) > 1:
                raise ContractError(f"a {node.op!r} node has more than one recorded parent")
            node = recorded[0] if recorded else None
        return cls(nodes[::-1])


def backward(out: Tensor, grad=None) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep down the chain from ``out``, seeded with its gradient ``grad``.

    A seed has ``out``'s shape and is copied in ``out``'s dtype; with none,
    ``out`` must be a scalar loss.  Returns a map from every reached leaf to
    its gradient, summed over the nodes it feeds.  The graph is consumed: each node drops
    its rule once the rule has run, and a later sweep through it raises.
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

    g = np.array(seed, dtype=out.data.dtype, order="C")  # a fresh copy
    leaves: dict[Tensor, np.ndarray] = {}
    for node in reversed(tape.nodes):
        grads = node.backward(g)
        node.backward = g = None
        for p, pg in zip(node.parents, grads):
            if p.node is not None:
                g = pg
            elif p.requires_grad:
                leaves[p] = leaves[p] + pg if p in leaves else pg
    return leaves


# ---------------------------------------------------------------------------
# forward-only reference ops


def _constants(*operands) -> list[np.ndarray]:
    """The operands' float64 values; a tracked tensor raises ContractError,
    since these ops record no node and so could give it no gradient."""
    tensors = [x if isinstance(x, Tensor) else Tensor(x) for x in operands]
    if any(map(_tracked, tensors)):
        raise ContractError("the reference ops are forward-only: an operand requires "
                            "a gradient or comes from a recorded node")
    return [t.data.astype(np.float64, copy=False) for t in tensors]


def add(a, b) -> Tensor:
    a, b = _constants(a, b)
    return Tensor(a + b)


def matmul(a, b) -> Tensor:
    """Matrix product a[m, k] @ b[k, n] of two rank-2 operands."""
    a, b = _constants(a, b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul needs (m, k) @ (k, n) operands, got {a.shape} and {b.shape}")
    return Tensor(a @ b)


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
    x, gain, bias = _constants(x, gain, bias)
    c = x.shape[-1]
    if gain.shape != (c,) or bias.shape != (c,):
        raise ShapeError(f"layer_norm gain/bias must have shape ({c},), got "
                         f"{gain.shape} and {bias.shape}")
    return Tensor(_layer_norm(x, gain, bias)[0])


def tensor_mean(x, axis) -> Tensor:
    """The mean over ``axis``, an axis or a tuple of axes."""
    if axis is None:
        raise ContractError("tensor_mean needs an axis or a tuple of axes, not None")
    (x,) = _constants(x)
    return Tensor(x.mean(axis=axis))


# ---------------------------------------------------------------------------
# Framing shared by TNSR, VSTC and PRED: a magic, then fields; a string is a
# u32 byte length, then UTF-8.  TNSR: magic, u32 rank, u64 extents, f32 payload.

_TNSR_MAGIC = b"TNSR"
#: The highest rank a TNSR file may declare; ``write_tensor`` refuses more.
_MAX_RANK = 16
#: The most bytes ``_read_exact`` takes at once from a stream that cannot seek.
_READ_CHUNK = 2**20
#: The types that name a file; any other file argument is an open stream.
_PATH_TYPES = (str, os.PathLike)


@contextlib.contextmanager
def _stream(f: str | os.PathLike | BinaryIO, mode: str):
    """The stream ``f``; or the path ``f`` opened "rb", or for "wb" a new hidden file next
    to its target (through a symlink) that replaces the target when the block exits
    and is deleted on an exception.  An existing FIFO, device or directory opens in place."""
    if not isinstance(f, _PATH_TYPES):
        yield f
    elif mode == "rb" or os.path.exists(f) and not os.path.isfile(f):
        with open(f, mode) as fh:
            yield fh
    else:
        target = os.path.realpath(f) if os.path.islink(f) else f
        head, tail = os.path.split(target)
        tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
        try:
            fh = open(tmp, "xb")
        except OSError as e:  # name the caller's path, not the new file's
            raise OSError(e.errno, e.strerror, os.fspath(f)) from None
        try:
            with fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise


def _check_remaining(f: BinaryIO, nbytes: int, what: str) -> None:
    """Raise FormatError when a header declares more bytes than ``f`` has left.

    Binary readers call this before reading or allocating a payload whose
    size comes from the file, so a corrupt size field fails without a huge
    allocation.  A stream that cannot seek has no size to check against, so
    its readers hold only what has arrived: ``_read_exact`` reads it in
    chunks, and the VSTC and PRED readers, whose files end with their
    records, read it whole first (see ``_seekable``).
    """
    if not f.seekable():
        return
    pos = f.tell()
    left = f.seek(0, io.SEEK_END) - pos
    f.seek(pos)
    if nbytes > left:
        raise FormatError(f"truncated {what}: declares {nbytes} bytes, "
                          f"but only {left} remain")


def _seekable(f: BinaryIO) -> BinaryIO:
    """``f``, or what is left of a stream that cannot seek, read to its end in memory:
    the reader of a file that ends with its records can then check every size."""
    return f if f.seekable() else io.BytesIO(f.read())


def _read_exact(f: BinaryIO, n: int, what: str) -> bytes | bytearray:
    """Read exactly ``n`` bytes of ``what``, or raise FormatError.

    A stream that cannot seek is read ``_READ_CHUNK`` bytes at a time into a
    bytearray, so a corrupt size allocates only what has arrived.
    """
    raw = f.read(n) if f.seekable() else bytearray()
    while len(raw) < n and (part := f.read(min(_READ_CHUNK, n - len(raw)))):
        raw += part
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


def write_tensor(f: str | os.PathLike | BinaryIO, tensor) -> None:
    """Write a tensor (or ndarray) to the TNSR binary format (f32 payload).

    A rank above 16, or an extent ``Tensor`` refuses, raises ShapeError, and a
    value NaN or infinite in float32 NumericError; a path is replaced only whole.
    """
    arr = (tensor if isinstance(tensor, Tensor) else Tensor(tensor)).data
    if arr.ndim > _MAX_RANK:
        raise ShapeError(f"tensor rank {arr.ndim} exceeds the TNSR limit of {_MAX_RANK}")
    header = struct.pack(f"<4sI{arr.ndim}Q", _TNSR_MAGIC, arr.ndim, *arr.shape)
    payload = _finite_f32(arr, "tensor payload")
    with _stream(f, "wb") as fh:
        fh.write(header)
        # a flat byte view: no copy, and len() is the byte count
        fh.write(memoryview(payload).cast("B"))


def read_tensor(f: str | os.PathLike | BinaryIO) -> Tensor:
    """Read one TNSR tensor back as a float32 tensor of its extents, as stored.

    Checks the magic, the rank, the extents, the bytes left against the
    declared payload and that every value is finite, raising FormatError.
    A path must hold exactly one tensor; a stream may continue after it.
    """
    with _stream(f, "rb") as fh:
        payload = _read_record(fh)
        if isinstance(f, _PATH_TYPES):
            _check_end(fh, f"tensor file {os.fspath(f)!r}")
    return Tensor(payload)


def _read_record(fh: BinaryIO, out: np.ndarray | None = None, what: str = "tensor") -> np.ndarray:
    """The checked float32 values of the next TNSR record of ``fh`` (see ``read_tensor``),
    read in place into the C-contiguous ``out`` when given, else into a fresh writable array.
    A record of other extents than ``out``'s raises ShapeError naming ``what``."""
    _read_magic(fh, _TNSR_MAGIC, "tensor")
    (rank,) = struct.unpack("<I", _read_exact(fh, 4, "tensor header (rank)"))
    if rank > _MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}")
    shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, "tensor header (extents)"))
    if any(e < 1 for e in shape):
        raise FormatError(f"tensor extents must all be >= 1, got {shape}")
    if out is not None and shape != out.shape:
        raise ShapeError(f"{what} has shape {shape}, expected {out.shape}")
    nbytes = 4 * math.prod(shape)
    if out is None and fh.seekable():
        _check_remaining(fh, nbytes, "tensor payload")
        out = np.empty(shape, dtype="<f4")
    if out is None:  # a stream that cannot seek: a writable bytearray of what has arrived
        out = np.frombuffer(_read_exact(fh, nbytes, "tensor payload"), "<f4").reshape(shape)
    elif (got := fh.readinto(memoryview(out).cast("B"))) != nbytes:
        raise FormatError(f"truncated tensor payload: expected {nbytes} bytes, got {got}")
    # checked as stored, so a caller that widens them casts no signaling NaN, in small slices
    flat, step = out.reshape(-1), _READ_CHUNK // 4
    if not all(np.isfinite(flat[lo:lo + step]).all() for lo in range(0, flat.size, step)):
        raise FormatError("tensor payload holds NaN or infinite values")
    return out
