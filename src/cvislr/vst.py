"""Hierarchical 3-D shifted-window video transformers.

A clip of extents (T, H, W, 3) is cut into 2x4x4x3 blocks, each flattened to
a 96-vector and linearly embedded, giving a (T/2, H/4, W/4, C) token grid.
Four stages of window / shifted-window attention blocks follow, with a 2x2
spatial patch merge (channels doubled) between stages, then layer norm,
global average pooling and a linear classification head.

Three model sizes share the layout and differ only in channel width:
small C=96, base C=128, large C=192, with depths (2, 2, 18, 2).  A toy
variant (depths (1, 1, 2, 1), window (2, 2, 2)) keeps the same code path at
desk scale.

Attention windows tile the grid right-padded to window multiples, and
under a cyclic shift a window can hold tokens from several pre-shift
regions.  Padding, shift and regions are all cut along each axis on its
own, so the grid tokens that share a window and a region form a box, one
run of slots per axis.  Attention runs only within these groups.  Padded
positions and cross-region pairs are never computed, which gives the same
result as masking them to -inf before the softmax; ``attention_mask``
returns that equivalent mask for inspection.  Every token is in its own
group, so no softmax row is empty.

A pass with no tracked input streams each block in chunks: attention takes
a few whole groups, and for large groups a few heads, at a time, and the
feed-forward network takes equal row chunks.  No temporary holds more than
``_CHUNK_ENTRIES`` values, or one group's or one row's when that alone is
larger.  Besides its input, such a block holds one token-grid array,
which becomes its output, plus the capped chunks (and briefly one more
array inside its first layer norm), so its memory grows with the batch
size and one window, not with the number of windows in the clip.  A
tracked pass runs the same loop as one chunk and keeps what the backward
pass needs.  Every row sees the same operations in the same order either
way, and equal chunk sizes keep every matmul away from the few-row shapes
that BLAS rounds differently, so both give the same bits.  A model computes
in its parameters' dtype, float32 by default or float64; only the head runs
in float64, so the logits are float64 either way.  The code branches on the
dtype once, in gelu's erf: scipy's in float64, a 7.1-ulp rational in float32.

Each layer is a single tape node with a hand-derived backward: the patch
embedding, every transformer block (from its first layer norm through
attention, the feed-forward network and both residual adds), every patch
merge and the head.  No node only moves data.  As in Video Swin, every
attention block adds a learned relative position bias.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache, partial
from types import MappingProxyType
from typing import BinaryIO

import numpy as np

from .errors import (ContractError, FormatError, GeometryError, NumericError, ShapeError,
                     check_extents, check_int_range, check_positive_int, check_seed, shown)
from .tensor import (Tensor, _check_remaining, _layer_norm, _read_magic, _read_record,
                     _read_text, _result, _seekable, _stream, _tracked, _write_text,
                     write_tensor)

PATCH = (2, 4, 4)
PATCH_FEATURES = PATCH[0] * PATCH[1] * PATCH[2] * 3  # 96

SIZE_CHANNELS = {"small": 96, "base": 128, "large": 192}
TOY_CHANNELS = {"small": 8, "base": 12, "large": 16}

FULL_DEPTHS = (2, 2, 18, 2)
TOY_DEPTHS = (1, 1, 2, 1)
FULL_WINDOW = (8, 7, 7)
TOY_WINDOW = (2, 2, 2)
#: The paper's clip size (T, H, W): the default geometry and the largest accepted.
FULL_GEOMETRY = (32, 224, 224)
#: The most classes a model or a dataset may have: evaluation's confusion
#: matrix then holds 4096**2 int64 counts (134 MB).
MAX_CLASSES = 4096

_INV_SQRT_2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
#: Values in the largest temporary a pass without a tape forms at once: one
#: head span's attention scores, one chunk's qkv rows or FFN hidden rows
#: (1 MB in float32, 2 MB in float64).
_CHUNK_ENTRIES = 2**18
#: float32 erf(x) = x / Q(x^2) * P(x^2) on [-4, 4], Eigen's rational, highest power first.
_ERF_P = np.float32([-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
                     -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
                     -1.60960333262415e-02])
_ERF_Q = np.float32([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                     -7.37332916720468e-03, -1.42647390514189e-02])
_ERF_CHUNK = 2**16  # values the float32 erf takes at once, beside two scratch arrays as long


@dataclass(frozen=True)
class VstConfig:
    """Static description of one video transformer.

    Construction checks every field.  ``size`` must be a key of
    ``SIZE_CHANNELS`` and ``num_classes`` lie in [2, ``MAX_CLASSES``]; no
    ``embed_dim`` may exceed the paper's widest, 192, no stage hold more
    blocks than the paper's (2, 2, 18, 2), nor its effective window more
    tokens than the paper's (8, 7, 7) window, 392.  Each field holds what its check returns.
    """

    size: str
    embed_dim: int
    depths: tuple[int, int, int, int]
    heads: tuple[int, int, int, int]
    window: tuple[int, int, int]
    num_classes: int
    input_geometry: tuple[int, int, int]  # (T, H, W)

    def __post_init__(self):
        if not isinstance(self.size, str) or self.size not in SIZE_CHANNELS:
            raise ContractError(f"unknown size {shown(self.size)}; expected small, base or large")
        store = partial(object.__setattr__, self)
        store("embed_dim", check_positive_int("embed_dim", self.embed_dim))
        widest = max(SIZE_CHANNELS.values())
        if self.embed_dim > widest:
            raise ContractError(f"embed_dim {shown(self.embed_dim)} exceeds the paper's "
                                f"widest, {widest}")
        store("num_classes", check_num_classes(self.num_classes))
        for name, count in (("depths", 4), ("heads", 4), ("window", 3)):
            values = getattr(self, name)
            if not isinstance(values, (tuple, list)) or len(values) != count:
                raise ContractError(f"{name} must be {count} positive integers, "
                                    f"got {shown(values)}")
            store(name, tuple(check_positive_int(f"{name}[{i}]", v) for i, v in enumerate(values)))
        if any(d > m for d, m in zip(self.depths, FULL_DEPTHS)):
            raise ContractError(f"depths {shown(self.depths)} exceed the paper's "
                                f"per-stage depths {FULL_DEPTHS}")
        for s in range(4):
            if (self.embed_dim * 2**s) % self.heads[s]:
                raise ContractError(
                    f"heads[{s}]={shown(self.heads[s])} does not divide stage "
                    f"channels {self.embed_dim * 2**s}")
        store("input_geometry", check_geometry("input_geometry", self.input_geometry))
        # stage_grids raises unless the patch embedding and the merges tile the
        # clip, and no stage's window may hold more tokens than the paper's
        for s, grid in enumerate(stage_grids(self), 1):
            tokens = math.prod(effective_window(grid, self.window))
            if tokens > math.prod(FULL_WINDOW):
                raise ContractError(
                    f"window {shown(self.window)} holds {tokens} tokens of stage {s}'s grid "
                    f"{grid}, more than the paper's {FULL_WINDOW} "
                    f"({math.prod(FULL_WINDOW)} tokens)")

    def stage_channels(self, stage: int) -> int:
        return self.embed_dim * 2**stage


def make_config(size: str, num_classes: int,
                geometry: tuple[int, int, int] = FULL_GEOMETRY) -> VstConfig:
    """Full-scale config: small/base/large -> C 96/128/192, depths (2,2,18,2).

    Head counts follow the stage_channels/32 convention: small (3,6,12,24),
    base (4,8,16,32), large (6,12,24,48).
    """
    key, c = _preset(size, SIZE_CHANNELS)
    heads = tuple(c * 2**s // 32 for s in range(4))
    return VstConfig(size=key, embed_dim=c, depths=FULL_DEPTHS, heads=heads,
                     window=FULL_WINDOW, num_classes=num_classes,
                     input_geometry=geometry)


def make_toy_config(size: str, num_classes: int,
                    geometry: tuple[int, int, int] = (8, 32, 32)) -> VstConfig:
    """Desk-scale config: same layout, C 8/12/16, depths (1,1,2,1).

    Heads are (1, 2, 4, 8) so head width stays C at every stage.
    """
    key, c = _preset(size, TOY_CHANNELS)
    return VstConfig(size=key, embed_dim=c, depths=TOY_DEPTHS, heads=(1, 2, 4, 8),
                     window=TOY_WINDOW, num_classes=num_classes,
                     input_geometry=geometry)


def _preset(size, channels: dict[str, int]) -> tuple[str, int]:
    """``size`` lower-cased and its channel width in ``channels``, else ContractError."""
    key = size.lower() if isinstance(size, str) else None
    if key not in channels:
        raise ContractError(f"unknown size {shown(size)}; expected small, base or large")
    return key, channels[key]


# ---------------------------------------------------------------------------
# geometry


def check_geometry(name: str, geometry, limit: tuple[int, int, int] = FULL_GEOMETRY,
                   what: str = "the paper's clip size") -> tuple[int, int, int]:
    """``geometry`` as ints; raises unless it is three integer extents (T, H, W),
    each at least 1 and at most ``limit``, which ``what`` names: ContractError
    for the wrong kind of value, GeometryError for an extent out of range."""
    geometry = check_extents(name, geometry)
    if not all(1 <= g <= m for g, m in zip(geometry, limit)):
        raise GeometryError(f"{name} {shown(geometry)} must lie between (1, 1, 1) and "
                            f"{what} {limit}")
    return geometry


def check_num_classes(num_classes) -> int:
    """``num_classes`` as an int; ContractError unless it is an integer in [2, MAX_CLASSES]."""
    return check_int_range("num_classes", num_classes, 2, MAX_CLASSES)


def token_grid_extents(geometry: tuple[int, int, int]) -> tuple[int, int, int]:
    """Token extents (T/2, H/4, W/4) after patch embedding."""
    t, h, w = geometry
    if t < 2 or t % 2 or h < 4 or h % 4 or w < 4 or w % 4:
        raise GeometryError(
            f"clip geometry {geometry} not divisible by patch {PATCH}")
    return t // 2, h // 4, w // 4


def stage_grids(cfg: VstConfig) -> list[tuple[int, int, int]]:
    """Token extents entering each of the four stages."""
    t, h, w = token_grid_extents(cfg.input_geometry)
    grids = [(t, h, w)]
    for _ in range(3):
        if h % 2 or w % 2:
            raise GeometryError(
                f"patch merge needs even spatial extents, got ({t}, {h}, {w})")
        h, w = h // 2, w // 2
        grids.append((t, h, w))
    return grids


def effective_window(grid: tuple[int, int, int],
                     window: tuple[int, int, int]) -> tuple[int, int, int]:
    """Clamp the window to the grid along axes the grid cannot fill."""
    return tuple(min(g, w) for g, w in zip(grid, window))


def shift_offsets(grid: tuple[int, int, int],
                  window: tuple[int, int, int]) -> tuple[int, int, int]:
    """Half-window shifts; zero along axes covered by a single window."""
    eff = effective_window(grid, window)
    return tuple(w // 2 if g > w else 0 for g, w in zip(grid, eff))


# ---------------------------------------------------------------------------
# window bookkeeping (pure numpy constants, cached)


@lru_cache(maxsize=None)
def rel_position_index(window: tuple[int, int, int]) -> np.ndarray:
    """Flattened pairwise offset index into a (2wT-1)(2wH-1)(2wW-1) table."""
    coords = np.indices(window).reshape(3, -1)
    rel = coords[:, :, None] - coords[:, None, :] + np.subtract(window, 1)[:, None, None]
    return np.ravel_multi_index(rel, [2 * w - 1 for w in window])


def rel_table_rows(window: tuple[int, int, int]) -> int:
    return math.prod(2 * w - 1 for w in window)


def _axis_windows(g: int, w: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Pre-shift label and grid coordinate of each window slot of one axis.

    The axis is right-padded to a multiple p of the window w and rolled back
    by the shift s, so slot x holds coordinate (x + s) mod p.  Labels code
    the pre-shift region: interior 0, the tail window's unwrapped part 1 and
    its wrapped part 2.  Returns two (windows, w) arrays, -1 at the padded
    slots, which are one run [g - s, p - s) ending where label 1 ends.
    """
    p = -(-g // w) * w
    label = np.zeros(p, dtype=np.int64)
    if s:
        label[p - w:p - s] = 1
        label[p - s:] = 2
    coord = (np.arange(p) + s) % p
    pad = coord >= g
    label[pad] = coord[pad] = -1
    return label.reshape(-1, w), coord.reshape(-1, w)


@lru_cache(maxsize=None)
def _attention_groups(grid: tuple[int, int, int], window: tuple[int, int, int],
                      offsets: tuple[int, int, int]):
    """Grid tokens grouped for attention, as read-only index tables.

    A group is the set of grid tokens that share a window and a pre-shift
    region: exactly the tokens that may attend to each other.  Along each
    axis, one window's unpadded slots of one label (see :func:`_axis_windows`)
    are a run of consecutive slots and coordinates, so a group is the box
    product of three runs.  Returns ``(order, inverse, buckets)``.  ``order``
    lists every grid token once, group by group (window-major, then in label
    order), each group in in-window row-major order, and ``inverse`` maps
    group order back to grid order.  Each bucket ``(start, groups, n, rel)``
    covers ``order[start:start + groups * n]``: the groups of one box shape,
    in order of first appearance, whose relative position index is the
    (n, n) sub-matrix ``rel`` of :func:`rel_position_index`.
    """
    lengths, starts = [], []
    for g, w, s in zip(grid, window, offsets):
        labels, coords = _axis_windows(g, w, s)
        runs = labels[:, None] == np.arange(3)[:, None]  # (windows, label, slot)
        lengths.append(runs.sum(axis=2))
        starts.append(np.where(runs, coords[:, None], g).min(axis=2))

    def boxes(per_axis):  # (3, groups) per-axis run products, window-major
        shape = [d for a in per_axis for d in a.shape]
        return np.stack([a.reshape(shape).transpose(0, 2, 4, 1, 3, 5).reshape(-1)
                         for a in np.meshgrid(*per_axis, indexing="ij")])

    shapes = boxes(lengths)
    real = shapes.all(axis=0)
    shapes, firsts = shapes[:, real], np.ravel_multi_index(boxes(starts)[:, real], grid)
    _, seen, which = np.unique(np.ravel_multi_index(shapes, np.add(window, 1)),
                               return_index=True, return_inverse=True)
    buckets, members, start = [], [], 0
    for b in np.argsort(seen):
        box = np.indices(shapes[:, seen[b]]).reshape(3, -1)
        pos = np.ravel_multi_index(box, window)
        rel = rel_position_index(window)[np.ix_(pos, pos)]
        rel.setflags(write=False)
        tokens = firsts[which == b][:, None] + np.ravel_multi_index(box, grid)
        buckets.append((start, tokens.shape[0], pos.size, rel))
        members.append(tokens.ravel())
        start += tokens.size
    order = np.concatenate(members)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    order.setflags(write=False)
    inverse.setflags(write=False)
    return order, inverse, tuple(buckets)


def attention_mask(grid_extents: tuple[int, int, int],
                   window: tuple[int, int, int],
                   offsets: tuple[int, int, int]) -> np.ndarray:
    """Per-window additive attention mask for a (possibly shifted) grid.

    Entry [k, i, j] is 0 when tokens i, j of window k may attend (same
    pre-shift region along every axis, neither padded, or i == j), else
    -inf.  Each argument is three integers.  The grid may be no larger than
    the paper clip's token grid, and the mask no larger than that grid's
    mask under the paper's window (157 MB); anything else raises a CvislrError.
    """
    limit = token_grid_extents(FULL_GEOMETRY)
    grid_extents = check_geometry("grid_extents", grid_extents, limit,
                                  "the paper clip's token grid")
    window, offsets = check_extents("window", window), check_extents("offsets", offsets)
    if any(w < 1 for w in window):
        raise ContractError(f"window {shown(window)} must be positive")
    window = effective_window(grid_extents, window)
    if any(not 0 <= o < w for o, w in zip(offsets, window)):
        raise ContractError(f"offsets {shown(offsets)} must lie in [0, window) {window}")
    if _mask_entries(grid_extents, window) > _mask_entries(limit, FULL_WINDOW):
        raise GeometryError(f"the mask of window {window} on grid {grid_extents} would be "
                            f"larger than the paper clip's")
    # the AND of the three axes' (windows, w, w) pair tables
    pt, ph, pw = ((labels[:, :, None] == labels[:, None, :]) & (labels[:, :, None] >= 0)
                  for labels, _ in map(_axis_windows, grid_extents, window, offsets))
    length = math.prod(window)
    allowed = (pt[:, None, None, :, None, None, :, None, None]
               & ph[None, :, None, None, :, None, None, :, None]
               & pw[None, None, :, None, None, :, None, None, :]).reshape(-1, length, length)
    allowed |= np.eye(length, dtype=bool)  # every token sees itself
    return np.where(allowed, 0.0, -np.inf)


def _mask_entries(grid, window) -> int:
    """Entries of the (num_windows, L, L) mask of ``window`` on ``grid``."""
    return math.prod(-(-g // w) for g, w in zip(grid, window)) * math.prod(window) ** 2


def _even_spans(total: int, most: int) -> list[tuple[int, int]]:
    """``range(total)`` cut into the fewest spans of at most ``most`` (or 1) each.

    Span sizes differ by at most one.  A short remainder span would give its
    matmul few rows, and BLAS rounds a one-row product (a gemv) differently
    from the same rows of a larger one.
    """
    k = -(-total // max(1, most))
    return [(total * i // k, total * (i + 1) // k) for i in range(k)]


def _attention_chunks(buckets, tokens: int, batch: int, heads: int, c: int, keep: bool):
    """Spans ``(lo, hi, parts)`` of group order that a block attends one at a time.

    Each part ``(start, count, n, rel, head_spans)`` is ``count`` groups of one
    bucket, from group-order token ``start``, attended one head span at a
    time.  A tracked pass is one chunk of every bucket with all heads.  A
    pass without a tape cuts the heads into equal spans, and a bucket into
    equal chunks of whole groups, so that a head span's scores and a chunk's
    qkv rows each hold at most ``_CHUNK_ENTRIES`` values, or one group's (one
    head's) when that alone is larger.  A bucket that fits whole joins the
    previous chunk of whole buckets while their qkv rows fit together, so no
    small bucket is left to a matmul of a few rows.
    """
    if keep:
        return [(0, tokens, [(*bucket, [(0, heads)]) for bucket in buckets])]
    chunks, packing = [], False
    for start, groups, n, rel in buckets:
        head_spans = _even_spans(heads, _CHUNK_ENTRIES // (batch * n * n))
        span_heads = -(-heads // len(head_spans))
        group_values = batch * n * max(3 * c, span_heads * n)
        pieces = _even_spans(groups, _CHUNK_ENTRIES // group_values)
        whole = len(pieces) == 1
        for g0, g1 in pieces:
            lo, hi = start + g0 * n, start + g1 * n
            part = (lo, g1 - g0, n, rel, head_spans)
            if packing and whole and batch * (hi - chunks[-1][0]) * 3 * c <= _CHUNK_ENTRIES:
                chunks[-1] = (chunks[-1][0], hi, [*chunks[-1][2], part])
            else:
                chunks.append((lo, hi, [part]))
        packing = whole
    return chunks


# ---------------------------------------------------------------------------
# parameters


def _block_spec(cs: int, table_rows: int, heads: int) -> dict[str, tuple[int, ...]]:
    """Name suffix -> shape for the parameters of one transformer block."""
    return {
        "norm1.gain": (cs,), "norm1.bias": (cs,),
        "attn.qkv.weight": (cs, 3 * cs), "attn.qkv.bias": (3 * cs,),
        "attn.rel_bias.table": (table_rows, heads),
        "attn.proj.weight": (cs, cs), "attn.proj.bias": (cs,),
        "norm2.gain": (cs,), "norm2.bias": (cs,),
        "ffn.fc1.weight": (cs, 4 * cs), "ffn.fc1.bias": (4 * cs,),
        "ffn.fc2.weight": (4 * cs, cs), "ffn.fc2.bias": (cs,),
    }


@lru_cache(maxsize=None)
def param_spec(cfg: VstConfig) -> MappingProxyType[str, tuple[int, ...]]:
    """Ordered name -> shape table for every learnable tensor, read-only, built once per config."""
    c = cfg.embed_dim
    spec: dict[str, tuple[int, ...]] = {
        "embed.proj.weight": (PATCH_FEATURES, c),
        "embed.proj.bias": (c,),
        "embed.norm.gain": (c,),
        "embed.norm.bias": (c,),
    }
    grids = stage_grids(cfg)
    for s in range(4):
        cs = cfg.stage_channels(s)
        block = _block_spec(cs, rel_table_rows(effective_window(grids[s], cfg.window)),
                            cfg.heads[s])
        for b in range(cfg.depths[s]):
            spec.update((f"stage{s + 1}.block{b + 1}.{k}", v) for k, v in block.items())
        if s < 3:
            spec[f"merge{s + 1}.norm.gain"] = (4 * cs,)
            spec[f"merge{s + 1}.norm.bias"] = (4 * cs,)
            spec[f"merge{s + 1}.proj.weight"] = (4 * cs, 2 * cs)
    c_out = cfg.stage_channels(3)
    spec["head.norm.gain"] = (c_out,)
    spec["head.norm.bias"] = (c_out,)
    spec["head.fc.weight"] = (c_out, cfg.num_classes)
    spec["head.fc.bias"] = (cfg.num_classes,)
    return MappingProxyType(spec)


def _param_slots(spec: MappingProxyType[str, tuple[int, ...]], dtype) -> dict[str, np.ndarray]:
    """Name -> a C-contiguous view of one zeroed ``dtype`` buffer, laid out in ``spec`` order."""
    ends = np.cumsum([math.prod(shape) for shape in spec.values()])
    runs = np.split(np.zeros(ends[-1], dtype=dtype), ends[:-1])
    return {name: run.reshape(shape) for (name, shape), run in zip(spec.items(), runs)}


def init_params(cfg: VstConfig, seed: int = 0, dtype=np.float32) -> dict[str, Tensor]:
    """Fresh ``dtype`` parameters in one buffer, in ``param_spec`` order: N(0, 0.02) weights
    drawn ``_CHUNK_ENTRIES`` float64 values at a time into place, zero biases, unit gains."""
    check_seed(seed)
    if dtype not in (np.float32, np.float64):
        raise ContractError(f"dtype must be np.float32 or np.float64, got {shown(dtype)}")
    rng = np.random.Generator(np.random.Philox(seed))
    slots = _param_slots(param_spec(cfg), dtype)
    for name, slot in slots.items():
        if name.endswith(".gain"):
            slot.fill(1.0)
        elif not name.endswith(".bias"):
            for lo in range(0, slot.size, _CHUNK_ENTRIES):
                run = slot.reshape(-1)[lo:lo + _CHUNK_ENTRIES]
                run[...] = rng.normal(0.0, 0.02, size=run.size)
    return {name: Tensor(slot, requires_grad=True) for name, slot in slots.items()}


def _check_params(cfg: VstConfig, params: dict[str, Tensor]) -> None:
    spec = param_spec(cfg)
    missing = [n for n in spec if n not in params]
    if missing:
        raise ContractError(f"params missing {len(missing)} entries, e.g. {missing[0]!r}")
    unknown = [n for n in params if n not in spec]
    if unknown:
        raise ContractError(f"params hold {len(unknown)} entries the config does "
                            f"not define, e.g. {unknown[0]!r}")
    for name, shape in spec.items():
        if params[name].shape != shape:
            raise ShapeError(f"param {name!r} has shape {params[name].shape}, "
                             f"expected {shape}")
    dtypes = {p.data.dtype for p in params.values()}  # dtype.name is a slow Python property
    if dtypes not in ({np.dtype(np.float32)}, {np.dtype(np.float64)}):
        dtypes = sorted(d.name for d in dtypes)
        raise ContractError(f"params must all be float32 or all float64, got {dtypes}")


# ---------------------------------------------------------------------------
# forward pieces


def _erf_in_place(x: np.ndarray) -> np.ndarray:
    """erf of the C-contiguous ``x``, into ``x``: scipy's exact erf, or in float32 and without
    scipy the rational ``_ERF_P`` / ``_ERF_Q`` on x clamped to [-4, 4], within 7.1 ulp."""
    if x.dtype != np.float32:
        from scipy.special import erf  # here, so a float32 process never imports scipy
        return erf(x, out=x)
    flat = x.reshape(-1)
    np.clip(flat, -4.0, 4.0, out=flat)
    squares, polys = np.empty((2, min(flat.size, _ERF_CHUNK)), dtype=np.float32)
    for lo in range(0, flat.size, _ERF_CHUNK):
        v = flat[lo:lo + _ERF_CHUNK]
        sq, poly = np.multiply(v, v, out=squares[:v.size]), polys[:v.size]
        # x / Q, then times P: a product x * P of a tiny x would round as a subnormal
        for coefs, apply in ((_ERF_Q, np.divide), (_ERF_P, np.multiply)):
            np.multiply(sq, coefs[0], out=poly)  # Horner in x^2
            for c in coefs[1:-1]:
                poly += c
                poly *= sq
            poly += coefs[-1]
            apply(v, poly, out=v)
    return x


def _layer_params(params: dict[str, Tensor], prefix: str,
                  shapes: dict[str, tuple[int, ...]]) -> tuple[Tensor, ...]:
    """``params[f"{prefix}.{key}"]`` for each key of ``shapes``: ContractError names the
    first one missing, else ShapeError the first whose shape is not its entry."""
    names = [f"{prefix}.{key}" for key in shapes]
    for name in names:
        if name not in params:
            raise ContractError(f"params missing {name!r}")
    for name, shape in zip(names, shapes.values()):
        if params[name].shape != shape:
            raise ShapeError(f"param {name!r} has shape {params[name].shape}, expected {shape}")
    return tuple(params[name] for name in names)


def patch_partition_embed(clip: Tensor, cfg: VstConfig,
                          params: dict[str, Tensor]) -> Tensor:
    """(B, T, H, W, 3) clips -> (B, T/2, H/4, W/4, C) tokens, as one tape node.

    Each 2x4x4x3 block is flattened in (t, h, w, rgb) order, in the
    parameters' dtype, projected and layer-normed.  An untracked clip gets no
    gradient.
    """
    if clip.ndim != 5 or clip.shape[-1] != 3:
        raise GeometryError(f"expected clip extents (B, T, H, W, 3), got {clip.shape}")
    b, t, h, w, _ = clip.shape
    gt, gh, gw = token_grid_extents((t, h, w))
    pt, ph, pw = PATCH
    c = cfg.embed_dim
    parents = (clip, *_layer_params(params, "embed", {
        "proj.weight": (PATCH_FEATURES, c), "proj.bias": (c,),
        "norm.gain": (c,), "norm.bias": (c,)}))
    wproj, bproj, gain, bias = (p.data for p in parents[1:])
    flat = np.ascontiguousarray(
        clip.data.reshape(b, gt, pt, gh, ph, gw, pw, 3).transpose(0, 1, 3, 5, 2, 4, 6, 7),
        dtype=wproj.dtype).reshape(-1, PATCH_FEATURES)
    out, ln = _layer_norm(flat @ wproj + bproj, gain, bias)

    def bwd(g):
        dpre, dgain, dbias = ln(g.reshape(-1, c))
        dclip = None
        if _tracked(clip):
            dclip = np.ascontiguousarray(
                (dpre @ wproj.T).reshape(b, gt, gh, gw, pt, ph, pw, 3)
                .transpose(0, 1, 4, 2, 5, 3, 6, 7), dtype=clip.data.dtype).reshape(clip.shape)
        return dclip, flat.T @ dpre, dpre.sum(axis=0), dgain, dbias

    return _result(out.reshape(b, gt, gh, gw, c), "embed", parents, bwd)


def wmsa_block(grid: Tensor, params: dict[str, Tensor], cfg: VstConfig,
               shifted: bool, stage: int = 0, block: int = 0) -> Tensor:
    """Transformer block z' = z + MSA(LN(z)); out = z' + FFN(LN(z')), as one tape node.

    MSA gathers the tokens into attention groups (see :func:`_attention_groups`)
    and attends within each group, with the relative position bias, so no
    padded position or cross-region pair is computed.  FFN is fc1, the exact
    erf gelu x * Phi(x), then fc2; erf is scipy's in float64, a 7.1-ulp rational in float32.
    The backward pass is the chain's closed form; softmax's is dS = P * (dP - rowsum(dP * P)).

    A pass with no tracked input keeps no backward state and runs the block
    in capped chunks (see :func:`_attention_chunks`): groups, then heads, for
    attention, and rows for the FFN.  A tracked pass is the same loop with a
    single chunk, and both give the same bits.
    """
    if grid.ndim != 5:
        raise ShapeError(f"wmsa_block needs a (B, T, H, W, C) grid, got {grid.shape}")
    b, t, h, w, c = grid.shape
    stage = check_int_range("stage", stage, 0, 3)
    if c != cfg.stage_channels(stage):
        raise ShapeError(f"grid channels {c} != stage {stage + 1} channels "
                         f"{cfg.stage_channels(stage)}")
    win = effective_window((t, h, w), cfg.window)
    heads = cfg.heads[stage]
    parents = (grid, *_layer_params(params, f"stage{stage + 1}.block{block + 1}",
                                    _block_spec(c, rel_table_rows(win), heads)))
    keep = any(_tracked(p) for p in parents)
    (n1g, n1b, wqkv, bqkv, table, wproj, bproj,
     n2g, n2b, w1, b1, w2, b2) = (p.data for p in parents[1:])
    offsets = shift_offsets((t, h, w), cfg.window) if shifted else (0, 0, 0)
    order, inverse, buckets = _attention_groups((t, h, w), win, offsets)
    head_dim = c // heads
    scale = 1.0 / math.sqrt(head_dim)

    # LN1 in grid order, gathered chunk by chunk; once a chunk is gathered, its
    # rows of the buffer take the chunk's attention output, z1
    z1, ln1 = _layer_norm(grid.data, n1g, n1b)
    z1 = z1.reshape(b, -1, c)
    table_t = np.ascontiguousarray(table.T)  # (heads, table rows)
    saved = []  # (q, k, v, p) per bucket, each (B, groups, heads, n, .)
    # a tracked pass is one chunk, so after the loop ``tokens`` and ``o`` span
    # the whole block in group order, as its backward pass needs
    for lo, hi, parts in _attention_chunks(buckets, order.size, b, heads, c, keep):
        rows = order[lo:hi]
        tokens = np.take(z1, rows, axis=1).reshape(-1, c)
        qkv = tokens @ wqkv
        qkv += bqkv
        if not keep:  # a pass without a tape keeps no backward state
            del tokens
        qkv = qkv.reshape(b, hi - lo, 3, heads, head_dim)
        o = np.empty((b, hi - lo, heads, head_dim), dtype=z1.dtype)
        for start, count, n, rel, head_spans in parts:
            span = slice(start - lo, start - lo + count * n)
            src = qkv[:, span].reshape(b, count, n, 3, heads, head_dim).transpose(3, 0, 1, 4, 2, 5)
            dst = o[:, span].reshape(b, count, n, heads, head_dim).transpose(0, 1, 3, 2, 4)
            for h0, h1 in head_spans:
                q, k, v = np.ascontiguousarray(src[:, :, :, h0:h1])
                q *= scale
                p = q @ k.swapaxes(-1, -2)  # scores, then probabilities, in place
                p += np.take(table_t[h0:h1], rel, axis=1)
                # NaN and +inf propagate into the row max, and a row of -inf
                # scores has a max of -inf, so the row max alone decides
                # whether the softmax is defined
                amax = p.max(axis=-1, keepdims=True)
                if not np.isfinite(amax).all():
                    if np.isnan(amax).any() or np.isposinf(amax).any():
                        raise NumericError("window attention scores contain NaN or +inf")
                    raise NumericError("window attention score row is entirely -inf")
                p -= amax
                np.exp(p, out=p)
                p /= p.sum(axis=-1, keepdims=True)
                np.matmul(p, v, out=dst[:, :, h0:h1])
                if keep:
                    saved.append((q, k, v, p))
                del q, k, v, p, amax  # before the next head span's
        del qkv, src, dst  # src views qkv: free it before the projection
        o = o.reshape(-1, c)
        z = o @ wproj
        z += bproj
        z1[:, rows] = z.reshape(b, -1, c)
        del z
        if not keep:
            del o  # before the next chunk's
    z1 = z1.reshape(-1, c)
    z1 += grid.data.reshape(-1, c)
    if not keep:
        del ln1

    # a pass without a tape adds the FFN into z1's buffer, row chunk by row chunk
    out = np.empty_like(z1) if keep else z1
    # a tracked pass is one chunk; a pass without a tape takes as many rows
    # as _CHUNK_ENTRIES hidden values hold, or one
    most = z1.shape[0] if keep else _CHUNK_ENTRIES // (4 * c)
    for lo, hi in _even_spans(z1.shape[0], most):
        zn, ln2 = _layer_norm(z1[lo:hi], n2g, n2b)
        hid = zn @ w1
        hid += b1
        if not keep:
            del zn, ln2
        cdf = _erf_in_place(hid * _INV_SQRT_2)  # Phi(hid) = (1 + erf(hid / sqrt 2)) / 2
        cdf += 1.0
        cdf *= 0.5
        if keep:
            act = hid * cdf
        else:  # gelu in Phi's buffer
            act = cdf
            act *= hid
            del hid, cdf
        y = act @ w2
        y += b2
        np.add(y, z1[lo:hi], out=out[lo:hi])
        if not keep:
            del act, y  # before the next chunk's

    def bwd(g):
        gf = np.ascontiguousarray(g).reshape(-1, c)
        pdf = np.exp(-0.5 * hid * hid) * _INV_SQRT_2PI
        dh = (gf @ w2.T) * (cdf + hid * pdf)
        dz1, dn2g, dn2b = ln2(dh @ w1.T)
        dz1 += gf
        ffn = (dn2g, dn2b, zn.T @ dh, dh.sum(axis=0), act.T @ gf, gf.sum(axis=0))

        gy = np.take(dz1.reshape(b, -1, c), order, axis=1).reshape(-1, c)
        do = (gy @ wproj.T).reshape(b, -1, heads, head_dim)
        dqkv = np.empty((b, order.size, 3, heads, head_dim), dtype=gy.dtype)
        dtable = np.zeros_like(table)
        for (start, groups, n, rel), (q, k, v, p) in zip(buckets, saved):
            span = slice(start, start + groups * n)
            dob = (do[:, span].reshape(b, groups, n, heads, head_dim)
                   .transpose(0, 1, 3, 2, 4))
            dst = (dqkv[:, span].reshape(b, groups, n, 3, heads, head_dim)
                   .transpose(3, 0, 1, 4, 2, 5))  # a view: dq, dk, dv land in dqkv
            dst[2] = p.swapaxes(-1, -2) @ dob
            ds = dob @ v.swapaxes(-1, -2)
            ds -= np.einsum("...ij,...ij->...i", ds, p)[..., None]
            ds *= p
            dst[0] = (ds @ k) * scale
            dst[1] = ds.swapaxes(-1, -2) @ q
            # one bincount for all heads: head h's offset r counts in bin h * len(table) + r
            at = (rel.reshape(-1) + len(table) * np.arange(heads)[:, None]).reshape(-1)
            dtable += np.bincount(at, weights=ds.sum(axis=(0, 1)).reshape(-1),
                                  minlength=table.size).reshape(heads, -1).T
        dqkv = dqkv.reshape(-1, 3 * c)
        # a strided gather, unlike np.take: LN1's bias gradient sums in its order
        gx = (dqkv @ wqkv.T).reshape(b, -1, c)[:, inverse]
        dz, dn1g, dn1b = ln1(gx.reshape(g.shape))
        dz += dz1.reshape(g.shape)
        return (dz, dn1g, dn1b, tokens.T @ dqkv, dqkv.sum(axis=0), dtable,
                o.T @ gy, gy.sum(axis=0), *ffn)

    return _result(out.reshape(grid.shape), "block", parents, bwd)


def patch_merge(grid: Tensor, params: dict[str, Tensor], stage: int = 0) -> Tensor:
    """Concatenate 2x2 spatial neighborhoods, LN, project 4C -> 2C, as one tape node."""
    if grid.ndim != 5:
        raise ShapeError(f"patch_merge needs a (B, T, H, W, C) grid, got {grid.shape}")
    b, t, h, w, c = grid.shape
    if h % 2 or w % 2:
        raise GeometryError(f"patch merge needs even spatial extents, got ({t}, {h}, {w})")
    parents = (grid, *_layer_params(params, f"merge{stage + 1}", {
        "norm.gain": (4 * c,), "norm.bias": (4 * c,), "proj.weight": (4 * c, 2 * c)}))
    gain, bias, wproj = (p.data for p in parents[1:])
    xn, ln = _layer_norm(np.ascontiguousarray(
        grid.data.reshape(b, t, h // 2, 2, w // 2, 2, c).transpose(0, 1, 2, 4, 3, 5, 6)
    ).reshape(-1, 4 * c), gain, bias)
    out = xn @ wproj

    def bwd(g):
        gf = g.reshape(-1, 2 * c)
        dx, dgain, dbias = ln(gf @ wproj.T)
        dgrid = np.ascontiguousarray(
            dx.reshape(b, t, h // 2, w // 2, 2, 2, c).transpose(0, 1, 2, 4, 3, 5, 6))
        return dgrid.reshape(grid.shape), dgain, dbias, xn.T @ gf

    return _result(out.reshape(b, t, h // 2, w // 2, 2 * c), "merge", parents, bwd)


def head(grid: Tensor, params: dict[str, Tensor]) -> Tensor:
    """(B, T, H, W, C) grid -> (B, num_classes) float64 scores, as one tape node.

    Layer norm, the mean over each clip's tokens, then the fc layer, all in
    float64; the backward rule rounds each gradient to its input's dtype.
    """
    if grid.ndim != 5:
        raise ShapeError(f"head needs a (B, T, H, W, C) grid, got {grid.shape}")
    c = grid.shape[-1]
    k = params["head.fc.bias"].size if "head.fc.bias" in params else 0  # the class count
    parents = (grid, *_layer_params(params, "head", {
        "norm.gain": (c,), "norm.bias": (c,), "fc.weight": (c, k), "fc.bias": (k,)}))
    x, gain, bias, wfc, bfc = (p.data.astype(np.float64, copy=False) for p in parents)
    xn, ln = _layer_norm(x, gain, bias)
    pooled = xn.mean(axis=(1, 2, 3))

    def bwd(g):
        dpooled = np.expand_dims(g @ wfc.T, (1, 2, 3))
        dx, dgain, dbias = ln(np.broadcast_to(dpooled, grid.shape).astype(np.float64, copy=True)
                              / math.prod(grid.shape[1:4]))
        grads = (dx, dgain, dbias, pooled.T @ g, g.sum(axis=0))
        return tuple(d.astype(p.data.dtype, copy=False) for d, p in zip(grads, parents))

    return _result(pooled @ wfc + bfc, "head", parents, bwd)


def forward_batch(clips: Tensor, cfg: VstConfig, params: dict[str, Tensor]) -> Tensor:
    """(B, T, H, W, 3) -> (B, num_classes) class scores."""
    if clips.ndim != 5:
        raise GeometryError(f"expected batched clips (B, T, H, W, 3), got {clips.shape}")
    if clips.shape[1:] != (*cfg.input_geometry, 3):
        raise GeometryError(f"clip extents {clips.shape[1:]} do not match "
                            f"configured geometry {(*cfg.input_geometry, 3)}")
    _check_params(cfg, params)
    x = patch_partition_embed(clips, cfg, params)
    for s in range(4):
        for blk in range(cfg.depths[s]):
            x = wmsa_block(x, params, cfg, shifted=bool(blk % 2), stage=s, block=blk)
        if s < 3:
            x = patch_merge(x, params, stage=s)
    return head(x, params)


# ---------------------------------------------------------------------------
# checkpoint: magic "VSTC", length-prefixed key=value header, then
# (u32 name length, name, TNSR record) per parameter.  The header's patch,
# use_rel_pos_bias and drop_path_rate lines are fixed fields of the format:
# writers emit PATCH, 1 and 0.0; readers require PATCH and 1 and accept any
# rate in [0, 1), since stochastic depth only ever affected training.

_VSTC_MAGIC = b"VSTC"


def _config_header(cfg: VstConfig) -> bytes:
    lines = [
        f"size={cfg.size}",
        f"embed_dim={cfg.embed_dim}",
        "depths=" + ",".join(map(str, cfg.depths)),
        "heads=" + ",".join(map(str, cfg.heads)),
        "window=" + ",".join(map(str, cfg.window)),
        "patch=" + ",".join(map(str, PATCH)),
        f"num_classes={cfg.num_classes}",
        "input_geometry=" + ",".join(map(str, cfg.input_geometry)),
        "use_rel_pos_bias=1",
        "drop_path_rate=0.0",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _parse_header(text: str) -> VstConfig:
    fields: dict[str, str] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if "=" not in line:
            raise FormatError(f"malformed checkpoint header line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in fields:
            raise FormatError(f"checkpoint header repeats {key!r}")
        fields[key] = value.strip()
    required = {"size", "embed_dim", "depths", "heads", "window", "patch",
                "num_classes", "input_geometry", "use_rel_pos_bias",
                "drop_path_rate"}
    missing = required - fields.keys()
    if missing:
        raise FormatError(f"checkpoint header missing {sorted(missing)}")

    def ints(key):
        return tuple(int(v) for v in fields[key].split(","))

    try:
        if ints("patch") != PATCH:
            raise ContractError(f"patch is fixed at {PATCH}")
        if fields["use_rel_pos_bias"] != "1":
            raise ContractError("use_rel_pos_bias is fixed at 1")
        if not 0.0 <= float(fields["drop_path_rate"]) < 1.0:
            raise ContractError("drop_path_rate must lie in [0, 1)")
        return VstConfig(
            size=fields["size"], embed_dim=int(fields["embed_dim"]),
            depths=ints("depths"), heads=ints("heads"), window=ints("window"),
            num_classes=int(fields["num_classes"]),
            input_geometry=ints("input_geometry"),
        )
    except (ValueError, ContractError) as e:
        raise FormatError(f"invalid checkpoint header: {e}") from e


def save_checkpoint(f: str | os.PathLike | BinaryIO, cfg: VstConfig,
                    params: dict[str, Tensor]) -> None:
    """Write config + parameters; values are stored as f32.

    A parameter value that is NaN or infinite in float32 raises NumericError
    naming the parameter; a path then keeps its old bytes (see ``_stream``).
    """
    _check_params(cfg, params)
    with _stream(f, "wb") as fh:
        fh.write(_VSTC_MAGIC)
        _write_text(fh, _config_header(cfg))
        for name, tensor in params.items():
            _write_text(fh, name)
            try:
                write_tensor(fh, tensor)
            except NumericError as e:
                raise NumericError(f"parameter {name!r}: {e}") from e


def load_checkpoint(f: str | os.PathLike | BinaryIO) -> tuple[VstConfig, dict[str, Tensor]]:
    """Read a checkpoint into trainable float32 tensors, as stored, in one buffer laid out as
    by ``init_params``: once the stream holds 4 bytes per value, each record is read in place,
    and an unknown, repeated or misshapen one refused as it is met, a missing one after."""
    params: dict[str, Tensor] = {}
    with _stream(f, "rb") as fh:
        fh = _seekable(fh)
        _read_magic(fh, _VSTC_MAGIC, "checkpoint")
        cfg = _parse_header(_read_text(fh, "checkpoint header"))
        spec = param_spec(cfg)
        _check_remaining(fh, 4 * sum(map(math.prod, spec.values())), "checkpoint parameters")
        slots = _param_slots(spec, np.float32)
        try:
            while (name := _read_text(fh, "parameter name", end_ok=True)) is not None:
                if name in params:
                    raise FormatError(f"duplicate parameter {name!r} in checkpoint")
                if name not in slots:
                    raise ContractError("params hold 1 entries the config does not define, "
                                        f"e.g. {name!r}")
                params[name] = Tensor(_read_record(fh, slots[name], f"param {name!r}"),
                                      requires_grad=True)
            _check_params(cfg, params)
        except (ContractError, ShapeError) as e:
            raise FormatError(f"checkpoint records do not match its header: {e}") from e
    return cfg, params

