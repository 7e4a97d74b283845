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
regions.  Attention runs only within groups: the grid tokens that share a
window and a region.  Padded positions and cross-region pairs are never
computed, which gives the same result as masking them to -inf before the
softmax; ``attention_mask`` returns that equivalent mask for inspection.
Every token is in its own group, so no softmax row is empty.

Each block's window attention, from the token gather to the output
projection, is a single tape node with a hand-derived backward.  As in
Video Swin, every attention block adds a learned relative position bias.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO

import numpy as np

from .errors import ContractError, FormatError, GeometryError, NumericError, ShapeError
from .tensor import (
    Tensor,
    _read_exact,
    _read_text,
    _result,
    add,
    gelu,
    layer_norm,
    matmul,
    permute,
    reshape,
    tensor_mean,
)

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


@dataclass(frozen=True)
class VstConfig:
    """Static description of one video transformer."""

    size: str
    embed_dim: int
    depths: tuple[int, int, int, int]
    heads: tuple[int, int, int, int]
    window: tuple[int, int, int]
    num_classes: int
    input_geometry: tuple[int, int, int]  # (T, H, W)

    def __post_init__(self):
        if self.embed_dim < 1 or self.num_classes < 1:
            raise ContractError("embed_dim and num_classes must be positive")
        if len(self.depths) != 4 or any(d < 1 for d in self.depths):
            raise ContractError(f"depths must be four positive integers, got {self.depths}")
        if len(self.heads) != 4 or any(h < 1 for h in self.heads):
            raise ContractError(f"heads must be four positive integers, got {self.heads}")
        if len(self.window) != 3 or any(w < 1 for w in self.window):
            raise ContractError(f"window must be three positive integers, got {self.window}")
        for s in range(4):
            if (self.embed_dim * 2**s) % self.heads[s]:
                raise ContractError(
                    f"heads[{s}]={self.heads[s]} does not divide stage "
                    f"channels {self.embed_dim * 2**s}")

    def stage_channels(self, stage: int) -> int:
        return self.embed_dim * 2**stage


def make_config(size: str, num_classes: int,
                geometry: tuple[int, int, int] = FULL_GEOMETRY) -> VstConfig:
    """Full-scale config: small/base/large -> C 96/128/192, depths (2,2,18,2).

    Head counts follow the stage_channels/32 convention: small (3,6,12,24),
    base (4,8,16,32), large (6,12,24,48).
    """
    key = size.lower()
    if key not in SIZE_CHANNELS:
        raise ContractError(f"unknown size {size!r}; expected small, base or large")
    c = SIZE_CHANNELS[key]
    heads = tuple(c * 2**s // 32 for s in range(4))
    return VstConfig(size=key, embed_dim=c, depths=FULL_DEPTHS, heads=heads,
                     window=FULL_WINDOW, num_classes=int(num_classes),
                     input_geometry=tuple(int(g) for g in geometry))


def make_toy_config(size: str, num_classes: int,
                    geometry: tuple[int, int, int] = (8, 32, 32)) -> VstConfig:
    """Desk-scale config: same layout, C 8/12/16, depths (1,1,2,1).

    Heads are (1, 2, 4, 8) so head width stays C at every stage.
    """
    key = size.lower()
    if key not in TOY_CHANNELS:
        raise ContractError(f"unknown size {size!r}; expected small, base or large")
    return VstConfig(size=key, embed_dim=TOY_CHANNELS[key], depths=TOY_DEPTHS,
                     heads=(1, 2, 4, 8), window=TOY_WINDOW,
                     num_classes=int(num_classes),
                     input_geometry=tuple(int(g) for g in geometry))


# ---------------------------------------------------------------------------
# geometry


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


def _padded_extents(grid, window):
    return tuple(-(-g // w) * w for g, w in zip(grid, window))


# ---------------------------------------------------------------------------
# window bookkeeping (pure numpy constants, cached)


@lru_cache(maxsize=None)
def rel_position_index(window: tuple[int, int, int]) -> np.ndarray:
    """Flattened pairwise offset index into a (2wT-1)(2wH-1)(2wW-1) table."""
    wt, wh, ww = window
    coords = np.stack(np.meshgrid(np.arange(wt), np.arange(wh), np.arange(ww),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    rel = coords[:, None, :] - coords[None, :, :]  # (L, L, 3)
    rel = rel + np.array([wt - 1, wh - 1, ww - 1])
    idx = (rel[..., 0] * (2 * wh - 1) * (2 * ww - 1)
           + rel[..., 1] * (2 * ww - 1)
           + rel[..., 2])
    return idx.astype(np.int64)


def rel_table_rows(window: tuple[int, int, int]) -> int:
    wt, wh, ww = window
    return (2 * wt - 1) * (2 * wh - 1) * (2 * ww - 1)


def _window_regions(grid: tuple[int, int, int], window: tuple[int, int, int],
                    offsets: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Region label and grid token of every window slot, each (num_windows, L).

    Slots number the padded, cyclically shifted grid window by window, each
    window row-major.  Labels code the pre-shift region per axis: interior,
    the tail window's unwrapped part, and its wrapped part.  Two tokens may
    attend to each other iff they share a window and a label.  Padded slots
    have label and token -1.
    """
    padded = _padded_extents(grid, window)
    axis_labels = []
    for p, w, s in zip(padded, window, offsets):
        lab = np.zeros(p, dtype=np.int64)
        if s:
            lab[p - w:p - s] = 1
            lab[p - s:] = 2
        axis_labels.append(lab)
    region = (axis_labels[0][:, None, None] * 9
              + axis_labels[1][None, :, None] * 3
              + axis_labels[2][None, None, :])

    # Tokens sit at [0, g) per axis pre-shift, so roll them with the shift;
    # the labels are already in post-shift coordinates.
    token = np.full(padded, -1, dtype=np.int64)
    token[:grid[0], :grid[1], :grid[2]] = np.arange(math.prod(grid)).reshape(grid)
    token = np.roll(token, tuple(-s for s in offsets), (0, 1, 2))
    region = np.where(token >= 0, region, -1)
    return (_partition_index(region, padded, window),
            _partition_index(token, padded, window))


@lru_cache(maxsize=None)
def _window_mask(grid: tuple[int, int, int], window: tuple[int, int, int],
                 offsets: tuple[int, int, int]) -> np.ndarray:
    """Additive (num_windows, L, L) mask on the padded, shifted grid.

    Pairs from different pre-shift regions get -inf, and padded positions
    get -inf both ways.  The diagonal always stays 0 so every token can
    attend to itself.
    """
    labels, _ = _window_regions(grid, window, offsets)
    allowed = (labels[:, :, None] == labels[:, None, :]) & (labels[:, :, None] >= 0)
    allowed |= np.eye(labels.shape[1], dtype=bool)[None]
    return np.where(allowed, 0.0, -np.inf)


def _partition_index(volume: np.ndarray, extents, window) -> np.ndarray:
    """Partition an integer label volume into (num_windows, window_len)."""
    t, h, w = extents
    wt, wh, ww = window
    v = volume.reshape(t // wt, wt, h // wh, wh, w // ww, ww)
    v = v.transpose(0, 2, 4, 1, 3, 5)
    return v.reshape(-1, wt * wh * ww)


@lru_cache(maxsize=None)
def _attention_groups(grid: tuple[int, int, int], window: tuple[int, int, int],
                      offsets: tuple[int, int, int]):
    """Grid tokens grouped for attention, as read-only index tables.

    A group is the set of grid tokens that share a window and a pre-shift
    region: exactly the tokens that may attend to each other.  Returns
    ``(order, inverse, buckets)``.  ``order`` lists every grid token once,
    group by group, each group in in-window row-major order, and
    ``inverse`` maps group order back to grid order.  Each bucket
    ``(start, groups, n, rel)`` covers ``order[start:start + groups * n]``:
    ``groups`` groups of ``n`` tokens with one in-window layout, whose
    relative position index is the (n, n) sub-matrix ``rel`` of
    :func:`rel_position_index`.
    """
    labels, tokens = _window_regions(grid, window, offsets)
    rel_index = rel_position_index(window)
    layouts: dict[tuple[int, bytes], tuple[np.ndarray, list[np.ndarray]]] = {}
    for row, toks in zip(labels, tokens):
        for label in np.unique(row[row >= 0]):
            pos = np.flatnonzero(row == label)
            rel = rel_index[np.ix_(pos, pos)]
            # groups whose layouts differ by a translation share ``rel``
            layouts.setdefault((pos.size, rel.tobytes()), (rel, []))[1].append(toks[pos])

    buckets, start = [], 0
    for rel, members in layouts.values():
        rel.setflags(write=False)
        n = rel.shape[0]
        buckets.append((start, len(members), n, rel))
        start += len(members) * n
    order = np.concatenate([m for _, members in layouts.values() for m in members])
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
    pre-shift region, neither padded, or i == j), else -inf.
    """
    grid_extents = tuple(int(g) for g in grid_extents)
    window = effective_window(grid_extents, tuple(int(w) for w in window))
    offsets = tuple(int(o) for o in offsets)
    if any(not 0 <= o < w for o, w in zip(offsets, window)):
        raise ContractError(f"offsets {offsets} must lie in [0, window) {window}")
    return _window_mask(grid_extents, window, offsets).copy()


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


_BLOCK_PARAMS = len(_block_spec(1, 1, 1))


def param_spec(cfg: VstConfig) -> dict[str, tuple[int, ...]]:
    """Ordered name -> shape table for every learnable tensor."""
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
    return spec


def init_params(cfg: VstConfig, seed: int = 0) -> dict[str, Tensor]:
    """Fresh parameters: N(0, 0.02) weights, zero biases, unit norm gains."""
    rng = np.random.Generator(np.random.Philox(seed))
    params: dict[str, Tensor] = {}
    for name, shape in param_spec(cfg).items():
        if name.endswith(".gain"):
            data = np.ones(shape)
        elif name.endswith(".bias"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        params[name] = Tensor(data, requires_grad=True)
    return params


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


# ---------------------------------------------------------------------------
# forward pieces


def patch_partition_embed(clip: Tensor, cfg: VstConfig,
                          params: dict[str, Tensor]) -> Tensor:
    """(B, T, H, W, 3) clips -> (B, T/2, H/4, W/4, C) tokens."""
    if clip.ndim != 5 or clip.shape[-1] != 3:
        raise GeometryError(f"expected clip extents (B, T, H, W, 3), got {clip.shape}")
    b, t, h, w, _ = clip.shape
    gt, gh, gw = token_grid_extents((t, h, w))
    pt, ph, pw = PATCH
    x = reshape(clip, (b, gt, pt, gh, ph, gw, pw, 3))
    x = permute(x, (0, 1, 3, 5, 2, 4, 6, 7))
    x = reshape(x, (b, gt, gh, gw, PATCH_FEATURES))
    flat = reshape(x, (b * gt * gh * gw, PATCH_FEATURES))
    tok = add(matmul(flat, params["embed.proj.weight"]), params["embed.proj.bias"])
    tok = layer_norm(tok, params["embed.norm.gain"], params["embed.norm.bias"])
    return reshape(tok, (b, gt, gh, gw, cfg.embed_dim))


def _window_attention(x: Tensor, cfg: VstConfig, params: dict[str, Tensor],
                      stage: int, block: int, shifted: bool) -> Tensor:
    """Window MSA over a normalized (B, T, H, W, C) grid, as one tape node.

    The forward pass gathers the grid's tokens into attention groups (see
    :func:`_attention_groups`), projects them to q, k, v, and within each
    group adds the relative position bias, takes the softmax and applies it
    to v; it then projects back and scatters to grid order.  Padded
    positions and cross-region pairs are never computed, so no mask is
    needed.  The backward pass is the closed form of that chain; the softmax
    part uses the identity dS = P * (dP - rowsum(dP * P)).
    """
    b, t, h, w, c = x.shape
    grid = (t, h, w)
    win = effective_window(grid, cfg.window)
    offsets = shift_offsets(grid, cfg.window) if shifted else (0, 0, 0)
    heads = cfg.heads[stage]
    head_dim = c // heads
    order, inverse, buckets = _attention_groups(grid, win, offsets)
    scale = 1.0 / math.sqrt(head_dim)

    prefix = f"stage{stage + 1}.block{block + 1}.attn"
    wqkv, bqkv = params[f"{prefix}.qkv.weight"], params[f"{prefix}.qkv.bias"]
    wproj, bproj = params[f"{prefix}.proj.weight"], params[f"{prefix}.proj.bias"]
    table = params[f"{prefix}.rel_bias.table"]

    tokens = x.data.reshape(b, -1, c)[:, order].reshape(-1, c)
    qkv = tokens @ wqkv.data
    qkv += bqkv.data
    qkv = qkv.reshape(b, -1, 3, heads, head_dim)
    o = np.empty((b, order.size, heads, head_dim))
    saved = []  # (q, k, v, p) per bucket, each (B, groups, heads, n, .)
    for start, groups, n, rel in buckets:
        span = slice(start, start + groups * n)
        q, k, v = np.ascontiguousarray(
            qkv[:, span].reshape(b, groups, n, 3, heads, head_dim)
            .transpose(3, 0, 1, 4, 2, 5))
        q *= scale
        p = q @ k.swapaxes(-1, -2)  # scores, then probabilities, in place
        p += np.take(table.data.T, rel, axis=1)
        # NaN and +inf propagate into the row max, and a row of -inf scores
        # has a max of -inf, so the row max alone decides whether the
        # softmax is defined
        amax = p.max(axis=-1, keepdims=True)
        if not np.isfinite(amax).all():
            if np.isnan(amax).any() or np.isposinf(amax).any():
                raise NumericError("window attention scores contain NaN or +inf")
            raise NumericError("window attention score row is entirely -inf")
        p -= amax
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        o[:, span].reshape(b, groups, n, heads, head_dim)[...] = (
            (p @ v).transpose(0, 1, 3, 2, 4))
        saved.append((q, k, v, p))

    o = o.reshape(-1, c)
    y = o @ wproj.data
    y += bproj.data
    out = y.reshape(b, -1, c)[:, inverse].reshape(x.shape)

    def bwd(g):
        gy = g.reshape(b, -1, c)[:, order].reshape(-1, c)
        do = (gy @ wproj.data.T).reshape(b, -1, heads, head_dim)
        dqkv = np.empty((b, order.size, 3, heads, head_dim))
        dtable = np.zeros(table.shape)
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
            ds_sum = ds.sum(axis=(0, 1)).reshape(heads, -1)
            dtable += np.stack([np.bincount(rel.reshape(-1), weights=d,
                                            minlength=table.shape[0])
                                for d in ds_sum], axis=1)
        dqkv = dqkv.reshape(-1, 3 * c)
        gx = (dqkv @ wqkv.data.T).reshape(b, -1, c)[:, inverse]
        return (gx.reshape(x.shape), tokens.T @ dqkv, dqkv.sum(axis=0),
                o.T @ gy, gy.sum(axis=0), dtable)

    return _result(out, "window_attention", (x, wqkv, bqkv, wproj, bproj, table), bwd)


def wmsa_block(grid: Tensor, params: dict[str, Tensor], cfg: VstConfig,
               shifted: bool, stage: int = 0, block: int = 0) -> Tensor:
    """One transformer block: z' = z + MSA(LN(z)); out = z' + FFN(LN(z'))."""
    if grid.ndim != 5:
        raise ShapeError(f"wmsa_block needs a (B, T, H, W, C) grid, got {grid.shape}")
    z = grid
    b, t, h, w, c = z.shape
    if c != cfg.stage_channels(stage):
        raise ShapeError(f"grid channels {c} != stage {stage + 1} channels "
                         f"{cfg.stage_channels(stage)}")
    p = f"stage{stage + 1}.block{block + 1}"

    zn = layer_norm(z, params[f"{p}.norm1.gain"], params[f"{p}.norm1.bias"])
    z = add(z, _window_attention(zn, cfg, params, stage, block, shifted))

    zn = layer_norm(z, params[f"{p}.norm2.gain"], params[f"{p}.norm2.bias"])
    flat = reshape(zn, (b * t * h * w, c))
    hid = gelu(add(matmul(flat, params[f"{p}.ffn.fc1.weight"]),
                   params[f"{p}.ffn.fc1.bias"]))
    out = add(matmul(hid, params[f"{p}.ffn.fc2.weight"]),
              params[f"{p}.ffn.fc2.bias"])
    return add(z, reshape(out, (b, t, h, w, c)))


def patch_merge(grid: Tensor, params: dict[str, Tensor], stage: int = 0) -> Tensor:
    """Concatenate 2x2 spatial neighborhoods, LN, project 4C -> 2C."""
    if grid.ndim != 5:
        raise ShapeError(f"patch_merge needs a (B, T, H, W, C) grid, got {grid.shape}")
    b, t, h, w, c = grid.shape
    if h % 2 or w % 2:
        raise GeometryError(f"patch merge needs even spatial extents, got ({t}, {h}, {w})")
    x = reshape(grid, (b, t, h // 2, 2, w // 2, 2, c))
    x = permute(x, (0, 1, 2, 4, 3, 5, 6))
    x = reshape(x, (b * t * (h // 2) * (w // 2), 4 * c))
    p = f"merge{stage + 1}"
    x = layer_norm(x, params[f"{p}.norm.gain"], params[f"{p}.norm.bias"])
    x = matmul(x, params[f"{p}.proj.weight"])
    return reshape(x, (b, t, h // 2, w // 2, 2 * c))


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
    x = layer_norm(x, params["head.norm.gain"], params["head.norm.bias"])
    x = tensor_mean(x, axis=(1, 2, 3))
    return add(matmul(x, params["head.fc.weight"]), params["head.fc.bias"])


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
        fields[key.strip()] = value.strip()
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


def save_checkpoint(f: str | BinaryIO, cfg: VstConfig,
                    params: dict[str, Tensor]) -> None:
    """Write config + parameters; values are stored as f32."""
    if isinstance(f, str):
        with open(f, "wb") as fh:
            save_checkpoint(fh, cfg, params)
        return
    from .tensor import write_tensor

    _check_params(cfg, params)
    header = _config_header(cfg)
    f.write(_VSTC_MAGIC)
    f.write(struct.pack("<I", len(header)))
    f.write(header)
    for name, tensor in params.items():
        raw = name.encode("utf-8")
        f.write(struct.pack("<I", len(raw)))
        f.write(raw)
        write_tensor(f, tensor)


def load_checkpoint(f: str | BinaryIO) -> tuple[VstConfig, dict[str, Tensor]]:
    """Read a checkpoint; parameters come back as trainable f64 tensors."""
    if isinstance(f, str):
        with open(f, "rb") as fh:
            return load_checkpoint(fh)
    from .tensor import read_tensor

    magic = f.read(4)
    if magic != _VSTC_MAGIC:
        raise FormatError(f"bad checkpoint magic {magic!r}, expected {_VSTC_MAGIC!r}")
    (hlen,) = struct.unpack("<I", _read_exact(f, 4, "checkpoint header length"))
    cfg = _parse_header(_read_text(f, hlen, "checkpoint header"))

    params: dict[str, Tensor] = {}
    while True:
        raw = f.read(4)
        if not raw:  # records end at a clean end of file
            break
        raw += _read_exact(f, 4 - len(raw), "parameter record (name length)")
        (nlen,) = struct.unpack("<I", raw)
        name = _read_text(f, nlen, "parameter record (name)")
        if name in params:
            raise FormatError(f"duplicate parameter {name!r} in checkpoint")
        tensor = read_tensor(f)
        tensor.requires_grad = True
        params[name] = tensor
    # param_spec's work grows with the header's depths, so check them
    # against the records first
    if _BLOCK_PARAMS * sum(cfg.depths) > len(params):
        raise FormatError(f"checkpoint header declares {sum(cfg.depths)} blocks, "
                          f"but the file holds only {len(params)} parameter records")
    _check_params(cfg, params)
    return cfg, params
