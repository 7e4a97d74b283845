"""Video transformer: configs, geometry, windows, masks, blocks, checkpoints."""

import io
import math
import re
import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _grad import probe_differences
from test_fuzz import LIBRARY
from test_tensor import _Unseekable
from cvislr import vst
from cvislr.errors import (
    ContractError,
    CvislrError,
    FormatError,
    GeometryError,
    NumericError,
    ShapeError,
)
from cvislr.tensor import (
    GradTape,
    Tensor,
    add,
    backward,
    layer_norm,
    matmul,
    tensor_mean,
    write_tensor,
)
from cvislr.train import cross_entropy
from cvislr.vst import (
    VstConfig,
    attention_mask,
    effective_window,
    forward_batch,
    head,
    init_params,
    load_checkpoint,
    make_config,
    make_toy_config,
    param_spec,
    patch_merge,
    patch_partition_embed,
    save_checkpoint,
    shift_offsets,
    stage_grids,
    token_grid_extents,
    wmsa_block,
)

RNG = np.random.default_rng(20240812)


# ---------------------------------------------------------------------------
# independent brute-force oracles


def _axis_label(coord, padded, w, s):
    """Pre-shift region of one axis coordinate: the wrapped slice [0, s),
    the interior [s, P-w+s), and the tail window remainder [P-w+s, P),
    where P is the padded extent.  Shifting by -s makes each window either
    homogeneous or split exactly at region boundaries.
    """
    if coord < s:
        return 2
    if coord < padded - w + s:
        return 0
    return 1


def oracle_allowed(grid, window, offsets):
    """Which token pairs of each window may attend, derived from original
    (pre-shift) coordinates; a pair may attend iff all three axis labels
    agree and neither token is padding.  Returns (num_windows, L, L)
    boolean, token order row-major in-window.
    """
    eff = tuple(min(g, w) for g, w in zip(grid, window))
    padded = tuple(math.ceil(g / w) * w for g, w in zip(grid, eff))
    labels = np.full(padded, -1, dtype=np.int64)
    for t in range(grid[0]):
        for h in range(grid[1]):
            for w_ in range(grid[2]):
                code = 0
                for coord, p, w_eff, s in zip((t, h, w_), padded, eff, offsets):
                    code = code * 3 + _axis_label(coord, p, w_eff, s)
                labels[t, h, w_] = code
    labels = np.roll(labels, tuple(-s for s in offsets), (0, 1, 2))
    nt, nh, nw = (p // w for p, w in zip(padded, eff))
    length = eff[0] * eff[1] * eff[2]
    out = np.zeros((nt * nh * nw, length, length), dtype=bool)
    widx = 0
    for it in range(nt):
        for ih in range(nh):
            for iw in range(nw):
                toks = []
                for dt in range(eff[0]):
                    for dh in range(eff[1]):
                        for dw in range(eff[2]):
                            toks.append(labels[it * eff[0] + dt,
                                               ih * eff[1] + dh,
                                               iw * eff[2] + dw])
                for i in range(length):
                    for j in range(length):
                        out[widx, i, j] = (i == j) or (
                            toks[i] >= 0 and toks[i] == toks[j])
                widx += 1
    return out


def oracle_token_slots(grid, window, offsets):
    """(window, in-window position) of every grid token, row-major, on the
    padded grid rolled by -offsets; windows and positions are numbered
    row-major as in ``attention_mask``.
    """
    eff = tuple(min(g, w) for g, w in zip(grid, window))
    padded = tuple(math.ceil(g / w) * w for g, w in zip(grid, eff))
    counts = [p // w for p, w in zip(padded, eff)]
    slots = []
    for t in range(grid[0]):
        for h in range(grid[1]):
            for w_ in range(grid[2]):
                r = [(c - s) % p for c, s, p in zip((t, h, w_), offsets, padded)]
                win = ((r[0] // eff[0]) * counts[1] + r[1] // eff[1]) * counts[2] \
                    + r[2] // eff[2]
                pos = ((r[0] % eff[0]) * eff[1] + r[1] % eff[1]) * eff[2] \
                    + r[2] % eff[2]
                slots.append((win, pos))
    return slots


def oracle_dense_masked_attention(x, params, prefix, window, offsets, heads):
    """Window MSA computed densely over the padded, shifted grid.

    Padded slots hold zero tokens, every window pair is scored, and the
    ``attention_mask`` additive mask removes the pairs that may not attend.
    ``x`` is (B, T, H, W, C); the output has the same extents.
    """
    b, *grid, c = x.shape
    eff = effective_window(tuple(grid), window)
    hd = c // heads
    mask = attention_mask(tuple(grid), window, offsets)
    n_win, length = mask.shape[:2]
    slots = oracle_token_slots(tuple(grid), window, offsets)
    flat = x.reshape(b, -1, c)
    win_tokens = np.zeros((b, n_win, length, c))
    for i, (w, p) in enumerate(slots):
        win_tokens[:, w, p] = flat[:, i]
    qkv = win_tokens @ params[f"{prefix}.qkv.weight"].data + params[f"{prefix}.qkv.bias"].data
    q, k, v = (qkv[..., j * c:(j + 1) * c].reshape(b, n_win, length, heads, hd)
               .transpose(0, 1, 3, 2, 4) for j in range(3))
    scores = q @ k.swapaxes(-1, -2) / math.sqrt(hd)
    table = params[f"{prefix}.rel_bias.table"].data
    scores = scores + table[vst.rel_position_index(eff)].transpose(2, 0, 1) + mask[:, None]
    weights = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights /= weights.sum(axis=-1, keepdims=True)
    o = (weights @ v).transpose(0, 1, 3, 2, 4).reshape(b, n_win, length, c)
    y = o @ params[f"{prefix}.proj.weight"].data + params[f"{prefix}.proj.bias"].data
    out = np.stack([y[:, w, p] for w, p in slots], axis=1)
    return out.reshape(x.shape)


def oracle_masked_attention(x, window, offsets, scale):
    """Dense per-token attention restricted to allowed partners.

    ``x`` is a (T, H, W, C) grid serving as q = k = v; output has the same
    extents, computed without any window partitioning code.
    """
    grid = x.shape[:3]
    eff = tuple(min(g, w) for g, w in zip(grid, window))
    padded = tuple(math.ceil(g / w) * w for g, w in zip(grid, eff))
    shifted_of_padded = {}  # padded coordinate -> rolled coordinate
    for t in range(padded[0]):
        for h in range(padded[1]):
            for w_ in range(padded[2]):
                rolled = tuple((c - s) % p for c, s, p in
                               zip((t, h, w_), offsets, padded))
                shifted_of_padded[(t, h, w_)] = rolled

    def window_of(rolled):
        return tuple(c // w for c, w in zip(rolled, eff))

    out = np.zeros_like(x)
    coords = [(t, h, w_) for t in range(grid[0]) for h in range(grid[1])
              for w_ in range(grid[2])]
    regions = {c: tuple(_axis_label(coord, p, w_eff, s)
                        for coord, p, w_eff, s in zip(c, padded, eff, offsets))
               for c in coords}
    for ci in coords:
        wi = window_of(shifted_of_padded[ci])
        partners = [cj for cj in coords
                    if window_of(shifted_of_padded[cj]) == wi
                    and (cj == ci or regions[cj] == regions[ci])]
        qi = x[ci]
        logits = np.array([qi @ x[cj] * scale for cj in partners])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        out[ci] = sum(w * x[cj] for w, cj in zip(weights, partners))
    return out


def reference_attention_groups(grid, window, offsets):
    """The loop-based build of ``vst._attention_groups``' tables that the
    per-axis box product replaced, kept as its bits guard.

    It labels a padded 3-D region volume, rolls the grid tokens with the
    shift, partitions both into windows, then groups each window's tokens by
    label and buckets the groups by the bytes of their ``rel`` sub-matrix.
    """
    padded = tuple(-(-g // w) * w for g, w in zip(grid, window))
    axis_labels = []
    for p, w, s in zip(padded, window, offsets):
        lab = np.zeros(p, dtype=np.int64)
        if s:
            lab[p - w:p - s] = 1
            lab[p - s:] = 2
        axis_labels.append(lab)
    region = (axis_labels[0][:, None, None] * 9 + axis_labels[1][None, :, None] * 3
              + axis_labels[2][None, None, :])
    token = np.full(padded, -1, dtype=np.int64)
    token[:grid[0], :grid[1], :grid[2]] = np.arange(math.prod(grid)).reshape(grid)
    token = np.roll(token, tuple(-s for s in offsets), (0, 1, 2))
    region = np.where(token >= 0, region, -1)

    def partition(volume):
        (t, h, w), (wt, wh, ww) = padded, window
        v = volume.reshape(t // wt, wt, h // wh, wh, w // ww, ww).transpose(0, 2, 4, 1, 3, 5)
        return v.reshape(-1, wt * wh * ww)

    wt, wh, ww = window
    coords = np.stack(np.meshgrid(np.arange(wt), np.arange(wh), np.arange(ww),
                                  indexing="ij"), axis=-1).reshape(-1, 3)
    rel = coords[:, None, :] - coords[None, :, :] + np.array([wt - 1, wh - 1, ww - 1])
    rel_index = (rel[..., 0] * (2 * wh - 1) * (2 * ww - 1) + rel[..., 1] * (2 * ww - 1)
                 + rel[..., 2]).astype(np.int64)
    layouts = {}
    for row, toks in zip(partition(region), partition(token)):
        for label in np.unique(row[row >= 0]):
            pos = np.flatnonzero(row == label)
            rel = rel_index[np.ix_(pos, pos)]
            layouts.setdefault((pos.size, rel.tobytes()), (rel, []))[1].append(toks[pos])
    buckets, start = [], 0
    for rel, members in layouts.values():
        rel.setflags(write=False)
        buckets.append((start, len(members), rel.shape[0], rel))
        start += len(members) * rel.shape[0]
    order = np.concatenate([m for _, members in layouts.values() for m in members])
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    order.setflags(write=False)
    inverse.setflags(write=False)
    return order, inverse, tuple(buckets)


# ---------------------------------------------------------------------------
# configs


class TestConfigs:
    def test_size_channel_mapping(self):
        assert make_config("small", 10).embed_dim == 96
        assert make_config("base", 10).embed_dim == 128
        assert make_config("large", 10).embed_dim == 192

    def test_full_depths_and_heads(self):
        cfg = make_config("base", 400)
        assert cfg.depths == (2, 2, 18, 2)
        assert cfg.heads == (4, 8, 16, 32)
        assert make_config("small", 10).heads == (3, 6, 12, 24)

    def test_default_window(self):
        assert make_config("base", 10).window == (8, 7, 7)

    def test_toy_config(self):
        cfg = make_toy_config("large", 5)
        assert cfg.embed_dim == 16
        assert cfg.depths == (1, 1, 2, 1)
        assert cfg.window == (2, 2, 2)
        assert cfg.heads == (1, 2, 4, 8)

    def test_unknown_size(self):
        with pytest.raises(ContractError):
            make_config("huge", 10)
        # neither a number nor None names a size, and 5 is no geometry
        with pytest.raises(ContractError, match="unknown size 3"):
            make_config(3, 2)
        with pytest.raises(ContractError, match="unknown size None"):
            make_toy_config(None, 2)
        with pytest.raises(ContractError, match="input_geometry"):
            make_config("small", 2, geometry=5)

    @pytest.mark.parametrize("size", ["huge", "Large", "", None, 3])
    def test_size_must_name_a_preset(self, size):
        # the size is the label a checkpoint header carries, so it names a preset
        with pytest.raises(ContractError, match="unknown size"):
            replace(make_toy_config("small", 2), size=size)

    def test_window_is_set_by_replace_only(self):
        for maker in (make_config, make_toy_config):
            with pytest.raises(TypeError):
                maker("small", 4, window=(2, 2, 2))
        cfg = replace(make_toy_config("small", 4), window=(2, 3, 3))
        assert cfg.window == (2, 3, 3)

    def test_default_geometry_is_the_paper_clip(self):
        assert vst.FULL_GEOMETRY == (32, 224, 224)
        assert make_config("small", 4).input_geometry == vst.FULL_GEOMETRY

    @pytest.mark.parametrize("maker", [make_config, make_toy_config])
    @pytest.mark.parametrize("geometry", [(64, 448, 448), (2**40,) * 3, (34, 224, 224),
                                          (32, 224, 232)],
                             ids=["double", "huge", "long", "wide"])
    def test_geometry_beyond_the_paper_clip_rejected(self, maker, geometry):
        with pytest.raises(GeometryError, match=r"\(32, 224, 224\)"):
            maker("small", 2, geometry)

    def test_heads_must_divide_channels(self):
        with pytest.raises(ContractError):
            VstConfig(size="small", embed_dim=10, depths=(1, 1, 1, 1),
                      heads=(3, 3, 3, 3), window=(2, 2, 2), num_classes=4,
                      input_geometry=(8, 32, 32))

    @pytest.mark.parametrize("maker, geometry", [
        (make_config, (0, 64, 64)),      # no frames
        (make_toy_config, (3, 32, 32)),  # 3 frames do not tile 2-frame patches
        (make_toy_config, (4, 40, 40)),  # a 10x10 token grid: the second merge fails
    ], ids=["no_frames", "odd_frames", "odd_merge"])
    def test_untileable_geometry_rejected_at_construction(self, maker, geometry):
        with pytest.raises(GeometryError):
            maker("small", 2, geometry)

    def test_geometry_must_be_three_extents(self):
        with pytest.raises(ContractError, match="input_geometry"):
            make_toy_config("small", 2, (8, 32))

    @pytest.mark.parametrize("maker", [make_config, make_toy_config])
    @pytest.mark.parametrize("classes", [2.5, True, "x", 0])
    def test_class_count_must_be_a_positive_integer(self, maker, classes):
        with pytest.raises(ContractError, match="num_classes"):
            maker("small", classes)

    @pytest.mark.parametrize("maker", [make_config, make_toy_config])
    @pytest.mark.parametrize("classes", [1, vst.MAX_CLASSES + 1, 10**9])
    def test_class_count_outside_the_manifest_range_rejected(self, maker, classes):
        # a manifest refuses these counts, so no model may be built for one
        with pytest.raises(ContractError, match=r"num_classes .*\[2, 4096\]"):
            maker("small", classes)

    @pytest.mark.parametrize("maker", [make_config, make_toy_config])
    @pytest.mark.parametrize("geometry", [(8.5, 32, 32), (8, 32.0, 32), ("8", 32, 32),
                                          (True, 32, 32)],
                             ids=["float", "integral_float", "text", "bool"])
    def test_geometry_extents_must_be_integers(self, maker, geometry):
        with pytest.raises(ContractError, match="input_geometry"):
            maker("small", 2, geometry)

    def test_numpy_integers_accepted(self):
        cfg = make_toy_config("small", np.int64(3), tuple(np.array([8, 32, 32])))
        assert cfg.num_classes == 3 and cfg.input_geometry == (8, 32, 32)

    @pytest.mark.parametrize("field, value", [
        ("embed_dim", 8.0), ("embed_dim", True), ("embed_dim", "8"),
        ("depths", (1.0, 1, 1, 1)), ("depths", (True, 1, 1, 1)), ("depths", (1, 1, 1)),
        ("heads", (1.0, 2, 4, 8)), ("heads", (1, 2, 4, "8")), ("heads", 1),
        ("window", (2.0, 2, 2)), ("window", (2, 2, True)), ("window", (2, 0, 2)),
    ], ids=["embed_float", "embed_bool", "embed_text", "depths_float", "depths_bool",
            "depths_three", "heads_float", "heads_text", "heads_scalar", "window_float",
            "window_bool", "window_zero"])
    def test_fields_must_be_positive_integers(self, field, value):
        with pytest.raises(ContractError, match=field):
            replace(make_toy_config("small", 2), **{field: value})

    @pytest.mark.parametrize("embed_dim", [200, 2**20])
    def test_embed_dim_beyond_the_paper_rejected(self, embed_dim):
        # 2**20 channels would ask init_params for 24 TiB
        with pytest.raises(ContractError, match=f"embed_dim {embed_dim} exceeds .* 192"):
            replace(make_toy_config("small", 2), embed_dim=embed_dim)
        assert replace(make_toy_config("small", 2), embed_dim=192).embed_dim == 192

    @pytest.mark.parametrize("depths", [(3, 1, 1, 1), (1, 1, 19, 1), (2, 2, 18, 3),
                                        (1, 1, 10**6, 1)])
    def test_depths_beyond_the_paper_rejected(self, depths):
        # a million stage-3 blocks would ask init_params for about 102 GB
        with pytest.raises(ContractError, match=re.escape(f"depths {depths} exceed")):
            replace(make_toy_config("small", 2), depths=depths)

    @pytest.mark.parametrize("window", [(16, 56, 56), (9, 7, 7), (8, 7, 8), (1, 56, 56)])
    def test_window_beyond_the_papers_392_tokens_rejected(self, window):
        # (16, 56, 56) would ask rel_position_index for 56.3 GiB
        cfg = make_toy_config("small", 2, (32, 224, 224))
        stage1 = re.escape(f"window {window}") + r" holds \d+ tokens of stage 1"
        with pytest.raises(ContractError, match=stage1):
            replace(cfg, window=window)

    @pytest.mark.parametrize("maker, geometry, window", [
        (make_config, (32, 224, 224), (8, 7, 7)),
        (make_config, (32, 224, 224), (1, 14, 28)),  # 392 tokens, another shape
        (make_toy_config, (8, 32, 32), (16, 56, 56)),  # clamped to the (4, 8, 8) grid
        (make_toy_config, (8, 32, 32), (2, 3, 3)),
        (make_toy_config, (8, 32, 32), (2, 1, 1)),
    ])
    def test_windows_up_to_the_papers_tokens_accepted(self, maker, geometry, window):
        assert replace(maker("small", 2, geometry), window=window).window == window


class TestGeometry:
    def test_full_scale_token_grid(self):
        assert token_grid_extents((32, 224, 224)) == (16, 56, 56)

    def test_stage_schedule_full(self):
        cfg = make_config("base", 400)
        assert stage_grids(cfg) == [(16, 56, 56), (16, 28, 28),
                                    (16, 14, 14), (16, 7, 7)]
        assert cfg.stage_channels(3) == 1024  # 8C head input

    def test_stage_schedule_toy(self):
        cfg = make_toy_config("small", 4)
        assert stage_grids(cfg) == [(4, 8, 8), (4, 4, 4), (4, 2, 2), (4, 1, 1)]

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(GeometryError):
            token_grid_extents((7, 32, 32))
        with pytest.raises(GeometryError):
            token_grid_extents((8, 30, 32))

    def test_merge_needs_even_extents(self):
        # a (4, 4, 4) token grid halves twice, then the third merge fails
        with pytest.raises(GeometryError, match="even spatial extents"):
            make_toy_config("small", 4, geometry=(8, 16, 16))

    def test_effective_window_and_shift(self):
        assert effective_window((4, 1, 1), (2, 2, 2)) == (2, 1, 1)
        assert shift_offsets((4, 1, 1), (2, 2, 2)) == (1, 0, 0)
        assert shift_offsets((2, 2, 2), (2, 2, 2)) == (0, 0, 0)
        assert shift_offsets((16, 56, 56), (8, 7, 7)) == (4, 3, 3)


def assert_node_gradients(layer, inputs, seed=0):
    """Every input's gradient through ``layer()`` matches central differences.

    The sweep is seeded with a fixed random probe of the output, and
    ``inputs`` are all the tracked tensors ``layer`` reads.
    """
    probe = np.random.default_rng(seed).normal(size=layer().shape)
    grads = backward(layer(), probe)
    assert len(grads) == len(inputs)
    for t in inputs:
        want = probe_differences(layer, probe, t.data)
        got = grads[t]
        assert got.shape == t.shape
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()


def _tracked_params(spec, prefix, seed):
    rng = np.random.default_rng(seed)
    return {name: Tensor(rng.normal(size=shape), requires_grad=True)
            for name, shape in spec.items() if name.startswith(prefix)}


# ---------------------------------------------------------------------------
# patch embedding


class TestPatchEmbed:
    def _params(self, cfg, seed=0):
        return init_params(cfg, seed=seed)

    def test_full_scale_embed_extents(self):
        # embed-only path at full geometry; no attention involved
        cfg = make_config("small", 10, geometry=(32, 224, 224))
        params = {
            "embed.proj.weight": Tensor(RNG.normal(size=(96, 96)) * 0.02),
            "embed.proj.bias": Tensor(np.zeros(96)),
            "embed.norm.gain": Tensor(np.ones(96)),
            "embed.norm.bias": Tensor(np.zeros(96)),
        }
        clip = Tensor(RNG.random(size=(1, 32, 224, 224, 3)))
        grid = patch_partition_embed(clip, cfg, params)
        assert grid.shape == (1, 16, 56, 56, 96)

    def test_single_block_matches_manual(self):
        cfg = make_toy_config("small", 4)  # the embedding reads only C from it
        c = cfg.embed_dim
        w = RNG.normal(size=(96, c))
        b = RNG.normal(size=c)
        gain = RNG.normal(size=c)
        bias = RNG.normal(size=c)
        params = {"embed.proj.weight": Tensor(w), "embed.proj.bias": Tensor(b),
                  "embed.norm.gain": Tensor(gain), "embed.norm.bias": Tensor(bias)}
        clip = RNG.random(size=(2, 4, 4, 3))
        grid = patch_partition_embed(Tensor(clip[None]), cfg, params)
        assert grid.shape == (1, 1, 1, 1, c)
        pre = clip.reshape(-1) @ w + b
        mu, var = pre.mean(), pre.var()
        want = (pre - mu) / math.sqrt(var + 1e-5) * gain + bias
        np.testing.assert_allclose(grid.data[0, 0, 0, 0], want, atol=1e-12)

    def test_partial_identity_projection_recovers_prefixes(self):
        cfg = make_toy_config("small", 4)  # the embedding reads only C from it
        c = cfg.embed_dim
        eye = np.zeros((96, c))
        eye[:c, :c] = np.eye(c)
        params = {"embed.proj.weight": Tensor(eye),
                  "embed.proj.bias": Tensor(np.zeros(c)),
                  "embed.norm.gain": Tensor(np.ones(c)),
                  "embed.norm.bias": Tensor(np.zeros(c))}
        clip = RNG.random(size=(4, 8, 8, 3))
        grid = patch_partition_embed(Tensor(clip[None]), cfg, params)
        # direct block extraction: block (gt, gh, gw) flattens (2,4,4,3)
        for gt, gh, gw in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
            block = clip[2 * gt:2 * gt + 2, 4 * gh:4 * gh + 4,
                         4 * gw:4 * gw + 4, :].reshape(-1)
            prefix = block[:c]
            mu, var = prefix.mean(), prefix.var()
            want = (prefix - mu) / math.sqrt(var + 1e-5)
            np.testing.assert_allclose(grid.data[0, gt, gh, gw], want, atol=1e-12)

    def test_all_inputs_match_central_differences(self):
        # a (2, 4, 8) clip is two patches, embedded to C = 8 channels
        cfg = make_toy_config("small", 4)
        params = _tracked_params(param_spec(cfg), "embed.", seed=11)
        assert len(params) == 4
        clip = Tensor(RNG.random(size=(2, 2, 4, 8, 3)), requires_grad=True)
        assert_node_gradients(lambda: patch_partition_embed(clip, cfg, params),
                              [clip, *params.values()], seed=12)

    def test_clip_gradient_takes_the_clip_dtype(self):
        cfg = make_toy_config("small", 3, geometry=(2, 32, 32))
        clip = Tensor(RNG.random(size=(1, 2, 32, 32, 3)), requires_grad=True)
        out = patch_partition_embed(clip, cfg, init_params(cfg, seed=0))
        assert out.data.dtype == np.float32
        assert backward(out, np.ones(out.shape))[clip].dtype == np.float64

    def test_untracked_clip_gets_no_gradient(self):
        cfg = make_toy_config("small", 4)
        params = _tracked_params(param_spec(cfg), "embed.", seed=13)
        out = patch_partition_embed(Tensor(RNG.random(size=(1, 2, 4, 8, 3))), cfg, params)
        assert out.node.op == "embed"
        dclip, *dparams = out.node.backward(np.ones(out.shape))
        assert dclip is None
        assert [d.shape for d in dparams] == [p.shape for p in params.values()]

    def test_indivisible_clip_rejected(self):
        cfg = make_toy_config("small", 4, geometry=(8, 32, 32))
        params = init_params(cfg, seed=0)
        with pytest.raises(GeometryError):
            patch_partition_embed(Tensor(np.ones((1, 7, 32, 32, 3))), cfg, params)

    def test_unbatched_clip_rejected(self):
        cfg = make_toy_config("small", 4, geometry=(8, 32, 32))
        params = init_params(cfg, seed=0)
        with pytest.raises(GeometryError, match="B, T, H, W, 3"):
            patch_partition_embed(Tensor(np.ones((8, 32, 32, 3))), cfg, params)


# ---------------------------------------------------------------------------
# attention masks


class TestAttentionMask:
    def test_unshifted_grid_all_zero(self):
        mask = attention_mask((4, 4, 4), (2, 2, 2), (0, 0, 0))
        assert mask.shape == (8, 8, 8)
        assert (mask == 0).all()

    def test_1d_wrapped_window_two_masked(self):
        # 1D grid of 4 tokens, window 2, shift 1: the window holding the
        # wrapped pair has exactly 2 masked entries
        mask = attention_mask((4, 1, 1), (2, 1, 1), (1, 0, 0))
        counts = sorted(int(np.isneginf(w).sum()) for w in mask)
        assert counts == [0, 2]

    @pytest.mark.parametrize("grid,window,offsets", [
        ((4, 4, 4), (2, 2, 2), (1, 1, 1)),
        ((4, 1, 1), (2, 1, 1), (1, 0, 0)),
        ((6, 4, 2), (2, 2, 2), (1, 1, 0)),
        ((3, 5, 4), (2, 2, 2), (1, 1, 1)),   # padding + shift together
        ((8, 8, 8), (2, 4, 4), (1, 2, 2)),
        ((3, 9, 5), (2, 4, 2), (1, 2, 1)),   # padding crosses into the window before the tail
    ])
    def test_matches_brute_force_region_oracle(self, grid, window, offsets):
        mask = attention_mask(grid, window, offsets)
        allowed = oracle_allowed(grid, window, offsets)
        assert mask.shape == allowed.shape
        np.testing.assert_array_equal(mask == 0.0, allowed)
        np.testing.assert_array_equal(np.isneginf(mask), ~allowed)

    def test_diagonal_never_masked(self):
        mask = attention_mask((3, 5, 4), (2, 2, 2), (1, 1, 1))
        diag = mask[:, np.arange(mask.shape[1]), np.arange(mask.shape[1])]
        assert (diag == 0).all()

    def test_bad_offsets_rejected(self):
        with pytest.raises(ContractError):
            attention_mask((4, 4, 4), (2, 2, 2), (2, 0, 0))

    @pytest.mark.parametrize("grid,window,offsets", [
        ((8, 8), (2, 2, 2), (0, 0, 0)),
        ("abc", (2, 2, 2), (0, 0, 0)),
        (4, (2, 2, 2), (0, 0, 0)),
        ((4.5, 8, 8), (2, 2, 2), (0, 0, 0)),
        ((4, 8, 8), (2.0, 2, 2), (0, 0, 0)),
        ((4, 8, 8), (2, 2, 2), (1.0, 0, 0)),
        ((True, 8, 8), (2, 2, 2), (0, 0, 0)),
        ((4, 8, 8), (0, 2, 2), (0, 0, 0)),
        ((0, 8, 8), (2, 2, 2), (0, 0, 0)),
        ((10**6,) * 3, (2, 2, 2), (0, 0, 0)),
        ((17, 56, 56), (8, 7, 7), (0, 0, 0)),
        ((16, 56, 56), (16, 56, 56), (0, 0, 0)),  # one 50176-token window: 20 GB
    ], ids=["two_extents", "text", "scalar", "float_grid", "float_window", "float_offset",
            "bool", "zero_window", "empty_grid", "huge_grid", "beyond_paper_grid",
            "whole_grid_window"])
    def test_bad_arguments_fail_closed(self, grid, window, offsets):
        with pytest.raises(CvislrError):
            attention_mask(grid, window, offsets)

    def test_each_call_returns_a_fresh_mask(self):
        first = attention_mask((3, 5, 4), (2, 2, 2), (1, 1, 1))
        second = attention_mask((3, 5, 4), (2, 2, 2), (1, 1, 1))
        assert not np.shares_memory(first, second)
        want = second.copy()
        first[...] = 1.0  # the caller owns the array
        np.testing.assert_array_equal(attention_mask((3, 5, 4), (2, 2, 2), (1, 1, 1)), want)

    def test_numpy_integers_accepted(self):
        grid = tuple(np.array([4, 4, 4]))
        mask = attention_mask(grid, (np.int64(2),) * 3, (np.int32(1), 0, 0))
        np.testing.assert_array_equal(mask, attention_mask((4, 4, 4), (2, 2, 2), (1, 0, 0)))


class TestAttentionGroups:
    @pytest.mark.parametrize("grid,window,offsets", [
        ((4, 4, 4), (2, 2, 2), (1, 1, 1)),
        ((4, 1, 1), (2, 1, 1), (1, 0, 0)),
        ((6, 4, 2), (2, 2, 2), (1, 1, 0)),
        ((3, 5, 4), (2, 2, 2), (1, 1, 1)),   # padding + shift together
        ((8, 8, 8), (2, 4, 4), (1, 2, 2)),
        ((3, 9, 5), (2, 4, 2), (1, 2, 1)),   # padding crosses into the window before the tail
    ])
    def test_groups_are_exactly_the_allowed_pairs(self, grid, window, offsets):
        win = effective_window(grid, window)
        order, inverse, buckets = vst._attention_groups(grid, win, offsets)
        n = math.prod(grid)
        np.testing.assert_array_equal(np.sort(order), np.arange(n))
        np.testing.assert_array_equal(order[inverse], np.arange(n))

        slots = oracle_token_slots(grid, window, offsets)
        mask = attention_mask(grid, window, offsets)
        want = {(i, j) for i, (wi, pi) in enumerate(slots)
                for j, (wj, pj) in enumerate(slots)
                if wi == wj and mask[wi, pi, pj] == 0}
        rel_index = vst.rel_position_index(win)
        got, end = set(), 0
        for start, groups, size, rel in buckets:
            assert start == end
            end = start + groups * size
            for members in order[start:end].reshape(groups, size):
                assert len({slots[m][0] for m in members}) == 1  # one window
                pos = [slots[m][1] for m in members]
                np.testing.assert_array_equal(rel, rel_index[np.ix_(pos, pos)])
                got.update((int(i), int(j)) for i in members for j in members)
        assert end == n
        assert got == want


    @pytest.mark.parametrize("geometry,stage,shifted", [
        (geometry, stage, shifted) for geometry in (vst.FULL_GEOMETRY, (16, 64, 64))
        for stage in range(4) for shifted in (False, True)])
    def test_full_scale_stages_match_the_reference(self, geometry, stage, shifted):
        self._assert_matches_reference(make_config("small", 2, geometry=geometry), stage, shifted)

    @pytest.mark.parametrize("stage,shifted", [
        (stage, shifted) for stage in range(4) for shifted in (False, True)])
    def test_toy_stages_match_the_reference(self, stage, shifted):
        self._assert_matches_reference(make_toy_config("small", 2), stage, shifted)

    @LIBRARY
    @given(st.data())
    def test_drawn_grids_match_the_reference(self, data):
        grid = tuple(data.draw(st.integers(1, 12)) for _ in range(3))
        window = effective_window(grid, tuple(data.draw(st.integers(1, 8)) for _ in range(3)))
        offsets = tuple(data.draw(st.integers(0, w - 1)) for w in window)
        _assert_same_tables(vst._attention_groups.__wrapped__(grid, window, offsets),
                            reference_attention_groups(grid, window, offsets))

    def _assert_matches_reference(self, cfg, stage, shifted):
        grid = stage_grids(cfg)[stage]
        window = effective_window(grid, cfg.window)
        offsets = shift_offsets(grid, cfg.window) if shifted else (0, 0, 0)
        _assert_same_tables(vst._attention_groups(grid, window, offsets),
                            reference_attention_groups(grid, window, offsets))


def _assert_same_tables(got, want):
    """Entry-for-entry equality of two ``(order, inverse, buckets)`` tables."""
    for a, b in zip(got[:2], want[:2]):
        assert a.dtype == b.dtype and not a.flags.writeable and not b.flags.writeable
        np.testing.assert_array_equal(a, b, strict=True)
    assert len(got[2]) == len(want[2])
    for bucket, expected in zip(got[2], want[2]):
        assert bucket[:3] == expected[:3] and all(type(v) is int for v in bucket[:3])
        assert bucket[3].dtype == expected[3].dtype and not bucket[3].flags.writeable
        np.testing.assert_array_equal(bucket[3], expected[3], strict=True)


# ---------------------------------------------------------------------------
# attention / blocks


def _attn_cfg(c=4, window=(2, 2, 2)):
    return VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1),
                     heads=(1, 1, 1, 1), window=window, num_classes=2,
                     input_geometry=(8, 32, 32))


def _identity_attn_params(c, window=(2, 2, 2)):
    # a zero relative position bias table: adding 0.0 leaves every score
    # exactly as the bias-free oracles compute it
    eye3 = np.concatenate([np.eye(c)] * 3, axis=1)
    return {
        "stage1.block1.attn.qkv.weight": Tensor(eye3),
        "stage1.block1.attn.qkv.bias": Tensor(np.zeros(3 * c)),
        "stage1.block1.attn.rel_bias.table": Tensor(
            np.zeros((vst.rel_table_rows(window), 1))),
        "stage1.block1.attn.proj.weight": Tensor(np.eye(c)),
        "stage1.block1.attn.proj.bias": Tensor(np.zeros(c)),
    }


def _attention_only_block(attn, c):
    """Block params around the attention params ``attn``: unit-gain norms
    and a zero fc2, so the FFN adds exactly +0.0 and a block's ``out - x``
    is the attention of ``_unit_norm(x)``.
    """
    p, rng = "stage1.block1", np.random.default_rng(5)
    return {**attn,
            f"{p}.norm1.gain": Tensor(np.ones(c)), f"{p}.norm1.bias": Tensor(np.zeros(c)),
            f"{p}.norm2.gain": Tensor(np.ones(c)), f"{p}.norm2.bias": Tensor(np.zeros(c)),
            f"{p}.ffn.fc1.weight": Tensor(rng.normal(size=(c, 4 * c))),
            f"{p}.ffn.fc1.bias": Tensor(rng.normal(size=4 * c)),
            f"{p}.ffn.fc2.weight": Tensor(np.zeros((4 * c, c))),
            f"{p}.ffn.fc2.bias": Tensor(np.zeros(c))}


def _unit_norm(x):
    """Layer norm with gain 1 and bias 0, as the block's first norm."""
    c = x.shape[-1]
    return layer_norm(Tensor(x), Tensor(np.ones(c)), Tensor(np.zeros(c))).data


def _block_attention(x, cfg, attn, shifted):
    """The attention term of one block over ``x``: ``out - x``."""
    out = wmsa_block(Tensor(x), _attention_only_block(attn, x.shape[-1]), cfg,
                     shifted=shifted, stage=0, block=0)
    return out.data - x


class TestWindowAttention:
    @pytest.mark.parametrize("grid,shifted", [
        ((4, 4, 4), True),
        ((4, 4, 4), False),
        ((3, 5, 4), True),    # padding + shift
        ((3, 5, 4), False),   # padding only
        ((4, 2, 2), True),    # clamped axes -> partial shift
    ])
    def test_masked_window_attention_equals_restricted_dense(self, grid, shifted):
        c = 4
        cfg = _attn_cfg(c)
        x = RNG.normal(size=(1, *grid, c))
        got = _block_attention(x, cfg, _identity_attn_params(c), shifted)
        offsets = shift_offsets(grid, cfg.window) if shifted else (0, 0, 0)
        want = oracle_masked_attention(_unit_norm(x)[0], cfg.window, offsets,
                                       scale=1.0 / math.sqrt(c))
        assert np.abs(got[0] - want).max() < 1e-10

    @pytest.mark.parametrize("grid,window,shifted", [
        ((3, 5, 4), (2, 2, 2), True),    # padding + shift
        ((3, 5, 4), (2, 2, 2), False),   # padding only
        ((5, 3, 6), (2, 2, 4), True),    # tail windows split unevenly
        ((4, 2, 2), (2, 2, 2), True),    # clamped axes -> partial shift
        ((4, 2, 2), (2, 3, 3), True),    # window wider than the grid
    ])
    def test_random_weights_match_dense_masked_oracle(self, grid, window, shifted):
        c, heads, b = 4, 2, 2
        cfg = VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1),
                        heads=(heads,) * 4, window=window, num_classes=2,
                        input_geometry=(8, 32, 32))
        rng = np.random.default_rng(47)
        prefix = "stage1.block1.attn"
        rows = vst.rel_table_rows(effective_window(grid, window))
        params = {
            f"{prefix}.qkv.weight": Tensor(rng.normal(size=(c, 3 * c))),
            f"{prefix}.qkv.bias": Tensor(rng.normal(size=3 * c)),
            f"{prefix}.rel_bias.table": Tensor(rng.normal(size=(rows, heads))),
            f"{prefix}.proj.weight": Tensor(rng.normal(size=(c, c))),
            f"{prefix}.proj.bias": Tensor(rng.normal(size=c)),
        }
        x = rng.normal(size=(b, *grid, c))
        got = _block_attention(x, cfg, params, shifted)
        offsets = shift_offsets(grid, window) if shifted else (0, 0, 0)
        want = oracle_dense_masked_attention(_unit_norm(x), params, prefix, window,
                                             offsets, heads)
        assert np.abs(got - want).max() < 1e-10

    def test_single_window_dense_oracle_with_bias(self):
        # one window spanning the grid, 1 head, random weights + rel bias
        c = 6
        grid = (2, 2, 2)
        cfg = _attn_cfg(c, window=(2, 2, 2))
        wqkv = RNG.normal(size=(c, 3 * c))
        bqkv = RNG.normal(size=3 * c)
        wproj = RNG.normal(size=(c, c))
        bproj = RNG.normal(size=c)
        table = RNG.normal(size=(27, 1))
        params = {
            "stage1.block1.attn.qkv.weight": Tensor(wqkv),
            "stage1.block1.attn.qkv.bias": Tensor(bqkv),
            "stage1.block1.attn.rel_bias.table": Tensor(table),
            "stage1.block1.attn.proj.weight": Tensor(wproj),
            "stage1.block1.attn.proj.bias": Tensor(bproj),
        }
        x = RNG.normal(size=(1, *grid, c))
        got = _block_attention(x, cfg, params, shifted=False)
        flat = _unit_norm(x)[0].reshape(8, c)
        q = flat @ wqkv[:, :c] + bqkv[:c]
        k = flat @ wqkv[:, c:2 * c] + bqkv[c:2 * c]
        v = flat @ wqkv[:, 2 * c:] + bqkv[2 * c:]
        logits = q @ k.T / math.sqrt(c)
        logits += table[vst.rel_position_index((2, 2, 2)), 0]
        weights = np.exp(logits - logits.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        want = (weights @ v) @ wproj + bproj
        assert np.abs(got[0].reshape(8, c) - want).max() < 1e-10

    def test_masked_pairs_have_exactly_zero_weight(self):
        # the shifted tail window holds tokens 3 and 0, a cross-region pair,
        # and the interior window pairs tokens 1 and 2; the FFN acts per
        # token, so an output depends on another token's input only through
        # an attention weight
        grid = (4, 1, 1)
        c = 4
        cfg = _attn_cfg(c, window=(2, 1, 1))
        params = _attention_only_block(_identity_attn_params(c, window=(2, 1, 1)), c)
        x = Tensor(RNG.normal(size=(1, *grid, c)), requires_grad=True)

        def input_grads(token):  # |d out[token] / d x[j]| summed over channels, per j
            probe = np.zeros(x.shape)
            probe[0, token] = 1.0
            out = wmsa_block(x, params, cfg, shifted=True, stage=0, block=0)
            grads = backward(out, probe)
            return np.abs(grads[x][0, :, 0, 0]).sum(axis=-1)

        g0, g1, g3 = input_grads(0), input_grads(1), input_grads(3)
        assert g3[0] == 0.0 and g0[3] == 0.0
        assert g3[3] > 0.0 and g0[0] > 0.0
        assert g1[2] > 0.0 and g1[0] == 0.0 and g1[3] == 0.0


class TestFusedWindowAttentionGradients:
    def test_all_inputs_match_central_differences(self):
        # all 14 inputs of one block: the grid and its 13 parameters.
        # (3, 5, 4) pads to (4, 6, 4) under a (2, 2, 2) window, the shifted
        # block masks seam and padding pairs, and two heads split C = 4
        c, heads, grid = 4, 2, (3, 5, 4)
        cfg = VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1),
                        heads=(heads,) * 4, window=(2, 2, 2), num_classes=2,
                        input_geometry=(8, 32, 32))
        rng = np.random.default_rng(31)
        params = {name: Tensor(rng.normal(size=shape), requires_grad=True)
                  for name, shape in param_spec(cfg).items()
                  if name.startswith("stage1.block1.")}
        assert len(params) == 13
        x = Tensor(rng.normal(size=(2, *grid, c)), requires_grad=True)
        assert_node_gradients(
            lambda: wmsa_block(x, params, cfg, shifted=True, stage=0, block=0),
            [x, *params.values()], seed=32)

    def test_nan_input_raises(self):
        c = 4
        x = RNG.normal(size=(1, 3, 5, 4, c))
        x[0, 1, 2, 3, 0] = np.nan
        with pytest.raises(NumericError):
            _block_attention(x, _attn_cfg(c), _identity_attn_params(c), shifted=True)

    def test_inf_input_raises(self):
        c = 4
        x = RNG.normal(size=(1, 3, 5, 4, c))
        x[0, 2, 4, 3, 0] = np.inf
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            _block_attention(x, _attn_cfg(c), _identity_attn_params(c), shifted=True)


class TestChunkedAttention:
    """A pass without a tape runs the block in capped chunks; a tracked pass
    runs it as one chunk.  Both must give the same bits, in float64 here and
    in float32 in the subclass below."""

    DTYPE = np.float64
    # toy channels under the full window, on the stage grids of a 16x64x64 clip:
    # (8, 16, 16) pads to (8, 21, 21) and (8, 8, 8) to (8, 14, 14)
    CFG = replace(make_toy_config("small", 2, geometry=(16, 64, 64)), window=vst.FULL_WINDOW)
    # full-scale channels on the same clip: C = 96 with 3 heads, then 192 with 6
    FULL = make_config("small", 2, geometry=(16, 64, 64))

    def _block_inputs(self, stage, cfg=CFG, batch=2, std=0.5, seed=0):
        rng = np.random.default_rng(seed)
        spec = param_spec(cfg)
        prefix = f"stage{stage + 1}.block1."
        params = {name: Tensor(rng.normal(0.0, std, size=shape).astype(self.DTYPE))
                  for name, shape in spec.items() if name.startswith(prefix)}
        x = rng.normal(size=(batch, *stage_grids(cfg)[stage], cfg.stage_channels(stage)))
        return x.astype(self.DTYPE), params

    def _buckets(self, stage, shifted, cfg=CFG):
        grid = stage_grids(cfg)[stage]
        offsets = shift_offsets(grid, cfg.window) if shifted else (0, 0, 0)
        return vst._attention_groups(grid, effective_window(grid, cfg.window), offsets)

    def _assert_untracked_equals_tracked(self, stage, shifted, cfg=CFG, batch=2, std=0.5):
        x, params = self._block_inputs(stage, cfg, batch, std)
        kwargs = dict(shifted=shifted, stage=stage, block=0)
        untracked = wmsa_block(Tensor(x), params, cfg, **kwargs)
        tracked = wmsa_block(Tensor(x, requires_grad=True), params, cfg, **kwargs)
        assert GradTape.trace(tracked).nodes and not GradTape.trace(untracked).nodes
        assert untracked.data.tobytes() == tracked.data.tobytes()

    def _chunking(self, stage, shifted, cfg, batch):
        """What the untracked pass cuts: (chunks, bucket group counts, head span
        sizes, FFN row spans)."""
        order, _, buckets = self._buckets(stage, shifted, cfg)
        c = cfg.stage_channels(stage)
        chunks = vst._attention_chunks(buckets, order.size, batch, cfg.heads[stage], c, False)
        counts, heads = {}, set()
        for _, _, parts in chunks:
            for _, count, n, rel, head_spans in parts:
                counts.setdefault(rel.tobytes(), []).append(count)
                heads.add(tuple(h1 - h0 for h0, h1 in head_spans))
        ffn = vst._even_spans(batch * order.size, vst._CHUNK_ENTRIES // (4 * c))
        return chunks, list(counts.values()), heads, [hi - lo for lo, hi in ffn]

    @pytest.mark.parametrize("shifted", [False, True], ids=["wmsa", "swmsa"])
    @pytest.mark.parametrize("stage", [0, 1], ids=["stage1", "stage2"])
    def test_untracked_pass_is_byte_equal_to_tracked(self, stage, shifted):
        if (stage, shifted) == (0, False):
            # four full 392-token windows: one group's 2 x 392^2 scores
            # exceed the cap, so the untracked pass takes them one at a time
            _, _, buckets = self._buckets(stage, shifted)
            assert buckets[0][1:3] == (4, 392) and 2 * 392**2 > vst._CHUNK_ENTRIES
        self._assert_untracked_equals_tracked(stage, shifted)

    def test_uneven_chunks_are_byte_equal(self, monkeypatch):
        # room for three 392-token groups: the four-group bucket goes 2 + 2
        monkeypatch.setattr(vst, "_CHUNK_ENTRIES", 3 * 2 * 392**2)
        assert self._chunking(0, False, self.CFG, 2)[1][0] == [2, 2]
        self._assert_untracked_equals_tracked(0, False)

    @pytest.mark.parametrize("shifted", [False, True], ids=["wmsa", "swmsa"])
    def test_full_channel_stage2_at_batch2_is_byte_equal(self, shifted):
        # 1024 FFN rows at 341 per chunk: equal chunks of 256, where a 341,
        # 341, 341, 1 split would send the last row to a gemv
        _, _, _, ffn = self._chunking(1, shifted, self.FULL, 2)
        assert ffn == [256] * 4
        self._assert_untracked_equals_tracked(1, shifted, self.FULL, batch=2, std=0.1)

    @pytest.mark.parametrize("geometry,batch,cap", [
        ((16, 64, 64), 2, 2 * 2 * 392**2),  # two heads' scores of one 392-token group
        ((2, 96, 96), 1, 2**15),            # a (1, 24, 24) grid: nine 49-token windows
    ], ids=["head-slices", "group-chunks"])
    def test_small_cap_is_byte_equal(self, monkeypatch, geometry, batch, cap):
        monkeypatch.setattr(vst, "_CHUNK_ENTRIES", cap)
        cfg = make_config("small", 2, geometry=geometry)
        chunks, counts, heads, ffn = self._chunking(0, False, cfg, batch)
        assert len(chunks) > 1 and max(len(parts) for _, _, parts in chunks) > 1
        assert len(set(ffn)) == 2  # equal spans of a total they do not divide
        if batch == 2:
            assert (1, 2) in heads  # three heads in two spans
        else:
            assert any(len(set(c)) == 2 for c in counts)  # a bucket cut unevenly
        self._assert_untracked_equals_tracked(0, False, cfg, batch=batch, std=0.1)

    @pytest.mark.parametrize("shifted", [False, True], ids=["wmsa", "swmsa"])
    def test_nan_in_last_group_raises(self, shifted):
        x, params = self._block_inputs(0)
        order, _, _ = self._buckets(0, shifted)
        x.reshape(2, -1, x.shape[-1])[1, order[-1], 0] = np.nan
        with pytest.raises(NumericError):
            wmsa_block(Tensor(x), params, self.CFG, shifted=shifted, stage=0, block=0)

    @pytest.mark.parametrize("shifted", [False, True], ids=["wmsa", "swmsa"])
    def test_paper_grid_peak_stays_small(self, shifted):
        # stage 1 of the 32x224x224 clip: 128 windows of 392 tokens each, and
        # 50176 tokens of 3.2 MB per C-wide array.  Whole-bucket scores alone
        # would take 128 x 392^2 x 8 B = 157 MB, and the whole FFN's hidden and
        # Phi arrays 2 x 12.8 MB; the streamed block holds the LN1 output
        # (which becomes z1 and the output), one LN temporary and capped chunks
        cfg = replace(make_toy_config("small", 2), input_geometry=vst.FULL_GEOMETRY,
                      window=vst.FULL_WINDOW)
        params = {name: Tensor(p.data)
                  for name, p in init_params(cfg, seed=0, dtype=self.DTYPE).items()}
        x = Tensor(RNG.normal(size=(1, *stage_grids(cfg)[0], cfg.embed_dim)).astype(self.DTYPE))
        # the first call builds the cached group tables; measure the second
        wmsa_block(x, params, cfg, shifted=shifted, stage=0, block=0)
        tracemalloc.start()
        try:
            wmsa_block(x, params, cfg, shifted=shifted, stage=0, block=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestChunkedAttentionFloat32(TestChunkedAttention):
    """Every case above with float32 inputs and parameters: chunked float32
    GEMMs must round as the one-chunk pass does."""

    DTYPE = np.float32


class TestBlocks:
    def test_zeroed_projections_make_identity(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=1)
        for key in ("stage1.block1.attn.proj.weight", "stage1.block1.attn.proj.bias",
                    "stage1.block1.ffn.fc2.weight", "stage1.block1.ffn.fc2.bias"):
            params[key] = Tensor(np.zeros(params[key].shape))
        x = Tensor(RNG.normal(size=(1, 4, 8, 8, cfg.embed_dim)))
        out = wmsa_block(x, params, cfg, shifted=False, stage=0, block=0)
        np.testing.assert_array_equal(out.data, x.data)

    def test_regular_block_keeps_windows_isolated(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=2)
        x = Tensor(RNG.normal(size=(1, 4, 8, 8, cfg.embed_dim)), requires_grad=True)
        y = wmsa_block(x, params, cfg, shifted=False, stage=0, block=0)
        probe = np.zeros(y.shape)
        probe[0, 2, 2, 2, 0] = 1.0
        grads = backward(y, probe)
        # (0,0,0) lies in a different (2,2,2) window than (2,2,2)
        assert np.abs(grads[x][0, 0, 0, 0]).max() == 0.0
        assert np.abs(grads[x][0, 2, 2, 2]).max() > 0.0

    def test_shifted_pair_propagates_across_windows(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=2)
        x = Tensor(RNG.normal(size=(1, 4, 8, 8, cfg.embed_dim)), requires_grad=True)
        y = wmsa_block(x, params, cfg, shifted=False, stage=0, block=0)
        y = wmsa_block(y, params, cfg, shifted=True, stage=0, block=0)
        probe = np.zeros(y.shape)
        probe[0, 2, 2, 2, 0] = 1.0
        grads = backward(y, probe)
        assert np.abs(grads[x][0, 0, 0, 0]).max() > 0.0

    def test_toy_step_records_one_node_per_block(self):
        # every layer is one tape node: the patch embedding, 5 blocks, 3
        # merges, the head and the loss; no node only moves data
        cfg = make_toy_config("large", 4)
        params = init_params(cfg, seed=0)
        clips = Tensor(RNG.random((2, *cfg.input_geometry, 3)))
        loss = cross_entropy(forward_batch(clips, cfg, params), np.array([0, 3]))
        ops = [node.op for node in GradTape.trace(loss).nodes]
        assert ops == ["embed", "block", "merge", "block", "merge", "block", "block",
                       "merge", "block", "head", "cross_entropy"]

    @pytest.mark.parametrize("tracked", [False, True], ids=["untracked", "tracked"])
    def test_float32_erf_sub_chunks_leave_the_block_bytes(self, monkeypatch, tracked):
        # 512 rows of 32 hidden values: one erf sub-chunk, then 2340 of 7 and one of 4
        cfg = make_toy_config("small", 4)
        params = {name: Tensor(p.data, requires_grad=tracked)
                  for name, p in init_params(cfg, seed=5).items()}
        x = RNG.normal(size=(2, *stage_grids(cfg)[0], cfg.embed_dim)).astype(np.float32)

        def block():
            out = wmsa_block(Tensor(x, requires_grad=tracked), params, cfg, shifted=True)
            assert out.data.dtype == np.float32 and bool(GradTape.trace(out).nodes) == tracked
            return out.data.tobytes()

        whole = block()
        monkeypatch.setattr(vst, "_ERF_CHUNK", 7)
        assert block() == whole

    def test_channel_mismatch_rejected(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        with pytest.raises(ShapeError):
            wmsa_block(Tensor(np.ones((1, 2, 4, 4, 5))), params, cfg,
                       shifted=False, stage=0, block=0)

    def test_unbatched_grid_rejected(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        with pytest.raises(ShapeError, match="B, T, H, W, C"):
            wmsa_block(Tensor(np.ones((2, 4, 4, cfg.embed_dim))), params, cfg,
                       shifted=False, stage=0, block=0)


class TestPatchMerge:
    def _merge_params(self, c, seed=0):
        rng = np.random.default_rng(seed)
        return {
            "merge1.norm.gain": Tensor(rng.normal(size=4 * c)),
            "merge1.norm.bias": Tensor(rng.normal(size=4 * c)),
            "merge1.proj.weight": Tensor(rng.normal(size=(4 * c, 2 * c))),
        }

    def test_full_scale_extents(self):
        c = 96
        params = self._merge_params(c)
        grid = Tensor(RNG.normal(size=(1, 16, 56, 56, c)))
        out = patch_merge(grid, params, stage=0)
        assert out.shape == (1, 16, 28, 28, 192)

    def test_single_neighborhood(self):
        c = 5
        params = self._merge_params(c)
        grid = Tensor(RNG.normal(size=(1, 1, 2, 2, c)))
        out = patch_merge(grid, params, stage=0)
        assert out.shape == (1, 1, 1, 1, 2 * c)

    def test_transpose_consistency(self):
        # transposing H/W of the input transposes the output, provided the
        # weights are permuted to match the swapped neighbor order
        c = 3
        params = self._merge_params(c, seed=4)
        grid = RNG.normal(size=(2, 4, 6, c))
        out = patch_merge(Tensor(grid[None]), params, stage=0).data[0]

        swap = np.arange(4 * c).reshape(2, 2, c).transpose(1, 0, 2).reshape(-1)
        params_t = {
            "merge1.norm.gain": Tensor(params["merge1.norm.gain"].data[swap]),
            "merge1.norm.bias": Tensor(params["merge1.norm.bias"].data[swap]),
            "merge1.proj.weight": Tensor(params["merge1.proj.weight"].data[swap, :]),
        }
        out_t = patch_merge(Tensor(grid.transpose(0, 2, 1, 3)[None]), params_t,
                            stage=0).data[0]
        np.testing.assert_allclose(out_t, out.transpose(0, 2, 1, 3), atol=1e-12)

    def test_all_inputs_match_central_differences(self):
        c = 3
        params = {name: Tensor(t.data, requires_grad=True)
                  for name, t in self._merge_params(c, seed=21).items()}
        grid = Tensor(RNG.normal(size=(2, 1, 2, 4, c)), requires_grad=True)
        assert_node_gradients(lambda: patch_merge(grid, params, stage=0),
                              [grid, *params.values()], seed=22)

    def test_odd_extents_rejected(self):
        params = self._merge_params(4)
        with pytest.raises(GeometryError):
            patch_merge(Tensor(np.ones((1, 2, 3, 4, 4))), params, stage=0)

    def test_unbatched_grid_rejected(self):
        params = self._merge_params(4)
        with pytest.raises(ShapeError, match="B, T, H, W, C"):
            patch_merge(Tensor(np.ones((2, 4, 4, 4))), params, stage=0)


class TestHead:
    def _cfg(self):
        return make_toy_config("small", 3, geometry=(2, 32, 32))

    def test_all_inputs_match_central_differences(self):
        cfg = self._cfg()
        params = _tracked_params(param_spec(cfg), "head.", seed=41)
        assert len(params) == 4
        grid = Tensor(RNG.normal(size=(2, 1, 2, 2, cfg.stage_channels(3))),
                      requires_grad=True)
        assert_node_gradients(lambda: head(grid, params), [grid, *params.values()],
                              seed=42)

    def test_bit_identical_to_the_op_chain(self):
        # layer norm, the mean over the tokens, then fc, as separate forward
        # ops on untracked copies; the tests above check head's gradients
        cfg = self._cfg()
        params = _tracked_params(param_spec(cfg), "head.", seed=43)
        grid = Tensor(RNG.normal(size=(3, 1, 2, 2, cfg.stage_channels(3))),
                      requires_grad=True)
        x = layer_norm(grid.data, params["head.norm.gain"].data, params["head.norm.bias"].data)
        x = tensor_mean(x, axis=(1, 2, 3))
        chain = add(matmul(x, params["head.fc.weight"].data), params["head.fc.bias"].data)
        fused = head(grid, params)
        assert fused.node.op == "head"
        assert fused.data.tobytes() == chain.data.tobytes()

    def test_float32_inputs_run_in_float64(self):
        # the head widens its grid and parameters, so its scores are the
        # float64 head's bits, and rounds each gradient to its input's dtype
        cfg = self._cfg()
        params = {k: Tensor(p.data.astype(np.float32), requires_grad=True) for k, p in
                  _tracked_params(param_spec(cfg), "head.", seed=44).items()}
        grid = Tensor(RNG.normal(size=(2, 1, 2, 2, cfg.stage_channels(3))).astype(np.float32),
                      requires_grad=True)
        out = head(grid, params)
        wide = head(Tensor(grid.data.astype(np.float64)),
                    {k: Tensor(p.data.astype(np.float64)) for k, p in params.items()})
        assert out.data.dtype == np.float64 and out.data.tobytes() == wide.data.tobytes()
        grads = backward(out, np.ones(out.shape))
        assert [grads[t].dtype for t in (grid, *params.values())] == [np.float32] * 5

    def test_unbatched_grid_rejected(self):
        params = init_params(self._cfg(), seed=0)
        with pytest.raises(ShapeError, match="B, T, H, W, C"):
            head(Tensor(np.ones((1, 2, 2, 64))), params)


# ---------------------------------------------------------------------------
# forward


class TestForward:
    def test_toy_forward_shape_and_determinism(self):
        cfg = make_toy_config("base", 7)
        params = init_params(cfg, seed=5)
        clip = Tensor(RNG.random(size=(1, 8, 32, 32, 3)))
        s1 = forward_batch(clip, cfg, params)
        s2 = forward_batch(Tensor(clip.data.copy()), cfg, params)
        assert s1.shape == (1, 7)
        assert np.isfinite(s1.data).all()
        np.testing.assert_array_equal(s1.data, s2.data)

    def test_batch_matches_single(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=6)
        clips = RNG.random(size=(3, 8, 32, 32, 3))
        batch = forward_batch(Tensor(clips), cfg, params)
        for i in range(3):
            single = forward_batch(Tensor(clips[i:i + 1]), cfg, params)
            np.testing.assert_allclose(batch.data[i], single.data[0], atol=1e-10)

    def test_float32_model_is_close_to_float64(self):
        # the float32 default computes every layer but the head in float32
        cfg = make_toy_config("small", 4)
        clips = Tensor(RNG.random(size=(2, 8, 32, 32, 3), dtype=np.float32))
        narrow = forward_batch(clips, cfg, init_params(cfg, seed=6))
        wide = forward_batch(clips, cfg, init_params(cfg, seed=6, dtype=np.float64))
        assert narrow.data.dtype == wide.data.dtype == np.float64
        np.testing.assert_allclose(narrow.data, wide.data, rtol=0,
                                   atol=1e-5 * np.abs(wide.data).max())

    def test_geometry_mismatch_rejected(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        with pytest.raises(GeometryError):
            forward_batch(Tensor(np.ones((1, 8, 16, 16, 3))), cfg, params)

    @pytest.mark.parametrize("layer, extents, missing", [
        (lambda x, cfg, params: patch_merge(x, params, stage=3), (1, 4, 2, 2, 64),
         "merge4.norm.gain"),
        (lambda x, cfg, params: patch_merge(x, {}), (1, 4, 8, 8, 8), "merge1.norm.gain"),
        (lambda x, cfg, params: wmsa_block(x, params, cfg, shifted=False, block=5),
         (1, 4, 8, 8, 8), "stage1.block6.norm1.gain"),
        (lambda x, cfg, params: head(x, {}), (1, 4, 1, 1, 64), "head.norm.gain"),
        (lambda x, cfg, params: patch_partition_embed(x, cfg, {}), (1, 8, 32, 32, 3),
         "embed.proj.weight"),
    ], ids=["merge_stage", "merge_empty", "block_index", "head_empty", "embed_empty"])
    def test_a_layer_missing_a_parameter_names_it(self, layer, extents, missing):
        # a layer reads its parameters by name; the first one absent is a ContractError
        cfg = make_toy_config("small", 4)
        with pytest.raises(ContractError, match=re.escape(f"params missing {missing!r}")):
            layer(Tensor(np.zeros(extents)), cfg, init_params(cfg, seed=0))

    @pytest.mark.parametrize("layer, extents, name", [
        (lambda x, cfg, params: head(x, params), (1, 1, 1, 1, 5), "head.norm.gain"),
        (lambda x, cfg, params: head(x, {**params, "head.fc.bias": Tensor(np.zeros(3))}),
         (1, 1, 1, 1, 64), "head.fc.weight"),
        (lambda x, cfg, params: patch_merge(x, params, stage=0), (1, 1, 8, 8, 5),
         "merge1.norm.gain"),
        (lambda x, cfg, params: wmsa_block(x, params, cfg, True, 0, 0), (1, 4, 16, 16, 8),
         "stage1.block1.attn.rel_bias.table"),
        (lambda x, cfg, params: patch_partition_embed(
            x, cfg, init_params(make_toy_config("base", 4, geometry=(2, 32, 32)))),
         (1, 2, 32, 32, 3), "embed.proj.weight"),
    ], ids=["head_channels", "head_classes", "merge_channels", "block_window", "embed_size"])
    def test_a_layer_given_a_parameter_of_another_shape_names_it(self, layer, extents, name):
        # a toy-small model at 2x32x32 with untracked params; the block's
        # (4, 16, 16) grid needs a 27-row table for its (2, 2, 2) window, and
        # the model's stage-1 grid (1, 8, 8) a 9-row one
        cfg = make_toy_config("small", 4, geometry=(2, 32, 32))
        params = {k: Tensor(p.data) for k, p in init_params(cfg, seed=0).items()}
        with pytest.raises(ShapeError, match=re.escape(f"param {name!r} has shape")):
            layer(Tensor(np.zeros(extents, np.float32)), cfg, params)

    def test_input_gradient_finite_difference(self):
        cfg = make_toy_config("small", 3, geometry=(4, 32, 32))
        params = init_params(cfg, seed=7, dtype=np.float64)
        clip_data = RNG.random(size=(4, 32, 32, 3))
        clip = Tensor(clip_data[None], requires_grad=True)

        probe = np.random.default_rng(1).normal(size=(1, 3))

        def loss_of(data):
            scores = forward_batch(Tensor(data[None]), cfg, params)
            return float((scores.data * probe).sum())

        grads = backward(forward_batch(clip, cfg, params), probe)
        g = grads[clip][0]
        h = 1e-5
        pick = np.random.default_rng(0)
        for _ in range(5):
            idx = tuple(pick.integers(s) for s in clip_data.shape)
            orig = clip_data[idx]
            clip_data[idx] = orig + h
            hi = loss_of(clip_data)
            clip_data[idx] = orig - h
            lo = loss_of(clip_data)
            clip_data[idx] = orig
            fd = (hi - lo) / (2 * h)
            assert abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-8) < 1e-3


# ---------------------------------------------------------------------------
# parameters + checkpoints


class TestParams:
    def test_names_unique_and_complete(self):
        cfg = make_config("base", 400)
        spec = param_spec(cfg)
        names = list(spec)
        assert len(names) == len(set(names))
        assert "embed.proj.weight" in spec and "head.fc.weight" in spec
        assert spec["embed.proj.weight"] == (96, 128)
        assert spec["head.fc.weight"] == (1024, 400)
        # 18 blocks in stage 3
        assert "stage3.block18.attn.qkv.weight" in spec
        assert spec["stage3.block18.attn.qkv.weight"] == (512, 1536)

    def test_spec_is_built_once_per_config_and_read_only(self):
        spec = param_spec(make_toy_config("small", 4))
        assert param_spec(make_toy_config("small", 4)) is spec
        with pytest.raises(TypeError):
            spec["embed.proj.weight"] = (1, 1)
        assert spec["embed.proj.weight"] == (96, 8)

    def test_rel_bias_table_extent(self):
        cfg = make_config("small", 10)
        spec = param_spec(cfg)
        # stage 1 effective window (8,7,7): (2*8-1)(2*7-1)(2*7-1) = 2535 rows
        assert spec["stage1.block1.attn.rel_bias.table"] == (2535, 3)
        # stage 4 grid (16,7,7) keeps the full window
        assert spec["stage4.block1.attn.rel_bias.table"] == (2535, 24)

    @pytest.mark.parametrize("seed", [-1, 1.5, np.float64(2.0)])
    def test_init_rejects_a_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ContractError, match="seed"):
            init_params(make_toy_config("small", 2, geometry=(2, 32, 32)), seed=seed)

    def test_init_deterministic(self):
        cfg = make_toy_config("small", 4)
        a = init_params(cfg, seed=3)
        b = init_params(cfg, seed=3)
        assert all(np.array_equal(a[k].data, b[k].data) for k in a)

    def test_gain_ones_bias_zeros(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        assert (params["embed.norm.gain"].data == 1.0).all()
        assert (params["head.fc.bias"].data == 0.0).all()

    def test_float32_init_is_the_float64_draw_rounded(self):
        cfg = make_toy_config("base", 5)
        wide = init_params(cfg, seed=3, dtype=np.float64)
        for name, p in init_params(cfg, seed=3).items():
            assert p.requires_grad and p.data.dtype == np.float32
            assert p.data.tobytes() == wide[name].data.astype(np.float32).tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_draws_in_chunks_the_values_of_one_whole_weight_draw(self, dtype,
                                                                      monkeypatch):
        cfg = make_toy_config("large", 4)
        monkeypatch.setattr(vst, "_CHUNK_ENTRIES", 7)
        rng = np.random.Generator(np.random.Philox(5))
        got = init_params(cfg, seed=5, dtype=dtype)
        for name, shape in param_spec(cfg).items():
            if name.endswith(".gain"):
                want = np.ones(shape, dtype)
            elif name.endswith(".bias"):
                want = np.zeros(shape, dtype)
            else:
                want = rng.normal(0.0, 0.02, size=shape).astype(dtype)
            assert got[name].data.dtype == dtype
            assert got[name].data.tobytes() == want.tobytes(), name

    def test_init_holds_the_parameters_and_one_chunk(self, monkeypatch):
        # a whole-weight float64 draw of toy large's widest weight is 512 KiB;
        # 64 KiB covers the dict, the tensors and their views
        cfg = make_toy_config("large", 4)
        monkeypatch.setattr(vst, "_CHUNK_ENTRIES", 7)
        nbytes = 4 * sum(math.prod(shape) for shape in param_spec(cfg).values())
        init_params(cfg)  # build the cached attention tables first
        tracemalloc.start()
        try:
            init_params(cfg, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 7 * 8 + 2**16

    @pytest.mark.parametrize("source", ["init-float32", "init-float64", "checkpoint",
                                        "unseekable-checkpoint"])
    def test_params_are_views_of_one_buffer_in_spec_order(self, source):
        cfg = make_toy_config("base", 5)
        params = init_params(cfg, seed=2, dtype=np.float64 if source == "init-float64"
                             else np.float32)
        if source.endswith("checkpoint"):
            buf = io.BytesIO()
            save_checkpoint(buf, cfg, params)
            blob = buf.getvalue()
            loaded = load_checkpoint(io.BytesIO(blob) if source == "checkpoint"
                                     else io.BufferedReader(_Unseekable(blob)))[1]
            assert all(np.array_equal(loaded[k].data, params[k].data) for k in params)
            params = loaded
        base = params["embed.proj.weight"].data.base
        start = base.__array_interface__["data"][0]
        at = 0
        for name, shape in param_spec(cfg).items():
            data = params[name].data
            assert data.base is base and data.shape == shape, name
            assert data.flags.c_contiguous and data.flags.writeable, name
            assert data.__array_interface__["data"][0] - start == at, name
            at += data.nbytes
        assert at == base.nbytes and base.flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float16, np.int64, None, "float32"])
    def test_a_dtype_other_than_float32_or_float64_refused(self, dtype):
        with pytest.raises(ContractError, match="dtype"):
            init_params(make_toy_config("small", 2, geometry=(2, 32, 32)), dtype=dtype)

    def test_params_of_mixed_dtypes_refused(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        params["head.fc.bias"] = Tensor(params["head.fc.bias"].data.astype(np.float64))
        with pytest.raises(ContractError, match="must all be float32 or all float64"):
            forward_batch(Tensor(np.ones((1, 8, 32, 32, 3))), cfg, params)
        with pytest.raises(ContractError, match="must all be float32 or all float64"):
            save_checkpoint(io.BytesIO(), cfg, params)


def _toy_checkpoint() -> bytes:
    cfg = make_toy_config("small", 4)
    buf = io.BytesIO()
    save_checkpoint(buf, cfg, init_params(cfg, seed=0))
    return buf.getvalue()


def _records_checkpoint(edit) -> bytes:
    """A toy checkpoint whose parameter records are ``edit(params)``, written
    past ``save_checkpoint``'s check."""
    cfg = make_toy_config("small", 4)
    header = vst._config_header(cfg)
    buf = io.BytesIO()
    buf.write(b"VSTC" + struct.pack("<I", len(header)) + header)
    for name, tensor in edit(init_params(cfg, seed=0)).items():
        buf.write(struct.pack("<I", len(name.encode())) + name.encode())
        write_tensor(buf, tensor)
    return buf.getvalue()


def _edit_header(blob: bytes, old: bytes, new: bytes) -> bytes:
    """Replace one header line of a checkpoint blob, fixing the length prefix."""
    (hlen,) = struct.unpack("<I", blob[4:8])
    header = blob[8:8 + hlen]
    assert header.count(old) == 1
    header = header.replace(old, new)
    return blob[:4] + struct.pack("<I", len(header)) + header + blob[8 + hlen:]


class TestCheckpoint:
    def test_round_trip_bit_exact_at_f32(self, tmp_path):
        cfg = make_toy_config("base", 6)
        params = init_params(cfg, seed=11)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, params)
        blob = buf.getvalue()
        cfg2, params2 = load_checkpoint(io.BytesIO(blob))
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(
                params[k].data.astype(np.float32),
                params2[k].data.astype(np.float32))
        buf2 = io.BytesIO()
        save_checkpoint(buf2, cfg2, params2)
        assert buf2.getvalue() == blob
        path = tmp_path / "model.vstc"  # a pathlib.Path names a file, as a str does
        save_checkpoint(path, cfg2, params2)
        assert path.read_bytes() == blob
        assert load_checkpoint(path)[0] == cfg

    def test_loads_as_stored(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=2)
        blob = io.BytesIO()
        save_checkpoint(blob, cfg, params)
        _, back = load_checkpoint(io.BytesIO(blob.getvalue()))
        for name, p in params.items():
            assert back[name].data.dtype == np.float32 and back[name].data.flags.writeable
            np.testing.assert_array_equal(back[name].data, p.data)

    def test_loaded_params_trainable(self):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        buf.seek(0)
        _, params = load_checkpoint(buf)
        assert all(p.requires_grad for p in params.values())

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(io.BytesIO(b"JUNK" + b"\0" * 64))

    def test_truncated_param_record(self):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        blob = buf.getvalue()[:-10]
        with pytest.raises(FormatError):
            load_checkpoint(io.BytesIO(blob))

    def test_oversized_header_length_rejected(self):
        blob = b"VSTC" + struct.pack("<I", 2**32 - 1) + b"size=small\n"
        with pytest.raises(FormatError, match="declares"):
            load_checkpoint(io.BytesIO(blob))

    def test_oversized_name_length_rejected(self, tmp_path):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        path = tmp_path / "huge_name.vstc"
        path.write_bytes(buf.getvalue() + struct.pack("<I", 2**32 - 1) + b"w")
        with pytest.raises(FormatError, match="declares"):
            load_checkpoint(str(path))

    def test_partial_name_length_rejected(self):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        with pytest.raises(FormatError, match="name length"):
            load_checkpoint(io.BytesIO(buf.getvalue() + b"\x05\x00"))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("word", [0x7FC00000, 0x7FA00000, 0x7F800000],
                             ids=["nan", "signaling-nan", "inf"])
    def test_non_finite_parameter_rejected(self, word):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        # the last four bytes are the last value of the last parameter
        blob = buf.getvalue()[:-4] + struct.pack("<I", word)
        with pytest.raises(FormatError, match="NaN or infinite"):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("field", [b"size=small", b"embed.proj.weight"],
                             ids=["header", "parameter_name"])
    def test_non_utf8_text_rejected(self, field):
        cfg = make_toy_config("small", 4)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        blob = buf.getvalue()
        assert blob.count(field) == 1
        blob = blob.replace(field, b"\xff" + field[1:])
        with pytest.raises(FormatError, match="UTF-8"):
            load_checkpoint(io.BytesIO(blob))

    def test_missing_param_rejected(self):
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0)
        with pytest.raises(ContractError):
            save_checkpoint(io.BytesIO(), cfg, {"embed.proj.weight":
                                                params["embed.proj.weight"]})

    def test_header_survives_unusual_values(self):
        # drop_path_rate is a fixed header field; a checkpoint whose writer
        # stored another rate in [0, 1) loads as the same model
        blob = _toy_checkpoint()
        cfg, params = load_checkpoint(io.BytesIO(blob))
        cfg2, params2 = load_checkpoint(io.BytesIO(_edit_header(
            blob, b"drop_path_rate=0.0\n", b"drop_path_rate=0.123456789\n")))
        assert cfg2 == cfg
        for k in params:
            np.testing.assert_array_equal(params2[k].data, params[k].data)

    @pytest.mark.parametrize("old, new", [
        (b"drop_path_rate=0.0\n", b"drop_path_rate=1.0\n"),
        (b"drop_path_rate=0.0\n", b"drop_path_rate=x\n"),
        (b"patch=2,4,4\n", b"patch=2,2,2\n"),
        (b"use_rel_pos_bias=1\n", b"use_rel_pos_bias=0\n"),
    ], ids=["rate_one", "rate_text", "patch", "rel_pos_bias"])
    def test_fixed_header_fields_validated(self, old, new):
        blob = _edit_header(_toy_checkpoint(), old, new)
        with pytest.raises(FormatError, match="invalid checkpoint header"):
            load_checkpoint(io.BytesIO(blob))

    def test_parameter_beyond_f32_is_named(self):
        # the records stream one at a time: the error comes after earlier records
        cfg = make_toy_config("small", 4)
        params = init_params(cfg, seed=0, dtype=np.float64)
        params["head.fc.bias"].data[1] = 1e39
        with pytest.raises(NumericError, match="parameter 'head.fc.bias'"):
            save_checkpoint(io.BytesIO(), cfg, params)

    def test_header_class_count_beyond_the_cap_rejected(self):
        blob = _edit_header(_toy_checkpoint(), b"num_classes=4\n", b"num_classes=4097\n")
        with pytest.raises(FormatError, match=r"invalid checkpoint header: num_classes .*4097"):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("embed_dim", [b"200", b"1048576"])
    def test_header_embed_dim_beyond_the_paper_rejected(self, embed_dim):
        blob = _edit_header(_toy_checkpoint(), b"embed_dim=8\n", b"embed_dim=" + embed_dim + b"\n")
        with pytest.raises(FormatError, match="invalid checkpoint header: embed_dim"):
            load_checkpoint(io.BytesIO(blob))

    def test_header_size_naming_no_preset_rejected(self):
        blob = _edit_header(_toy_checkpoint(), b"size=small\n", b"size=huge\n")
        with pytest.raises(FormatError, match="invalid checkpoint header: unknown size 'huge'"):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("geometry", [b"3,32,32", b"0,64,64"])
    def test_untileable_header_geometry_rejected(self, geometry):
        blob = _edit_header(_toy_checkpoint(), b"input_geometry=8,32,32\n",
                            b"input_geometry=" + geometry + b"\n")
        with pytest.raises(FormatError, match="invalid checkpoint header"):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("geometry", [b"64,448,448", b"1099511627776,8,8"])
    def test_header_geometry_beyond_the_paper_clip_rejected(self, geometry):
        blob = _edit_header(_toy_checkpoint(), b"input_geometry=8,32,32\n",
                            b"input_geometry=" + geometry + b"\n")
        with pytest.raises(FormatError, match="paper's clip size"):
            load_checkpoint(io.BytesIO(blob))

    def test_header_window_beyond_the_papers_tokens_rejected(self):
        blob = _edit_header(_toy_checkpoint(), b"input_geometry=8,32,32\n",
                            b"input_geometry=32,224,224\n")
        blob = _edit_header(blob, b"window=2,2,2\n", b"window=16,56,56\n")
        with pytest.raises(FormatError, match="invalid checkpoint header: window"):
            load_checkpoint(io.BytesIO(blob))

    def test_load_reads_each_record_in_place(self):
        # a record read into a temporary, then copied, would add toy large's
        # largest record, 256 KiB; the rest is the finiteness check and the objects
        cfg = make_toy_config("large", 4)
        spec = param_spec(cfg)
        buf = io.BytesIO()
        save_checkpoint(buf, cfg, init_params(cfg, seed=0))
        blob = buf.getvalue()
        nbytes = 4 * sum(math.prod(shape) for shape in spec.values())
        largest = 4 * max(math.prod(shape) for shape in spec.values())
        load_checkpoint(io.BytesIO(blob))  # build the cached attention tables first
        tracemalloc.start()
        try:
            load_checkpoint(io.BytesIO(blob))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 2**20
        assert peak - nbytes < largest

    def test_depths_beyond_the_records_rejected_cheaply(self):
        # a corrupt depths field must fail before the parameter table is built
        blob = _edit_header(_toy_checkpoint(), b"depths=1,1,2,1\n",
                            b"depths=1,1,200000,1\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="invalid checkpoint header: depths"):
                load_checkpoint(io.BytesIO(blob))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    @pytest.mark.parametrize("line", [b"size=large\n", b"embed_dim=16\n",
                                      b"depths=1,1,1,1\n"], ids=["size", "embed_dim", "depths"])
    def test_repeated_header_key_rejected(self, line):
        # a second size line must not relabel a C=8 model as large
        key = line.split(b"=")[0].decode()
        blob = _edit_header(_toy_checkpoint(), b"use_rel_pos_bias=1\n",
                            b"use_rel_pos_bias=1\n" + line)
        with pytest.raises(FormatError, match=f"repeats '{key}'"):
            load_checkpoint(io.BytesIO(blob))

    @pytest.mark.parametrize("edit, message", [
        (lambda p: {k: v for k, v in p.items() if k != "head.fc.bias"},
         "missing 1 entries, e.g. 'head.fc.bias'"),
        (lambda p: {**p, "junk.param": Tensor(np.ones(3))}, "'junk.param'"),
        (lambda p: {**p, "head.fc.bias": Tensor(np.ones(5))},
         r"'head.fc.bias' has shape \(5,\), expected \(4,\)"),
    ], ids=["missing", "unknown", "wrong_shape"])
    def test_records_that_do_not_match_the_header_are_format_errors(self, edit, message):
        with pytest.raises(FormatError, match="records do not match its header: .*" + message):
            load_checkpoint(io.BytesIO(_records_checkpoint(edit)))

    def test_unknown_param_rejected(self):
        extra = io.BytesIO()
        extra.write(struct.pack("<I", len(b"junk.param")) + b"junk.param")
        write_tensor(extra, np.ones(3))
        with pytest.raises(CvislrError, match="junk.param"):
            load_checkpoint(io.BytesIO(_toy_checkpoint() + extra.getvalue()))
