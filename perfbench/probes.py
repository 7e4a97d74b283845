"""Measurements taken from outside the package through its public functions.

Nothing here changes what the package computes: the composed forward pass
calls the same pieces ``vst.forward_batch`` calls, in the same order, and the
workloads check that its logits are bit-identical.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from cvislr import ensemble, vst
from cvislr.tensor import GradTape, add, layer_norm, matmul, tensor_mean

#: Ops that only move data: they copy or re-lay out their input.
COPY_OPS = frozenset({"reshape", "permute", "index_first", "pad_end", "roll", "crop"})


def clear_caches() -> None:
    """Empty every ``lru_cache`` table in ``cvislr.vst`` (mask and index tables)."""
    for obj in vars(vst).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()


def composed_forward(clips, cfg, params, tracer):
    """``vst.forward_batch`` rebuilt from its pieces, one span per piece."""
    with tracer.span("vst.embed"):
        x = vst.patch_partition_embed(clips, cfg, params)
    for s in range(4):
        for blk in range(cfg.depths[s]):
            shifted = bool(blk % 2)
            with tracer.span("vst.swmsa" if shifted else "vst.wmsa"):
                x = vst.wmsa_block(x, params, cfg, shifted=shifted, stage=s, block=blk)
        if s < 3:
            with tracer.span("vst.merge"):
                x = vst.patch_merge(x, params, stage=s)
    with tracer.span("vst.head"):
        x = layer_norm(x, params["head.norm.gain"], params["head.norm.bias"])
        x = tensor_mean(x, axis=(1, 2, 3))
        return add(matmul(x, params["head.fc.weight"]), params["head.fc.bias"])


def forward_peak_mb(clips, cfg, params) -> float:
    """Peak bytes allocated (numpy included) during one forward pass, in MB."""
    tracemalloc.start()
    try:
        vst.forward_batch(clips, cfg, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def tape_counts(loss) -> tuple[int, int, float]:
    """(tape nodes, copy nodes, MB the copy nodes read) for one step's graph.

    The MB figure is computed from shapes: 8 bytes per element of each copy
    node's input.
    """
    nodes = GradTape.trace(loss).nodes
    copies = [n for n in nodes if n.op in COPY_OPS]
    mb = sum(8 * n.parents[0].size for n in copies) / 1e6
    return len(nodes), len(copies), mb


def window_shares(cfg) -> tuple[float, float]:
    """(padded token share, masked pair share) over every attention block.

    Computed from ``stage_grids`` and ``attention_mask``; both are shares of
    the tokens and token pairs that attention processes for one clip.
    """
    tokens = padded = pairs = masked = 0
    for s, grid in enumerate(vst.stage_grids(cfg)):
        win = vst.effective_window(grid, cfg.window)
        for blk in range(cfg.depths[s]):
            offsets = vst.shift_offsets(grid, cfg.window) if blk % 2 else (0, 0, 0)
            mask = vst.attention_mask(grid, win, offsets)  # (windows, L, L)
            n = mask.shape[0] * mask.shape[1]
            tokens += n
            padded += n - math.prod(grid)
            pairs += mask.size
            masked += int(np.isinf(mask).sum())
    return padded / tokens, masked / pairs


def _softmax_rows(scores: np.ndarray) -> np.ndarray:
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def fusion_mismatches(sets, final, report, manifest) -> int:
    """Disagreements between a fused set and its report and a numpy recomputation.

    ``sets`` maps (size, modality) to the six input prediction sets; the
    recomputation fuses sizes (large, base, small), then rgb and depth.
    """
    w_size = np.array(ensemble.DEFAULT_SIZE_WEIGHTS) / sum(ensemble.DEFAULT_SIZE_WEIGHTS)
    w_mod = np.array(ensemble.DEFAULT_MODALITY_WEIGHTS) / sum(ensemble.DEFAULT_MODALITY_WEIGHTS)
    stage1 = [sum(w * _softmax_rows(sets[(size, modality)].scores)
                  for w, size in zip(w_size, ("large", "base", "small")))
              for modality in ("rgb", "depth")]
    reference = w_mod[0] * stage1[0] + w_mod[1] * stage1[1]

    bad = 0
    if not np.allclose(final.scores, reference, rtol=0.0, atol=1e-12):
        bad += 1
    views = {r.sample_id: r.view for r in manifest.split("test")}
    hits = np.argmax(reference, axis=1) == final.labels
    if int(hits.sum()) != report.correct:
        bad += 1
    for view, (correct, total) in report.per_view.items():
        in_view = np.array([views[sid] == view for sid in final.sample_ids])
        if (int(hits[in_view].sum()), int(in_view.sum())) != (correct, total):
            bad += 1
    return bad
