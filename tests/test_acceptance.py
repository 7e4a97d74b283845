"""Acceptance gate: one test per shipping criterion, at stated tolerances.

Each test prints a one-line summary with the measured numbers; pytest -v
shows one PASSED/FAILED line per criterion.
"""

import hashlib
import io
import math
import os
import time

import numpy as np
import pytest

from cvislr import vst
from cvislr.data import generate_dataset
from cvislr.ensemble import (
    DEFAULT_MODALITY_WEIGHTS,
    DEFAULT_SIZE_WEIGHTS,
    PROBABILITIES,
    PredictionSet,
    multimodal_ensemble,
    read_predictions,
    single_modal_ensemble,
    write_predictions,
)
from cvislr.tensor import Tensor, backward, read_tensor, write_tensor
from cvislr.train import (
    AdamState,
    TrainConfig,
    adamw_step,
    cross_entropy,
    evaluate,
    format_report,
    predict,
    save_report,
    train,
)

RNG = np.random.default_rng(20240814)


# ---------------------------------------------------------------------------
# 1. geometry conformance


def test_01_geometry_conformance():
    t0 = time.monotonic()
    assert vst.PATCH_FEATURES == 96  # 2*4*4*3 features per block

    cfg = vst.make_config("small", 400, geometry=(32, 224, 224))
    params = {
        "embed.proj.weight": Tensor(RNG.normal(size=(96, 96)) * 0.02),
        "embed.proj.bias": Tensor(np.zeros(96)),
        "embed.norm.gain": Tensor(np.ones(96)),
        "embed.norm.bias": Tensor(np.zeros(96)),
    }
    clip = Tensor(RNG.random(size=(1, 32, 224, 224, 3)))
    tokens = vst.patch_partition_embed(clip, cfg, params)
    assert tokens.shape == (1, 16, 56, 56, 96)

    grids = vst.stage_grids(cfg)
    assert grids == [(16, 56, 56), (16, 28, 28), (16, 14, 14), (16, 7, 7)]
    channels = [cfg.stage_channels(s) for s in range(4)]
    assert channels == [96, 192, 384, 768]

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"PASS geometry: (1,32,224,224,3) -> tokens (1,16,56,56,96); stages "
          f"{grids} channels {channels}; {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. gradient correctness (finite differences on the toy config)


def test_02_gradients_match_finite_differences():
    t0 = time.monotonic()
    cfg = vst.make_toy_config("large", 5)  # C=16, depths (1,1,2,1), win (2,2,2)
    assert cfg.embed_dim == 16 and cfg.depths == (1, 1, 2, 1)
    params = vst.init_params(cfg, seed=12)
    clip_data = RNG.random(size=(8, 32, 32, 3))
    label = 3

    def loss_value():
        scores = vst.forward_batch(Tensor(clip_data[None]), cfg, params)
        return cross_entropy(scores, [label]).item()

    scores = vst.forward_batch(Tensor(clip_data[None]), cfg, params)
    grad_map = backward(cross_entropy(scores, [label]))

    probe_rng = np.random.default_rng(99)
    names = probe_rng.choice(list(params), size=20, replace=False)
    h = 1e-5
    worst = 0.0
    for name in names:
        p = params[name]
        idx = tuple(probe_rng.integers(s) for s in p.shape)
        analytic = grad_map[p][idx]
        orig = p.data[idx]
        p.data[idx] = orig + h
        hi = loss_value()
        p.data[idx] = orig - h
        lo = loss_value()
        p.data[idx] = orig
        fd = (hi - lo) / (2 * h)
        rel = abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8)
        worst = max(worst, rel)
        assert rel < 1e-3, f"{name}[{idx}]: analytic {analytic} vs fd {fd}"

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"PASS gradients: 20 sampled parameters, worst relative error "
          f"{worst:.3e} (h=1e-5); {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. shifted-window mask oracle


def _region_code(coord, padded, window, offsets):
    code = 0
    for c, p, w, s in zip(coord, padded, window, offsets):
        if c < s:
            axis = 2
        elif c < p - w + s:
            axis = 0
        else:
            axis = 1
        code = code * 3 + axis
    return code


def _dense_region_restricted_attention(x, window, offsets, scale):
    """Brute-force reference: per-token softmax attention over tokens of the
    same shifted window and pre-shift region, with q = k = v = x."""
    grid = x.shape[:3]
    padded = tuple(math.ceil(g / w) * w for g, w in zip(grid, window))
    coords = [(t, h, w_) for t in range(grid[0]) for h in range(grid[1])
              for w_ in range(grid[2])]

    def window_index(c):
        rolled = tuple((ci - s) % p for ci, s, p in zip(c, offsets, padded))
        return tuple(r // w for r, w in zip(rolled, window))

    out = np.zeros_like(x)
    for ci in coords:
        partners = [cj for cj in coords
                    if window_index(cj) == window_index(ci)
                    and (cj == ci or _region_code(cj, padded, window, offsets)
                         == _region_code(ci, padded, window, offsets))]
        logits = np.array([x[ci] @ x[cj] * scale for cj in partners])
        weights = np.exp(logits - logits.max())
        weights /= weights.sum()
        out[ci] = sum(w * x[cj] for w, cj in zip(weights, partners))
    return out


def test_03_shifted_window_mask_oracle():
    grid, window = (4, 4, 4), (2, 2, 2)
    offsets = vst.shift_offsets(grid, window)
    assert offsets == (1, 1, 1)  # half-window shift on every axis

    c = 4
    cfg = vst.VstConfig(size="small", embed_dim=c, depths=(1, 1, 1, 1),
                        heads=(1, 1, 1, 1), window=window, num_classes=2,
                        input_geometry=(8, 32, 32))
    eye3 = np.concatenate([np.eye(c)] * 3, axis=1)
    params = {  # a zero bias table adds exactly 0.0 to every score
        "stage1.block1.attn.qkv.weight": Tensor(eye3),
        "stage1.block1.attn.qkv.bias": Tensor(np.zeros(3 * c)),
        "stage1.block1.attn.rel_bias.table": Tensor(np.zeros((vst.rel_table_rows(window), 1))),
        "stage1.block1.attn.proj.weight": Tensor(np.eye(c)),
        "stage1.block1.attn.proj.bias": Tensor(np.zeros(c)),
    }
    x = RNG.normal(size=(1, *grid, c))
    got = vst._window_attention(Tensor(x), cfg, params, stage=0, block=0,
                                shifted=True)
    want = _dense_region_restricted_attention(x[0], window, offsets,
                                              scale=1.0 / math.sqrt(c))
    delta = np.abs(got.data[0] - want).max()
    assert delta < 1e-10
    print(f"PASS mask oracle: 4x4x4 grid, window (2,2,2), shift (1,1,1); "
          f"max |delta| = {delta:.3e}")


# ---------------------------------------------------------------------------
# 4. ensemble algebra


def _random_prob_set(ids, k, seed, provenance=""):
    rng = np.random.default_rng(seed)
    rows = rng.random((len(ids), k)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return PredictionSet(sample_ids=ids, scores=rows,
                         score_kind=PROBABILITIES, provenance=provenance)


def test_04_ensemble_algebra():
    assert DEFAULT_SIZE_WEIGHTS == (0.4, 0.4, 0.2)
    assert DEFAULT_MODALITY_WEIGHTS == (0.65, 0.35)

    ids = tuple(f"s{i:03d}" for i in range(17))
    k = 11
    rgb_sets = [_random_prob_set(ids, k, seed) for seed in (1, 2, 3)]
    depth_sets = [_random_prob_set(ids, k, seed) for seed in (4, 5, 6)]

    staged = multimodal_ensemble(
        single_modal_ensemble(rgb_sets, DEFAULT_SIZE_WEIGHTS),
        single_modal_ensemble(depth_sets, DEFAULT_SIZE_WEIGHTS),
        DEFAULT_MODALITY_WEIGHTS)
    flat_weights = tuple(m * s for m in DEFAULT_MODALITY_WEIGHTS
                         for s in DEFAULT_SIZE_WEIGHTS)
    flat = single_modal_ensemble(rgb_sets + depth_sets, flat_weights)
    two_stage_delta = np.abs(staged.scores - flat.scores).max()
    assert two_stage_delta < 1e-12

    row_sum_delta = np.abs(staged.scores.sum(axis=1) - 1.0).max()
    assert row_sum_delta < 1e-12

    degenerate = single_modal_ensemble(rgb_sets, (1.0, 0.0, 0.0))
    np.testing.assert_array_equal(degenerate.scores, rgb_sets[0].scores)
    degenerate_mm = multimodal_ensemble(rgb_sets[0], depth_sets[0], (0.0, 1.0))
    np.testing.assert_array_equal(degenerate_mm.scores, depth_sets[0].scores)

    print(f"PASS ensemble algebra: two-stage vs flat |delta| = "
          f"{two_stage_delta:.3e}; row sums within {row_sum_delta:.3e}; "
          f"degenerate weights exact; defaults (0.4,0.4,0.2)/(0.65,0.35)")


# ---------------------------------------------------------------------------
# 5. optimizer and loss oracles


def test_05_optimizer_and_loss_oracles():
    ce = cross_entropy(Tensor([[0.0, 0.0]]), [0]).item()
    ce_err = abs(ce - math.log(2.0))
    assert ce_err < 1e-12

    # single AdamW step against the scalar recurrence
    lr, wd, eps = 0.02, 0.05, 1e-8
    theta0, g = 1.5, 0.7
    cfg = TrainConfig(learning_rate=lr, weight_decay=wd)
    theta = Tensor([theta0], requires_grad=True)
    params = {"theta": theta}
    adamw_step(params, {"theta": np.array([g])}, AdamState.zeros(params), cfg)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    want = theta0 * (1 - lr * wd) - lr * g / (math.sqrt(g * g) + eps)
    adam_err = abs(theta.data[0] - want)
    assert adam_err < 1e-12

    # quadratic bowl |theta|^2 from 10*ones: reaches ||theta|| < 0.1
    bowl_cfg = TrainConfig(learning_rate=0.01)
    bowl = Tensor(np.full(4, 10.0), requires_grad=True)
    bowl_params = {"theta": bowl}
    state = AdamState.zeros(bowl_params)
    steps = 0
    for steps in range(1, 2001):
        adamw_step(bowl_params, {"theta": 2.0 * bowl.data}, state, bowl_cfg)
        if np.linalg.norm(bowl.data) < 0.1:
            break
    norm = float(np.linalg.norm(bowl.data))
    assert norm < 0.1

    print(f"PASS optimizer/loss: ce(0,0 -> 0) = ln2 + {ce_err:.1e}; AdamW "
          f"step |delta| = {adam_err:.1e}; bowl ||theta|| = {norm:.3f} "
          f"after {steps} steps")


# ---------------------------------------------------------------------------
# 6 + 7. end-to-end desk-scale run, and its determinism


SIZES = ("small", "base", "large")
MODALITIES = ("rgb", "depth")
VIEWS = ("left", "right")

# Pinned outputs of run_pipeline: per-view correct counts of the six members
# and three fusions, and the final fused scores.  Regenerate only when a
# change is meant to alter the pipeline's numbers:
#
#     PYTHONPATH=src python tests/test_acceptance.py
PIPELINE_FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                                "acceptance_pipeline.npz")
# Training carries rounding through 900 steps: a 1-ulp nudge of every gelu
# output moved the fused scores by up to 1.1e-13 after 25 epochs (a nudge of
# layer_norm's output by 1.1e-13), and no count.  SCORE_TOL sits four orders
# above that drift.  Counts are pinned exactly: the smallest top-1 margin of
# any member or fusion is 7.2e-4 in probability, so a count moves only with a
# probability shift that SCORE_TOL would already reject.
SCORE_TOL = 1e-9


def run_pipeline(root):
    """Full desk-scale protocol; returns accuracies, report, artifact hashes,
    per-view correct counts and the fused scores."""
    os.makedirs(root, exist_ok=True)
    manifest = generate_dataset(num_classes=8, signers_per_class=6,
                                geometry=(8, 32, 32),
                                out_dir=os.path.join(root, "data"), seed=7)
    tc = TrainConfig(learning_rate=1e-3, epochs=25, batch_size=8, seed=0)
    train_acc = {}
    test_acc = {}
    test_sets = {}
    artifacts = {}
    correct = {}

    def count(name, pset):
        per_view = evaluate(pset, manifest, "test").per_view
        correct[name] = [per_view[v][0] for v in VIEWS]

    def record(rel, path=None):
        path = path or os.path.join(root, rel)
        with open(path, "rb") as f:
            artifacts[rel] = hashlib.sha256(f.read()).hexdigest()

    for modality in MODALITIES:
        for size in SIZES:
            cfg = vst.make_toy_config(size, 8)
            params = vst.init_params(cfg, seed=0)
            train(cfg, params, manifest, tc, modality=modality)
            ckpt = f"{size}_{modality}.vstc"
            vst.save_checkpoint(os.path.join(root, ckpt), cfg, params)
            record(ckpt)

            train_pred = predict(cfg, params, manifest, "train", modality)
            hits = np.argmax(train_pred.scores, axis=1) == train_pred.labels
            train_acc[(size, modality)] = float(np.mean(hits))

            test_pred = predict(cfg, params, manifest, "test", modality)
            test_sets[(size, modality)] = test_pred
            count(f"{size}_{modality}", test_pred)
            hits = np.argmax(test_pred.scores, axis=1) == test_pred.labels
            test_acc[(size, modality)] = float(np.mean(hits))
            pred_rel = f"{size}_{modality}.pred"
            write_predictions(os.path.join(root, pred_rel), test_pred)
            record(pred_rel)

    fused_by_modality = {}
    for modality in MODALITIES:
        fused = single_modal_ensemble(
            [test_sets[("large", modality)], test_sets[("base", modality)],
             test_sets[("small", modality)]], DEFAULT_SIZE_WEIGHTS)
        fused_by_modality[modality] = fused
        count(f"fused_{modality}", fused)
        rel = f"fused_{modality}.pred"
        write_predictions(os.path.join(root, rel), fused)
        record(rel)
        hits = np.argmax(fused.scores, axis=1) == fused.labels
        test_acc[("ensemble", modality)] = float(np.mean(hits))

    final = multimodal_ensemble(fused_by_modality["rgb"],
                                fused_by_modality["depth"],
                                DEFAULT_MODALITY_WEIGHTS)
    write_predictions(os.path.join(root, "fused_rgbd.pred"), final)
    record("fused_rgbd.pred")

    report = evaluate(final, manifest, "test")
    count("fused_rgbd", final)
    save_report(os.path.join(root, "report.txt"), report)
    record("report.txt")
    return {"train_acc": train_acc, "test_acc": test_acc, "report": report,
            "artifacts": artifacts, "correct": correct,
            "fused_scores": final.scores}


def pinned_outputs(result) -> dict[str, np.ndarray]:
    """The fixture's arrays for one run_pipeline result."""
    names = sorted(result["correct"])
    return {"names": np.array(names),
            "correct": np.array([result["correct"][n] for n in names], dtype=np.int64),
            "fused_scores": result["fused_scores"]}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.monotonic()
    result = run_pipeline(str(root / "run1"))
    result["elapsed"] = time.monotonic() - t0
    result["root"] = str(root)
    return result


def test_06_end_to_end_desk_scale(pipeline):
    for (size, modality), acc in pipeline["train_acc"].items():
        assert acc >= 0.90, f"{size}/{modality} train acc {acc:.3f} < 0.90"

    report = pipeline["report"]
    assert report.total == 8 * 6 * 2  # test split: left + right views
    assert set(report.per_view) == {"left", "right"}
    assert report.per_view["left"][1] == 48
    assert report.per_view["right"][1] == 48
    assert sum(t for _, t in report.per_view.values()) == report.total
    assert report.confusion.sum() == report.total
    text = format_report(report)
    assert text.startswith("overall_acc: ")

    assert pipeline["elapsed"] < 3600.0

    want = np.load(PIPELINE_FIXTURE)
    got = pinned_outputs(pipeline)
    np.testing.assert_array_equal(got["names"], want["names"])
    np.testing.assert_array_equal(got["correct"], want["correct"])
    assert got["fused_scores"].shape == want["fused_scores"].shape == (96, 8)
    drift = np.abs(got["fused_scores"] - want["fused_scores"]).max()
    assert drift <= SCORE_TOL, f"fused scores drift {drift:.3g} from the pinned run"

    singles = ", ".join(
        f"{s}/{m} train {pipeline['train_acc'][(s, m)]:.2f} "
        f"test {pipeline['test_acc'][(s, m)]:.2f}"
        for m in MODALITIES for s in SIZES)
    print(f"PASS end-to-end in {pipeline['elapsed']:.1f}s: {singles}; "
          f"fused rgb test {pipeline['test_acc'][('ensemble', 'rgb')]:.2f}, "
          f"fused depth test {pipeline['test_acc'][('ensemble', 'depth')]:.2f}, "
          f"two-stage rgb-d test {report.accuracy:.2f} "
          f"(view split left {report.view_accuracy('left'):.2f} / "
          f"right {report.view_accuracy('right'):.2f}); fused scores within "
          f"{drift:.1e} of the pinned run")


def test_07_determinism(pipeline):
    rerun = run_pipeline(os.path.join(pipeline["root"], "run2"))
    first = pipeline["artifacts"]
    second = rerun["artifacts"]
    assert first.keys() == second.keys()
    mismatched = [rel for rel in first if first[rel] != second[rel]]
    assert not mismatched, f"artifacts differ: {mismatched}"
    print(f"PASS determinism: {len(first)} artifacts (checkpoints, "
          f"predictions, report) hash-identical across reruns")


# ---------------------------------------------------------------------------
# 8. format round trips


def test_08_format_round_trips(tmp_path):
    # TNSR
    tensor = Tensor(RNG.normal(size=(3, 5, 2)))
    buf = io.BytesIO()
    write_tensor(buf, tensor)
    blob = buf.getvalue()
    back = read_tensor(io.BytesIO(blob))
    buf2 = io.BytesIO()
    write_tensor(buf2, back)
    assert buf2.getvalue() == blob
    np.testing.assert_array_equal(back.data.astype(np.float32),
                                  tensor.data.astype(np.float32))

    # VSTC
    cfg = vst.make_toy_config("base", 6)
    params = vst.init_params(cfg, seed=2)
    buf = io.BytesIO()
    vst.save_checkpoint(buf, cfg, params)
    blob = buf.getvalue()
    cfg2, params2 = vst.load_checkpoint(io.BytesIO(blob))
    buf2 = io.BytesIO()
    vst.save_checkpoint(buf2, cfg2, params2)
    assert buf2.getvalue() == blob
    assert cfg2 == cfg

    # PRED
    pset = PredictionSet(
        sample_ids=("a", "b", "c"),
        scores=RNG.normal(size=(3, 4)),
        labels=np.array([0, 3, 1]))
    path = str(tmp_path / "p.pred")
    write_predictions(path, pset)
    first = open(path, "rb").read()
    again = str(tmp_path / "p2.pred")
    write_predictions(again, read_predictions(path))
    second = open(again, "rb").read()
    assert first == second

    print("PASS format round-trips: TNSR, VSTC and PRED are bit-stable at f32")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        np.savez_compressed(PIPELINE_FIXTURE, **pinned_outputs(run_pipeline(tmp)))
    print(f"wrote {PIPELINE_FIXTURE} ({os.path.getsize(PIPELINE_FIXTURE)} bytes)")
