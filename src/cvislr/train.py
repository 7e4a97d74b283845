"""Cross-entropy / AdamW training and top-1 evaluation over a manifest.

Training iterates seeded shuffles of the train split in mini-batches,
minimizing the mean cross-entropy of the batch (one closed-form tape node)
with decoupled weight decay (AdamW).  Only the parameters' gradients are
kept.  Everything is deterministic given (seed, data, config): shuffles come
from a counter-based generator and parameters update in a fixed order, so
repeated runs produce bit-identical checkpoints.

Evaluation joins predictions to manifest labels by sample id and reports
exact-count top-1 accuracy overall, per view, and per class, plus a full
confusion matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import vst
from .data import VIEWS, DatasetManifest, load_split
from .ensemble import LOGITS, PredictionSet, argmax_predict
from .errors import AlignmentError, ContractError, GeometryError, NumericError
from .tensor import Tensor, _result, backward


BETAS, EPS = (0.9, 0.999), 1e-8  # AdamW moment decay rates and denominator guard


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters (the loss and optimizer family are fixed)."""

    learning_rate: float = 3e-4
    weight_decay: float = 0.05
    batch_size: int = 8
    epochs: int = 40
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and math.isfinite(self.weight_decay)):
            raise ContractError(f"training settings must be finite, got {self}")
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")
        if self.weight_decay < 0:
            raise ContractError("weight_decay must be nonnegative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ContractError("batch_size and epochs must be positive")


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target], as one tape node.

    Takes (B, K) logits and a length-B target array.  The log-softmax is
    shifted by each row's max; NaN or +inf logits raise NumericError.  The
    backward pass is the closed form of log-softmax, pick, mean and negate,
    in that chain's arithmetic.
    """
    if logits.ndim != 2:
        raise ContractError(f"logits must be (B, K), got shape {logits.shape}")
    b, k = logits.shape
    targets = np.asarray(target, dtype=np.int64)
    if targets.shape != (b,):
        raise ContractError(f"targets shape {targets.shape} does not match batch {b}")
    if targets.size and (targets.min() < 0 or targets.max() >= k):
        raise ContractError(f"target outside [0, {k})")
    arr = logits.data
    if np.isnan(arr).any() or np.isposinf(arr).any():
        raise NumericError("cross_entropy logits contain NaN or +inf")
    shifted = arr - np.max(arr, axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    rows = np.arange(b)

    def bwd(g):
        d = np.zeros((b, k))
        d[rows, targets] = -g / b
        return (d - np.exp(logp) * d.sum(axis=-1, keepdims=True),)

    return _result(-logp[rows, targets].mean(), "cross_entropy", (logits,), bwd)


# ---------------------------------------------------------------------------
# AdamW


@dataclass
class AdamState:
    """First/second moments per parameter plus the applied-step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def zeros(cls, params: dict[str, Tensor]) -> "AdamState":
        return cls(m={k: np.zeros(p.shape) for k, p in params.items()},
                   v={k: np.zeros(p.shape) for k, p in params.items()})


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Euclidean norm of all gradients taken together."""
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: AdamState, cfg: TrainConfig) -> AdamState:
    """One decoupled-weight-decay Adam update, in place on the parameters.

    theta <- theta - lr*wd*theta - lr*m_hat/(sqrt(v_hat) + eps), with
    bias-corrected moments.  Parameters absent from ``grads`` are treated as
    having zero gradient (they still decay).
    """
    lr = cfg.learning_rate
    b1, b2 = BETAS
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape)
        elif g.shape != p.shape:
            raise ContractError(f"gradient shape {g.shape} does not match "
                                f"parameter {name!r} shape {p.shape}")
        m = state.m[name]
        v = state.v[name]
        if m.shape != p.shape or v.shape != p.shape:
            raise ContractError(f"optimizer state shape mismatch for {name!r}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data *= 1.0 - lr * cfg.weight_decay
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return state


# ---------------------------------------------------------------------------
# training loop


def train(model_cfg: vst.VstConfig, params: dict[str, Tensor],
          manifest: DatasetManifest, train_cfg: TrainConfig,
          modality: str = "rgb",
          log: Callable[[str], None] | None = None) -> list[float]:
    """Optimize ``params`` in place; returns the per-epoch mean loss curve.

    Raises NumericError, naming the epoch and step, when a step's loss or
    gradient norm is not finite, before that step's update is applied.
    """
    if manifest.geometry != model_cfg.input_geometry:
        raise GeometryError(f"manifest geometry {manifest.geometry} does not "
                            f"match model geometry {model_cfg.input_geometry}")
    if manifest.num_classes != model_cfg.num_classes:
        raise ContractError(f"manifest has {manifest.num_classes} classes, "
                            f"model expects {model_cfg.num_classes}")
    clips, labels, _ = load_split(manifest, "train", modality)
    n = clips.shape[0]
    state = AdamState.zeros(params)
    shuffle_rng = np.random.Generator(np.random.Philox(train_cfg.seed))
    curve: list[float] = []
    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        for step, start in enumerate(range(0, n, train_cfg.batch_size), start=1):
            idx = order[start:start + train_cfg.batch_size]
            batch = Tensor(clips[idx])
            logits = vst.forward_batch(batch, model_cfg, params)
            loss = cross_entropy(logits, labels[idx])
            grad_map = backward(loss)
            grads = {name: grad_map[p] for name, p in params.items()
                     if p in grad_map}
            value, norm = loss.item(), global_grad_norm(grads)
            if not (math.isfinite(value) and math.isfinite(norm)):
                raise NumericError(f"epoch {epoch + 1} step {step}: loss {value}, "
                                   f"gradient norm {norm}; both must be finite")
            adamw_step(params, grads, state, train_cfg)
            # release this step's graph before the next forward pass
            del logits, loss, grad_map, grads
            epoch_loss += value * len(idx)
        curve.append(epoch_loss / n)
        if log is not None:
            log(f"epoch {epoch + 1}/{train_cfg.epochs}  mean_loss {curve[-1]:.6f}")
    return curve


def save_loss_curve(path: str, curve: Sequence[float]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for epoch, loss in enumerate(curve, start=1):
            f.write(f"{epoch}\t{loss!r}\n")


def load_loss_curve(path: str) -> list[float]:
    curve = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                _, _, value = line.partition("\t")
                curve.append(float(value))
    return curve


# ---------------------------------------------------------------------------
# prediction


def predict(model_cfg: vst.VstConfig, params: dict[str, Tensor],
            manifest: DatasetManifest, split: str, modality: str = "rgb",
            batch_size: int = 8) -> PredictionSet:
    """Score one split: logits in manifest order, labels attached."""
    if manifest.geometry != model_cfg.input_geometry:
        raise GeometryError(f"manifest geometry {manifest.geometry} does not "
                            f"match model geometry {model_cfg.input_geometry}")
    clips, labels, ids = load_split(manifest, split, modality)
    frozen = {k: Tensor(p.data) for k, p in params.items()}  # no tape
    n = clips.shape[0]
    chunks = []
    for start in range(0, n, batch_size):
        batch = Tensor(clips[start:start + batch_size])
        chunks.append(vst.forward_batch(batch, model_cfg, frozen).data)
    scores = np.concatenate(chunks, axis=0)
    return PredictionSet(sample_ids=tuple(ids), scores=scores, score_kind=LOGITS,
                         labels=labels,
                         provenance=f"{model_cfg.size}-{modality}")


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class EvalReport:
    """Exact-count top-1 accuracy breakdown."""

    correct: int
    total: int
    per_view: dict[str, tuple[int, int]]   # view -> (correct, total)
    per_class: dict[int, tuple[int, int]]  # gloss -> (correct, total)
    confusion: np.ndarray                  # (K, K) true x predicted counts

    @property
    def accuracy(self) -> float:
        return self.correct / self.total

    def view_accuracy(self, view: str) -> float:
        c, t = self.per_view[view]
        return c / t


def evaluate(pset: PredictionSet, manifest: DatasetManifest,
             split: str) -> EvalReport:
    """Top-1 accuracy of a prediction set against one manifest split."""
    records = {r.sample_id: r for r in manifest.split(split)}
    if len(records) != pset.num_samples:
        raise AlignmentError(f"predictions cover {pset.num_samples} samples, "
                             f"split {split!r} has {len(records)}")
    missing = [sid for sid in pset.sample_ids if sid not in records]
    if missing:
        raise AlignmentError(f"predictions include samples not in split "
                             f"{split!r}, e.g. {missing[:3]}")
    k = manifest.num_classes
    if pset.num_classes != k:
        raise AlignmentError(f"predictions have {pset.num_classes} classes, "
                             f"manifest has {k}")
    predicted = argmax_predict(pset)
    confusion = np.zeros((k, k), dtype=np.int64)
    view_counts = {v: [0, 0] for v in VIEWS}
    class_counts = {c: [0, 0] for c in range(k)}
    correct = 0
    for i, sid in enumerate(pset.sample_ids):
        rec = records[sid]
        truth, guess = rec.gloss_id, int(predicted[i])
        confusion[truth, guess] += 1
        hit = int(truth == guess)
        correct += hit
        view_counts[rec.view][0] += hit
        view_counts[rec.view][1] += 1
        class_counts[truth][0] += hit
        class_counts[truth][1] += 1
    return EvalReport(
        correct=correct, total=pset.num_samples,
        per_view={v: (c, t) for v, (c, t) in view_counts.items() if t},
        per_class={c: (hits, t) for c, (hits, t) in class_counts.items()},
        confusion=confusion)


def format_report(report: EvalReport) -> str:
    """Stable text rendering: key: value lines plus per-view/class tables."""
    lines = [
        f"overall_acc: {report.accuracy:.6f}",
        f"correct: {report.correct}",
        f"total: {report.total}",
        "",
        "view\tcorrect\ttotal\tacc",
    ]
    for view in VIEWS:
        if view in report.per_view:
            c, t = report.per_view[view]
            lines.append(f"{view}\t{c}\t{t}\t{c / t:.6f}")
    lines.append("")
    lines.append("class\tcorrect\ttotal\tacc")
    for cls in sorted(report.per_class):
        c, t = report.per_class[cls]
        acc = f"{c / t:.6f}" if t else "n/a"
        lines.append(f"{cls}\t{c}\t{t}\t{acc}")
    lines.append("")
    lines.append("confusion (rows true, cols predicted):")
    for row in report.confusion:
        lines.append("\t".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def save_report(path: str, report: EvalReport) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(format_report(report))
