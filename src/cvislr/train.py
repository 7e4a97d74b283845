"""Cross-entropy / AdamW training and top-1 evaluation over a manifest.

Training reads each mini-batch of seeded shuffles of the train split from
disk in its stored float32 and minimizes the batch's mean cross-entropy (one
closed-form tape node) with decoupled weight decay (AdamW), in the
parameters' dtype.  Only the parameters' gradients are kept.  Everything is
deterministic given (seed, data, config): shuffles come from a counter-based
generator and parameters update in a fixed order, so repeated runs produce
bit-identical checkpoints.

Prediction reads and scores one batch of clips at a time, so its memory
grows with the batch size, not with the split.

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
from .data import VIEWS, DatasetManifest, load_clips
from .ensemble import LOGITS, PredictionSet, argmax_predict
from .errors import (AlignmentError, ContractError, GeometryError, NumericError,
                     check_positive_int, check_real, check_seed, shown)
from .tensor import Tensor, _result, _stream, backward


BETAS, EPS = (0.9, 0.999), 1e-8  # AdamW moment decay rates and denominator guard


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters (fixed loss and optimizer family), stored as checked."""

    learning_rate: float = 1e-3
    weight_decay: float = 0.05
    batch_size: int = 8
    epochs: int = 25
    seed: int = 0

    def __post_init__(self):
        for name, rule in (("learning_rate", check_real), ("weight_decay", check_real),
                           ("batch_size", check_positive_int), ("epochs", check_positive_int)):
            object.__setattr__(self, name, rule(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.learning_rate <= 0:
            raise ContractError(f"learning_rate must be positive, got {self.learning_rate!r}")
        if self.weight_decay < 0:
            raise ContractError(f"weight_decay must be nonnegative, got {self.weight_decay!r}")


# ---------------------------------------------------------------------------
# loss


def cross_entropy(logits: Tensor, target) -> Tensor:
    """Mean over the batch of -log softmax(logits)[target], as one tape node.

    Takes (B, K) logits and a length-B array of integer targets.  The
    log-softmax is shifted by each row's max; NaN or +inf logits raise
    NumericError.  The backward pass is the closed form of log-softmax, pick,
    mean and negate, in that chain's arithmetic.
    """
    if logits.ndim != 2:
        raise ContractError(f"logits must be (B, K), got shape {logits.shape}")
    b, k = logits.shape
    targets = np.asarray(target)
    if targets.dtype.kind not in "iu":
        raise ContractError(f"targets must be integers, got dtype {targets.dtype}")
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
        d = np.zeros((b, k), dtype=arr.dtype)
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
        return cls(m={k: np.zeros_like(p.data) for k, p in params.items()},
                   v={k: np.zeros_like(p.data) for k, p in params.items()})


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    """Euclidean norm of all gradients taken together."""
    return math.sqrt(sum(float(np.vdot(g, g)) for g in grads.values()))


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: AdamState, cfg: TrainConfig) -> AdamState:
    """One decoupled-weight-decay Adam update, in place on the parameters.

    theta <- theta - lr*wd*theta - lr*m_hat/(sqrt(v_hat) + eps), with
    bias-corrected moments.  Every parameter needs a gradient and both
    moments, each a float array of its shape; else ContractError, raised
    before any parameter, moment or the step count changes.
    """
    for name, p in params.items():
        for kind, held in (("gradient", grads), ("state.m", state.m), ("state.v", state.v)):
            x = held.get(name)
            if not (isinstance(x, np.ndarray) and x.dtype.kind == "f" and x.shape == p.shape):
                got = f"{x.dtype} of shape {x.shape}" if isinstance(x, np.ndarray) else shown(x)
                raise ContractError(f"parameter {name!r} needs a float {kind} array of its "
                                    f"shape {p.shape}, got {got}")
    lr = cfg.learning_rate
    b1, b2 = BETAS
    state.step += 1
    t = state.step
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p.data *= 1.0 - lr * cfg.weight_decay
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + EPS)
    return state


# ---------------------------------------------------------------------------
# training loop


def _check_fits(model_cfg: vst.VstConfig, manifest: DatasetManifest) -> None:
    """Raise unless the model takes the manifest's clips and scores its classes."""
    if manifest.geometry != model_cfg.input_geometry:
        raise GeometryError(f"manifest geometry {manifest.geometry} does not "
                            f"match model geometry {model_cfg.input_geometry}")
    if manifest.num_classes != model_cfg.num_classes:
        raise ContractError(f"manifest has {manifest.num_classes} classes, "
                            f"model expects {model_cfg.num_classes}")


def train(model_cfg: vst.VstConfig, params: dict[str, Tensor],
          manifest: DatasetManifest, train_cfg: TrainConfig,
          modality: str = "rgb",
          log: Callable[[str], None] | None = None) -> list[float]:
    """Optimize ``params`` in place; returns the per-epoch mean loss curve.

    Each step reads its batch with ``load_clips``: memory grows with the batch, not the
    split.  Raises ContractError before any clip is read when the train split misses a
    class or a parameter is not a leaf that requires a gradient; NumericError naming the
    epoch and step, before the update, when a step's loss or gradient norm is not finite;
    FormatError naming a clip it cannot read.  Either leaves the earlier steps' updates.
    """
    _check_fits(model_cfg, manifest)
    frozen = [name for name, p in params.items() if not p.requires_grad or p.node is not None]
    if frozen:  # every parameter feeds the loss, so each leaf that requires one gets a gradient
        raise ContractError(f"train updates every parameter, but {frozen[0]!r} is not "
                            f"a leaf that requires a gradient")
    # the head is sized by num_classes, so a class no clip trains is rejected
    records = manifest.split("train")
    covered = len({r.gloss_id for r in records})
    if covered != manifest.num_classes:
        raise ContractError(f"num_classes={manifest.num_classes}, but the train split "
                            f"covers {covered} classes; every class needs a train clip")
    state = AdamState.zeros(params)
    shuffle_rng = np.random.Generator(np.random.Philox(train_cfg.seed))
    curve: list[float] = []
    for epoch in range(train_cfg.epochs):
        order = shuffle_rng.permutation(len(records))
        epoch_loss = 0.0
        for step, start in enumerate(range(0, len(records), train_cfg.batch_size), start=1):
            batch = [records[i] for i in order[start:start + train_cfg.batch_size]]
            clips, labels, _ = load_clips(manifest, batch, modality)
            logits = vst.forward_batch(Tensor(clips), model_cfg, params)
            loss = cross_entropy(logits, labels)
            grad_map = backward(loss)
            grads = {name: grad_map[p] for name, p in params.items()}
            value, norm = loss.item(), global_grad_norm(grads)
            if not (math.isfinite(value) and math.isfinite(norm)):
                raise NumericError(f"epoch {epoch + 1} step {step}: loss {value}, "
                                   f"gradient norm {norm}; both must be finite")
            adamw_step(params, grads, state, train_cfg)
            # release this step's graph and batch before the next forward pass
            del clips, logits, loss, grad_map, grads
            epoch_loss += value * len(labels)
        curve.append(epoch_loss / len(records))
        if log is not None:
            log(f"epoch {epoch + 1}/{train_cfg.epochs}  mean_loss {curve[-1]:.6f}")
    return curve


def save_loss_curve(path: str, curve: Sequence[float]) -> None:
    """Write ``epoch<TAB>repr(float(loss))`` lines; a non-finite entry raises ContractError."""
    with _stream(path, "wb") as f:
        for epoch, loss in enumerate(curve, start=1):
            f.write(f"{epoch}\t{check_real('loss curve entry', loss)!r}\n".encode("utf-8"))


# ---------------------------------------------------------------------------
# prediction


def predict(model_cfg: vst.VstConfig, params: dict[str, Tensor],
            manifest: DatasetManifest, split: str, modality: str = "rgb",
            batch_size: int = 8) -> PredictionSet:
    """Score one split: logits in manifest order, labels attached.

    Clips are read and scored one batch at a time, so memory grows with
    ``batch_size``, not with the split.
    """
    check_positive_int("batch_size", batch_size)
    _check_fits(model_cfg, manifest)
    records = manifest.split(split)
    if not records:
        raise ContractError(f"split {split!r} is empty")
    frozen = {k: Tensor(p.data) for k, p in params.items()}  # no tape
    chunks, labels, ids = [], [], []
    for start in range(0, len(records), batch_size):
        clips, batch_labels, batch_ids = load_clips(
            manifest, records[start:start + batch_size], modality)
        chunks.append(vst.forward_batch(Tensor(clips), model_cfg, frozen).data)
        labels.append(batch_labels)
        ids += batch_ids
    return PredictionSet(sample_ids=tuple(ids), scores=np.concatenate(chunks, axis=0),
                         score_kind=LOGITS, labels=np.concatenate(labels),
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
    # the manifest holds every gloss id below k, so truth * k + predicted < k * k
    truth = np.array([records[sid].gloss_id for sid in pset.sample_ids], dtype=np.int64)
    views = np.array([VIEWS.index(records[sid].view) for sid in pset.sample_ids])
    hit = truth == predicted
    confusion = np.bincount(truth * k + predicted, minlength=k * k).reshape(k, k)
    view_counts = zip(VIEWS, np.bincount(views[hit], minlength=len(VIEWS)),
                      np.bincount(views, minlength=len(VIEWS)))
    return EvalReport(
        correct=int(hit.sum()), total=pset.num_samples,
        per_view={v: (int(c), int(t)) for v, c, t in view_counts if t},
        per_class={c: (int(confusion[c, c]), int(t))
                   for c, t in enumerate(confusion.sum(axis=1))},
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
    with _stream(path, "wb") as f:
        f.write(format_report(report).encode("utf-8"))
