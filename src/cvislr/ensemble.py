"""Two-stage weighted ensemble fusion of classifier predictions.

Stage one soft-votes across model sizes within one modality; stage two fuses
the RGB and depth votes.  All fusion happens in probability space: logits are
softmax-converted first, so the default weight ratios (0.4:0.4:0.2 across
large/base/small, 0.65:0.35 across RGB/depth) act scale-free regardless of
each model's logit magnitudes.  Weights are renormalized to sum to one, so
callers may pass ratios.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace
from typing import BinaryIO, Sequence

import numpy as np

from .errors import AlignmentError, ContractError, FormatError, NumericError, check_real, shown
from .tensor import (_check_end, _check_remaining, _finite_f32, _read_exact, _read_magic,
                     _read_text, _seekable, _stream, _write_text)

LOGITS = "logits"
PROBABILITIES = "probabilities"

#: Default size weights, paired as (large, base, small).
DEFAULT_SIZE_WEIGHTS = (0.4, 0.4, 0.2)
#: Default modality weights, paired as (rgb, depth).
DEFAULT_MODALITY_WEIGHTS = (0.65, 0.35)


@dataclass(frozen=True)
class PredictionSet:
    """Per-sample class scores from one model (or one fusion thereof).

    Scores must be 2-D with at least one sample and one class, sample ids
    strings that UTF-8 can encode and labels integers in [-1, 2**31), as the
    PRED format stores them, else construction raises ContractError.
    """

    sample_ids: tuple[str, ...]
    scores: np.ndarray  # (num_samples, num_classes)
    score_kind: str = LOGITS
    labels: np.ndarray | None = None  # (num_samples,) int, -1 = unknown
    provenance: str = ""

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or 0 in scores.shape:
            raise ContractError(f"scores must be 2-D with at least one sample and "
                                f"one class, got shape {scores.shape}")
        if isinstance(self.sample_ids, str):  # not one id per character
            raise ContractError(f"sample_ids must not be a string, got {shown(self.sample_ids)}")
        if len(self.sample_ids) != scores.shape[0]:
            raise ContractError(
                f"{len(self.sample_ids)} sample ids for {scores.shape[0]} score rows")
        try:  # a PRED file stores each id as UTF-8
            "".join(self.sample_ids).encode("utf-8")
        except (TypeError, UnicodeEncodeError) as e:
            raise ContractError(f"sample_ids must be strings UTF-8 can encode: {e}") from e
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ContractError("sample_ids contain duplicates")
        if self.score_kind not in (LOGITS, PROBABILITIES):
            raise ContractError(f"score_kind must be {LOGITS!r} or {PROBABILITIES!r}, "
                                f"got {shown(self.score_kind)}")
        if not np.isfinite(scores).all():
            raise NumericError("scores contain non-finite values")
        if self.score_kind == PROBABILITIES:
            # Fusion outputs computed in f64 sum to 1 within 1e-9; the looser
            # constructor bound also admits rows quantized to f32 on disk.
            sums = scores.sum(axis=1)
            if scores.min() < -1e-9 or np.abs(sums - 1.0).max() > 1e-6:
                raise ContractError("probability rows must be nonnegative and "
                                    "sum to 1 (within f32 tolerance)")
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "scores", scores)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (scores.shape[0],):
                raise ContractError(f"labels shape {labels.shape} does not match "
                                    f"{scores.shape[0]} samples")
            # the PRED format stores a label as an i32, -1 meaning unknown
            if labels.dtype.kind not in "iu" or labels.min() < -1 or labels.max() >= 2**31:
                raise ContractError("labels must be integers in [-1, 2**31), "
                                    "-1 meaning unknown")
            object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    @property
    def num_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def num_classes(self) -> int:
        return self.scores.shape[1]

    def as_probabilities(self) -> "PredictionSet":
        """Softmax-convert logits; a probability set passes through unchanged."""
        if self.score_kind == PROBABILITIES:
            return self
        z = self.scores - self.scores.max(axis=1, keepdims=True)
        e = np.exp(z)
        probs = e / e.sum(axis=1, keepdims=True)
        return replace(self, scores=probs, score_kind=PROBABILITIES)


def normalize_weights(weights: Sequence[float]) -> tuple[float, ...]:
    """Scale finite, nonnegative weights, real numbers but no bool, to sum to 1."""
    try:
        w = tuple(check_real("weight", x) for x in weights)
    except (TypeError, ContractError) as e:  # TypeError: not iterable
        raise ContractError(f"weights must be numbers, got {shown(weights)}: {e}") from e
    total = sum(w)
    if not (all(x >= 0 for x in w) and 0 < total < np.inf):
        raise ContractError(f"weights must be nonnegative with a positive, finite sum, got {w}")
    return tuple(x / total for x in w)


def _check_aligned(sets: Sequence[PredictionSet]) -> None:
    first = sets[0]
    for other in sets[1:]:
        if other.sample_ids != first.sample_ids:
            a = set(first.sample_ids) - set(other.sample_ids)
            b = set(other.sample_ids) - set(first.sample_ids)
            if a or b:
                raise AlignmentError(
                    f"prediction sets cover different samples (e.g. "
                    f"{sorted(a | b)[:3]})")
            raise AlignmentError("prediction sets order their samples differently")
        if other.num_classes != first.num_classes:
            raise AlignmentError(f"class counts disagree: {first.num_classes} "
                                 f"vs {other.num_classes}")
        if (first.labels is not None and other.labels is not None
                and not np.array_equal(first.labels, other.labels)):
            raise AlignmentError("prediction sets carry conflicting labels")


def _merged_labels(sets: Sequence[PredictionSet]) -> np.ndarray | None:
    for s in sets:
        if s.labels is not None:
            return s.labels
    return None


def single_modal_ensemble(sets: Sequence[PredictionSet],
                          weights: Sequence[float] = DEFAULT_SIZE_WEIGHTS,
                          ) -> PredictionSet:
    """Convex soft vote across same-modality models.

    Logit sets are softmax-converted first; the result is the weighted sum of
    probability rows with weights normalized to 1.
    """
    sets = list(sets)
    if not sets:
        raise ContractError("ensemble needs at least one prediction set")
    w = normalize_weights(weights)
    if len(w) != len(sets):
        raise ContractError(f"{len(w)} weights for {len(sets)} prediction sets")
    _check_aligned(sets)
    probs = [s.as_probabilities() for s in sets]
    fused = np.zeros_like(probs[0].scores)
    for wi, p in zip(w, probs):
        fused += wi * p.scores
    names = [p.provenance or "unnamed" for p in probs]
    # a member that is itself a fusion keeps its terms grouped
    provenance = " + ".join(f"{wi:g}*({n})" if " + " in n else f"{wi:g}*{n}"
                            for wi, n in zip(w, names))
    return PredictionSet(sample_ids=sets[0].sample_ids, scores=fused,
                         score_kind=PROBABILITIES, labels=_merged_labels(sets),
                         provenance=provenance)


def multimodal_ensemble(rgb: PredictionSet, depth: PredictionSet,
                        weights: Sequence[float] = DEFAULT_MODALITY_WEIGHTS,
                        ) -> PredictionSet:
    """Fuse RGB and depth predictions, λ_r·P_rgb + λ_d·P_depth, with the same vote."""
    return single_modal_ensemble([rgb, depth], weights)


def argmax_predict(pset: PredictionSet) -> np.ndarray:
    """Per-row index of the maximum score; ties go to the lowest class index."""
    # np.argmax already returns the first (lowest) index among ties
    return np.argmax(pset.scores, axis=1)


# ---------------------------------------------------------------------------
# PRED file: magic, u32 num_samples, u32 num_classes, u8 score_kind, then per
# sample: u32 id length, id bytes, i32 label (-1 if absent), f32 scores.

_PRED_MAGIC = b"PRED"
_KIND_CODES = {LOGITS: 0, PROBABILITIES: 1}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


def write_predictions(f: str | os.PathLike | BinaryIO, pset: PredictionSet) -> None:
    """Write a prediction set in the PRED binary format (f32 scores).

    A score beyond the float32 range raises NumericError before anything is
    written.
    """
    header = struct.pack("<IIB", pset.num_samples, pset.num_classes,
                         _KIND_CODES[pset.score_kind])
    labels = [-1] * pset.num_samples if pset.labels is None else pset.labels.tolist()
    scores32 = _finite_f32(pset.scores, "prediction scores")
    with _stream(f, "wb") as fh:
        fh.write(_PRED_MAGIC)
        fh.write(header)
        for i, sid in enumerate(pset.sample_ids):
            _write_text(fh, sid)
            fh.write(struct.pack("<i", labels[i]))
            fh.write(scores32[i].tobytes())


def read_predictions(f: str | os.PathLike | BinaryIO) -> PredictionSet:
    """Read a PRED file; scores come back widened to f64."""
    with _stream(f, "rb") as fh:
        fh = _seekable(fh)
        _read_magic(fh, _PRED_MAGIC, "predictions")
        n, k, kind_code = struct.unpack("<IIB", _read_exact(fh, 9, "predictions header"))
        if kind_code not in _KIND_NAMES:
            raise FormatError(f"unknown score kind code {kind_code}")
        # every record holds at least an id length, a label and k scores
        _check_remaining(fh, n * (8 + 4 * k), f"predictions header ({n}x{k})")
        ids: list[str] = []
        labels = np.empty(n, dtype=np.int64)
        scores = np.empty((n, k), dtype=np.float64)
        for i in range(n):
            ids.append(_read_text(fh, f"sample record {i} (id)"))
            (labels[i],) = struct.unpack("<i", _read_exact(fh, 4, f"sample record {i} (label)"))
            scores[i] = np.frombuffer(_read_exact(fh, 4 * k, f"sample record {i} (scores)"),
                                      dtype="<f4")
        _check_end(fh, "predictions file")
    has_labels = (labels >= 0).any()
    try:
        return PredictionSet(sample_ids=tuple(ids), scores=scores,
                             score_kind=_KIND_NAMES[kind_code],
                             labels=labels if has_labels else None)
    except (ContractError, NumericError) as e:
        raise FormatError(f"predictions file violates score invariants: {e}") from e
