"""Ensemble fusion: prediction sets, convex voting, PRED serialization."""

import io

import numpy as np
import pytest

from cvislr.ensemble import (
    DEFAULT_MODALITY_WEIGHTS,
    DEFAULT_SIZE_WEIGHTS,
    LOGITS,
    PROBABILITIES,
    PredictionSet,
    argmax_predict,
    multimodal_ensemble,
    normalize_weights,
    read_predictions,
    single_modal_ensemble,
    write_predictions,
)
from cvislr.errors import AlignmentError, ContractError, FormatError, NumericError

RNG = np.random.default_rng(42)


def softmax_rows(x):
    z = x - x.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def logit_set(n=4, k=5, seed=0, provenance="", labels=None):
    rng = np.random.default_rng(seed)
    return PredictionSet(
        sample_ids=tuple(f"s{i:02d}" for i in range(n)),
        scores=rng.normal(size=(n, k)) * 3.0,
        score_kind=LOGITS,
        labels=labels,
        provenance=provenance,
    )


class TestPredictionSet:
    def test_basic_construction(self):
        p = logit_set(3, 4)
        assert p.num_samples == 3
        assert p.num_classes == 4
        assert p.scores.dtype == np.float64

    def test_rejects_bad_rank(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a",), scores=np.zeros(3))

    @pytest.mark.parametrize("kind", [LOGITS, PROBABILITIES])
    @pytest.mark.parametrize("n, k", [(0, 3), (2, 0), (0, 0)])
    def test_rejects_an_empty_set(self, n, k, kind):
        # the PRED reader refuses such a file, so no writer may produce one
        with pytest.raises(ContractError, match="at least one sample and one class"):
            PredictionSet(sample_ids=tuple(f"s{i}" for i in range(n)),
                          scores=np.zeros((n, k)), score_kind=kind)

    def test_rejects_id_count_mismatch(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a", "b"), scores=np.zeros((3, 2)))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a", "a"), scores=np.zeros((2, 2)))

    def test_rejects_a_string_of_ids(self):
        # "ab" would otherwise be taken as the two ids "a" and "b"
        with pytest.raises(ContractError, match="string"):
            PredictionSet(sample_ids="ab", scores=np.zeros((2, 2)))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a",), scores=np.ones((1, 2)),
                          score_kind="odds")

    def test_rejects_non_finite(self):
        with pytest.raises(NumericError):
            PredictionSet(sample_ids=("a",), scores=np.array([[1.0, np.nan]]))

    def test_rejects_unnormalized_probabilities(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a",), scores=np.array([[0.7, 0.7]]),
                          score_kind=PROBABILITIES)
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a",), scores=np.array([[1.5, -0.5]]),
                          score_kind=PROBABILITIES)

    def test_accepts_f32_quantized_probabilities(self):
        rows = softmax_rows(RNG.normal(size=(6, 9))).astype(np.float32)
        p = PredictionSet(sample_ids=tuple(f"s{i}" for i in range(6)),
                          scores=rows.astype(np.float64),
                          score_kind=PROBABILITIES)
        assert p.num_classes == 9

    def test_labels_validated(self):
        with pytest.raises(ContractError):
            PredictionSet(sample_ids=("a", "b"), scores=np.zeros((2, 2)),
                          labels=np.array([1, 2, 3]))

    def test_as_probabilities_matches_softmax(self):
        p = logit_set(5, 7, seed=3)
        q = p.as_probabilities()
        assert q.score_kind == PROBABILITIES
        np.testing.assert_allclose(q.scores, softmax_rows(p.scores), atol=1e-15)
        np.testing.assert_allclose(q.scores.sum(axis=1), 1.0, atol=1e-12)
        assert q.sample_ids == p.sample_ids

    def test_as_probabilities_is_identity_on_probabilities(self):
        q = logit_set(2, 3).as_probabilities()
        assert q.as_probabilities() is q


class TestWeights:
    def test_normalize_ratios(self):
        assert normalize_weights((2, 2, 1)) == (0.4, 0.4, 0.2)
        w = normalize_weights((0.65, 0.35))
        assert abs(sum(w) - 1.0) < 1e-12

    def test_defaults_already_normalized(self):
        assert abs(sum(DEFAULT_SIZE_WEIGHTS) - 1.0) < 1e-12
        assert abs(sum(DEFAULT_MODALITY_WEIGHTS) - 1.0) < 1e-12
        assert DEFAULT_SIZE_WEIGHTS == (0.4, 0.4, 0.2)
        assert DEFAULT_MODALITY_WEIGHTS == (0.65, 0.35)

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            normalize_weights((1.0, -0.1))

    def test_rejects_all_zero(self):
        with pytest.raises(ContractError):
            normalize_weights((0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ContractError, match=f"finite.*{bad}"):
            normalize_weights((bad, 1.0, 1.0))

    def test_rejects_overflowing_sum(self):
        with pytest.raises(ContractError, match="finite sum"):
            normalize_weights((1e308, 1e308))

    @pytest.mark.parametrize("bad", [["a"], [1.0, None], [1.0, "1/2"], ["1", "2"],
                                     [True, False], 2.0],
                             ids=["word", "none", "fraction", "digits", "bools", "scalar"])
    def test_rejects_non_numbers(self, bad):
        with pytest.raises(ContractError, match="numbers"):
            normalize_weights(bad)


class TestSingleModal:
    def test_two_set_convex_sum(self):
        a = logit_set(4, 5, seed=1, provenance="a")
        b = logit_set(4, 5, seed=2, provenance="b")
        fused = single_modal_ensemble([a, b], (0.75, 0.25))
        want = 0.75 * softmax_rows(a.scores) + 0.25 * softmax_rows(b.scores)
        np.testing.assert_allclose(fused.scores, want, atol=1e-12)
        assert fused.score_kind == PROBABILITIES
        assert "0.75*a" in fused.provenance and "0.25*b" in fused.provenance

    def test_ratio_weights_equal_normalized(self):
        a, b, c = (logit_set(3, 4, seed=s) for s in (1, 2, 3))
        f1 = single_modal_ensemble([a, b, c], (0.4, 0.4, 0.2))
        f2 = single_modal_ensemble([a, b, c], (2, 2, 1))
        np.testing.assert_allclose(f1.scores, f2.scores, atol=1e-15)

    def test_equal_weights_are_the_mean(self):
        a = logit_set(3, 4, seed=4)
        b = logit_set(3, 4, seed=5)
        fused = single_modal_ensemble([a, b], (1, 1))
        want = (softmax_rows(a.scores) + softmax_rows(b.scores)) / 2
        np.testing.assert_allclose(fused.scores, want, atol=1e-15)

    def test_probability_space_not_logit_space(self):
        # shifting one model's logits by a per-row constant leaves its vote
        # unchanged, which is only true when fusion happens after softmax
        a = logit_set(4, 5, seed=6)
        shifted = PredictionSet(sample_ids=a.sample_ids,
                                scores=a.scores + 7.5, score_kind=LOGITS)
        f1 = single_modal_ensemble([a, a], (1, 1))
        f2 = single_modal_ensemble([a, shifted], (1, 1))
        np.testing.assert_allclose(f1.scores, f2.scores, atol=1e-12)
        # logit-space averaging would also be invariant here, so scale one
        # model instead: softmax changes, the fused vote must change too
        scaled = PredictionSet(sample_ids=a.sample_ids,
                               scores=a.scores * 3.0, score_kind=LOGITS)
        f3 = single_modal_ensemble([a, scaled], (1, 1))
        assert np.abs(f3.scores - f1.scores).max() > 1e-3

    def test_single_set_is_its_softmax(self):
        a = logit_set(3, 6, seed=7)
        fused = single_modal_ensemble([a], (1.0,))
        np.testing.assert_allclose(fused.scores, softmax_rows(a.scores),
                                   atol=1e-15)

    def test_fused_rows_are_distributions(self):
        sets = [logit_set(5, 8, seed=s) for s in range(3)]
        fused = single_modal_ensemble(sets, DEFAULT_SIZE_WEIGHTS)
        assert (fused.scores >= 0).all()
        np.testing.assert_allclose(fused.scores.sum(axis=1), 1.0, atol=1e-12)

    def test_weight_count_mismatch(self):
        with pytest.raises(ContractError):
            single_modal_ensemble([logit_set(), logit_set(seed=1)], (1, 1, 1))

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            single_modal_ensemble([], ())

    def test_misaligned_samples(self):
        a = logit_set(3, 4, seed=1)
        b = PredictionSet(sample_ids=("x0", "x1", "x2"),
                          scores=RNG.normal(size=(3, 4)))
        with pytest.raises(AlignmentError):
            single_modal_ensemble([a, b], (1, 1))

    def test_reordered_samples(self):
        a = logit_set(3, 4, seed=1)
        b = PredictionSet(sample_ids=a.sample_ids[::-1],
                          scores=a.scores[::-1].copy())
        with pytest.raises(AlignmentError, match="order"):
            single_modal_ensemble([a, b], (1, 1))

    def test_class_count_mismatch(self):
        a = logit_set(3, 4, seed=1)
        b = logit_set(3, 5, seed=2)
        with pytest.raises(AlignmentError):
            single_modal_ensemble([a, b], (1, 1))

    def test_conflicting_labels(self):
        a = logit_set(3, 4, seed=1, labels=np.array([0, 1, 2]))
        b = logit_set(3, 4, seed=2, labels=np.array([0, 1, 3]))
        with pytest.raises(AlignmentError, match="labels"):
            single_modal_ensemble([a, b], (1, 1))

    def test_labels_carried_through(self):
        labels = np.array([2, 0, 1])
        a = logit_set(3, 4, seed=1)
        b = logit_set(3, 4, seed=2, labels=labels)
        fused = single_modal_ensemble([a, b], (1, 1))
        np.testing.assert_array_equal(fused.labels, labels)


class TestMultimodal:
    def test_default_weights(self):
        rgb = logit_set(4, 6, seed=8, provenance="rgb-fused")
        depth = logit_set(4, 6, seed=9, provenance="depth-fused")
        fused = multimodal_ensemble(rgb, depth)
        want = (0.65 * softmax_rows(rgb.scores)
                + 0.35 * softmax_rows(depth.scores))
        np.testing.assert_allclose(fused.scores, want, atol=1e-12)
        assert "0.65*rgb" in fused.provenance
        assert "0.35*depth" in fused.provenance

    def test_degenerate_weight_recovers_single_modality(self):
        rgb = logit_set(3, 4, seed=10)
        depth = logit_set(3, 4, seed=11)
        fused = multimodal_ensemble(rgb, depth, (1.0, 0.0))
        np.testing.assert_allclose(fused.scores, softmax_rows(rgb.scores),
                                   atol=1e-15)

    def test_weight_arity(self):
        rgb = logit_set(2, 3, seed=1)
        depth = logit_set(2, 3, seed=2)
        with pytest.raises(ContractError):
            multimodal_ensemble(rgb, depth, (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("weights", [(0.65, 0.35), (1.0, 0.0), (0.0, 1.0), (3.0, 7.0)])
    def test_is_the_size_vote_over_two_sets(self, weights):
        rgb = logit_set(5, 4, seed=12)
        depth = logit_set(5, 4, seed=13)
        fused = multimodal_ensemble(rgb, depth, weights)
        same = single_modal_ensemble([rgb, depth], weights)
        assert fused.scores.tobytes() == same.scores.tobytes()

    def test_nested_provenance_stays_grouped(self):
        rgb = single_modal_ensemble([logit_set(seed=1, provenance="a"),
                                     logit_set(seed=2, provenance="b")], (1, 1))
        fused = multimodal_ensemble(rgb, logit_set(seed=3, provenance="d"))
        assert fused.provenance == "0.65*(0.5*a + 0.5*b) + 0.35*d"

    def test_two_stage_equals_flat_composition(self):
        # fusing sizes within modalities and then modalities is one big
        # convex sum with product weights
        rgb_sets = [logit_set(4, 5, seed=s, provenance=f"r{s}") for s in (1, 2, 3)]
        depth_sets = [logit_set(4, 5, seed=s, provenance=f"d{s}") for s in (4, 5, 6)]
        size_w = (0.4, 0.4, 0.2)
        mod_w = (0.65, 0.35)
        staged = multimodal_ensemble(
            single_modal_ensemble(rgb_sets, size_w),
            single_modal_ensemble(depth_sets, size_w),
            mod_w)
        flat_w = tuple(mod_w[0] * w for w in size_w) + \
            tuple(mod_w[1] * w for w in size_w)
        flat = single_modal_ensemble(rgb_sets + depth_sets, flat_w)
        np.testing.assert_allclose(staged.scores, flat.scores, atol=1e-12)


class TestArgmax:
    def test_plain_argmax(self):
        p = PredictionSet(sample_ids=("a", "b"),
                          scores=np.array([[0.1, 0.7, 0.2], [0.5, 0.3, 0.2]]),
                          score_kind=PROBABILITIES)
        np.testing.assert_array_equal(argmax_predict(p), [1, 0])

    def test_ties_take_lowest_index(self):
        p = PredictionSet(sample_ids=("a", "b", "c"),
                          scores=np.array([[0.4, 0.4, 0.2],
                                           [0.2, 0.4, 0.4],
                                           [1 / 3, 1 / 3, 1 / 3]]),
                          score_kind=PROBABILITIES)
        np.testing.assert_array_equal(argmax_predict(p), [0, 1, 0])

    def test_argmax_invariant_under_softmax(self):
        p = logit_set(20, 9, seed=12)
        np.testing.assert_array_equal(argmax_predict(p),
                                      argmax_predict(p.as_probabilities()))


class TestPredFormat:
    def test_round_trip_bit_exact_at_f32(self):
        p = logit_set(5, 7, seed=13, labels=np.array([0, 1, 2, 3, 4]))
        buf = io.BytesIO()
        write_predictions(buf, p)
        blob = buf.getvalue()
        q = read_predictions(io.BytesIO(blob))
        assert q.sample_ids == p.sample_ids
        assert q.score_kind == p.score_kind
        np.testing.assert_array_equal(q.labels, p.labels)
        np.testing.assert_array_equal(q.scores.astype(np.float32),
                                      p.scores.astype(np.float32))
        buf2 = io.BytesIO()
        write_predictions(buf2, q)
        assert buf2.getvalue() == blob

    def test_probability_file_round_trip(self):
        p = logit_set(6, 4, seed=14).as_probabilities()
        buf = io.BytesIO()
        write_predictions(buf, p)
        buf.seek(0)
        q = read_predictions(buf)
        assert q.score_kind == PROBABILITIES
        buf2 = io.BytesIO()
        write_predictions(buf2, q)
        buf3 = io.BytesIO()
        write_predictions(buf3, read_predictions(io.BytesIO(buf2.getvalue())))
        assert buf2.getvalue() == buf3.getvalue()

    def test_missing_labels_read_as_none(self):
        p = logit_set(3, 4, seed=15)
        assert p.labels is None
        buf = io.BytesIO()
        write_predictions(buf, p)
        buf.seek(0)
        assert read_predictions(buf).labels is None

    def test_file_path_round_trip(self, tmp_path):
        p = logit_set(4, 3, seed=16, labels=np.array([1, 0, 2, 1]))
        for path in (str(tmp_path / "preds.pred"), tmp_path / "other.pred"):
            write_predictions(path, p)
            q = read_predictions(path)
            assert q.sample_ids == p.sample_ids

    def test_trailing_bytes_rejected(self, tmp_path):
        buf = io.BytesIO()
        write_predictions(buf, logit_set(2, 3, seed=17))
        blob = buf.getvalue() + b"trailing junk"
        with pytest.raises(FormatError, match="after its declared payload"):
            read_predictions(io.BytesIO(blob))
        path = tmp_path / "junk.pred"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="after its declared payload"):
            read_predictions(str(path))

    def test_bad_magic(self):
        with pytest.raises(FormatError, match="magic"):
            read_predictions(io.BytesIO(b"NOPE" + b"\0" * 16))

    def test_truncated_header(self):
        with pytest.raises(FormatError):
            read_predictions(io.BytesIO(b"PRED\x01\x00"))

    def test_truncated_record(self):
        p = logit_set(3, 4, seed=17)
        buf = io.BytesIO()
        write_predictions(buf, p)
        blob = buf.getvalue()[:-6]
        with pytest.raises(FormatError, match="truncated"):
            read_predictions(io.BytesIO(blob))

    def test_zero_samples_rejected(self):
        import struct

        blob = b"PRED" + struct.pack("<IIB", 0, 4, 0)
        with pytest.raises(FormatError):
            read_predictions(io.BytesIO(blob))

    def test_oversized_header_rejected_before_allocating(self, tmp_path):
        import struct

        # 21 bytes whose header declares (2**32 - 1) x (2**32 - 1) scores
        blob = b"PRED" + struct.pack("<IIB", 2**32 - 1, 2**32 - 1, 0) + b"\0" * 8
        with pytest.raises(FormatError, match="declares"):
            read_predictions(io.BytesIO(blob))
        path = tmp_path / "huge.pred"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="declares"):
            read_predictions(str(path))

    def test_oversized_id_length_rejected_before_allocating(self, tmp_path):
        import struct
        import tracemalloc

        # 30 bytes: one 1-class record whose id length is 2**32 - 1
        blob = (b"PRED" + struct.pack("<IIB", 1, 1, 0) + struct.pack("<I", 2**32 - 1)
                + b"\0" * 13)
        assert len(blob) == 30
        path = tmp_path / "huge_id.pred"
        path.write_bytes(blob)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="declares"):
                read_predictions(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_non_utf8_sample_id_rejected(self):
        p = logit_set(3, 4, seed=18)
        buf = io.BytesIO()
        write_predictions(buf, p)
        blob = buf.getvalue()
        sid = p.sample_ids[1].encode("utf-8")
        assert blob.count(sid) == 1
        blob = blob.replace(sid, b"\xff" + sid[1:])
        with pytest.raises(FormatError, match=r"sample record 1 \(id\) is not valid UTF-8"):
            read_predictions(io.BytesIO(blob))

    def test_unknown_kind_code(self):
        import struct

        blob = b"PRED" + struct.pack("<IIB", 1, 2, 9)
        with pytest.raises(FormatError):
            read_predictions(io.BytesIO(blob))

    def test_unicode_sample_ids(self):
        p = PredictionSet(sample_ids=("sî-1", "sî-2"),
                          scores=RNG.normal(size=(2, 3)))
        buf = io.BytesIO()
        write_predictions(buf, p)
        buf.seek(0)
        assert read_predictions(buf).sample_ids == ("sî-1", "sî-2")
