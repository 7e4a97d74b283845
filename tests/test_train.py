"""Loss, optimizer, training loop, prediction and evaluation."""

import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from cvislr import vst
from cvislr.data import (MANIFEST_NAME, ClipRecord, DatasetManifest, generate_dataset,
                         load_split)
from cvislr.ensemble import LOGITS, PredictionSet, write_predictions
import cvislr.train as train_mod
from cvislr.errors import (AlignmentError, ContractError, FormatError, GeometryError,
                           NumericError, ShapeError)
from cvislr.tensor import GradTape, Tensor, _result, backward, write_tensor
from cvislr.train import (
    AdamState,
    TrainConfig,
    adamw_step,
    cross_entropy,
    evaluate,
    format_report,
    global_grad_norm,
    predict,
    save_loss_curve,
    save_report,
    train,
)

mp.mp.dps = 50
RNG = np.random.default_rng(7)

GEOMETRY = (4, 32, 32)
NUM_CLASSES = 4
SIGNERS = 2


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("trainset")
    return generate_dataset(NUM_CLASSES, SIGNERS, GEOMETRY, str(root), seed=3)


def mp_cross_entropy(logits, target):
    row = [mp.mpf(float(x)) for x in logits]
    lse = mp.log(mp.fsum(mp.e**x for x in row))
    return float(lse - row[int(target)])


# ---------------------------------------------------------------------------
# cross-entropy


class TestCrossEntropy:
    def test_uniform_two_class_is_ln2(self):
        loss = cross_entropy(Tensor([[1.0, 1.0]]), [0])
        assert abs(loss.item() - math.log(2.0)) < 1e-12

    def test_uniform_k_class_is_lnk(self):
        for k in (3, 5, 10):
            loss = cross_entropy(Tensor(np.zeros((1, k))), [k - 1])
            assert abs(loss.item() - math.log(k)) < 1e-12

    def test_matches_mpmath_vector(self):
        logits = RNG.normal(size=7) * 5
        for t in range(7):
            loss = cross_entropy(Tensor(logits[None]), [t])
            assert abs(loss.item() - mp_cross_entropy(logits, t)) < 1e-12

    def test_matches_mpmath_batch_mean(self):
        logits = RNG.normal(size=(6, 4)) * 3
        targets = np.array([0, 1, 2, 3, 1, 2])
        loss = cross_entropy(Tensor(logits), targets)
        want = np.mean([mp_cross_entropy(row, t)
                        for row, t in zip(logits, targets)])
        assert abs(loss.item() - want) < 1e-12

    def test_extreme_logits_stable(self):
        loss = cross_entropy(Tensor([[1000.0, 0.0]]), [0])
        assert abs(loss.item()) < 1e-12
        loss = cross_entropy(Tensor([[1000.0, 0.0]]), [1])
        assert abs(loss.item() - 1000.0) < 1e-9

    def test_gradient_is_softmax_minus_onehot(self):
        logits = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
        targets = np.array([4, 0, 2])
        grads = backward(cross_entropy(logits, targets))
        z = logits.data - logits.data.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[targets]
        np.testing.assert_allclose(grads[logits], (p - onehot) / 3, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "posinf"])
    def test_nan_or_posinf_logits_rejected(self, bad):
        logits = RNG.normal(size=(2, 3))
        logits[1, 2] = bad
        with pytest.raises(NumericError, match="NaN or \\+inf"):
            cross_entropy(Tensor(logits, requires_grad=True), [0, 1])

    def test_target_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor([[0.0, 1.0]]), [2])
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_non_integer_targets_rejected(self):
        # a float target is not truncated to a class
        with pytest.raises(ContractError, match="integers"):
            cross_entropy(Tensor(np.zeros((2, 3))), [0.5, 1.7])
        with pytest.raises(ContractError, match="integers"):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0.0, 1.0]))

    def test_bad_shapes(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3, 4))), 0)
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros(3)), [0])
        with pytest.raises(ContractError):
            cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# AdamW


def manual_adamw(theta0, grads, lr, wd, betas=(0.9, 0.999), eps=1e-8):
    """Scalar AdamW reference in 50-digit arithmetic."""
    b1, b2 = mp.mpf(betas[0]), mp.mpf(betas[1])
    theta = mp.mpf(theta0)
    m = v = mp.mpf(0)
    for t, g in enumerate(grads, start=1):
        g = mp.mpf(float(g))
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1**t)
        vhat = v / (1 - b2**t)
        theta = theta * (1 - mp.mpf(lr) * mp.mpf(wd))
        theta = theta - mp.mpf(lr) * mhat / (mp.sqrt(vhat) + mp.mpf(eps))
    return float(theta)


class TestAdamW:
    def test_scalar_sequence_matches_reference(self):
        cfg = TrainConfig(learning_rate=0.01, weight_decay=0.05)
        theta = Tensor([2.0], requires_grad=True)
        params = {"theta": theta}
        state = AdamState.zeros(params)
        grad_seq = [0.5, -1.0, 0.25, 2.0, -0.125]
        for g in grad_seq:
            adamw_step(params, {"theta": np.array([g])}, state, cfg)
        want = manual_adamw(2.0, grad_seq, lr=0.01, wd=0.05)
        assert abs(theta.data[0] - want) < 1e-12
        assert state.step == len(grad_seq)

    def test_first_step_bias_correction(self):
        # with beta correction, the very first step moves by ~lr regardless
        # of gradient magnitude: m_hat = g, v_hat = g^2
        for g in (1e-4, 1.0, 1e4):
            cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0)
            theta = Tensor([0.0], requires_grad=True)
            params = {"theta": theta}
            adamw_step(params, {"theta": np.array([g])},
                       AdamState.zeros(params), cfg)
            assert abs(theta.data[0] + 0.1 * g / (abs(g) + 1e-8)) < 1e-9

    def test_decay_is_decoupled(self):
        # zero gradient: parameter shrinks geometrically, moments stay zero
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.5)
        theta = Tensor([8.0], requires_grad=True)
        params = {"theta": theta}
        state = AdamState.zeros(params)
        for _ in range(3):
            adamw_step(params, {"theta": np.zeros(1)}, state, cfg)
        assert abs(theta.data[0] - 8.0 * (1 - 0.1 * 0.5) ** 3) < 1e-12
        assert state.m["theta"][0] == 0.0 and state.v["theta"][0] == 0.0

    def test_updates_happen_in_place(self):
        cfg = TrainConfig()
        theta = Tensor([1.0], requires_grad=True)
        params = {"theta": theta}
        data_ref = theta.data
        adamw_step(params, {"theta": np.array([1.0])},
                   AdamState.zeros(params), cfg)
        assert theta.data is data_ref

    def test_shape_mismatch_rejected(self):
        params = {"theta": Tensor([1.0, 2.0])}
        with pytest.raises(ContractError):
            adamw_step(params, {"theta": np.zeros(3)},
                       AdamState.zeros(params), TrainConfig())

    @pytest.mark.parametrize("grads, moments", [
        ({"a": [1.0]}, None),
        ({"a": [1.0], "b": np.zeros(3)}, None),
        ({"a": [1.0], "b": [0.0, 0.0]}, None),
        ({"a": [1.0], "b": np.zeros(2, dtype=np.int64)}, None),
        ({"a": [1.0], "b": np.zeros(2)}, ({}, {})),
        ({"a": [1.0], "b": np.zeros(2)}, ({"a": [0.0], "b": [0.0, 0.0]},
                                          {"a": [0.0], "b": [0.0]})),
    ], ids=["missing_gradient", "gradient_shape", "gradient_list", "gradient_integer",
            "missing_moments", "moment_shape"])
    def test_a_refused_step_changes_nothing(self, grads, moments):
        # every gradient and moment is checked before the first parameter moves
        params = {"a": Tensor([1.0], requires_grad=True),
                  "b": Tensor([1.0, 2.0], requires_grad=True)}
        grads = {k: g if k == "b" else np.array(g) for k, g in grads.items()}
        state = AdamState.zeros(params) if moments is None else AdamState(
            *({k: np.array(x) for k, x in held.items()} for held in moments))
        before = [{k: np.array(x) for k, x in held.items()}
                  for held in ({k: p.data for k, p in params.items()}, state.m, state.v)]
        with pytest.raises(ContractError, match="parameter '[ab]' needs a float"):
            adamw_step(params, grads, state, TrainConfig())
        after = [{k: p.data for k, p in params.items()}, state.m, state.v]
        for old, new in zip(before, after):
            assert old.keys() == new.keys()
            assert all(np.array_equal(old[k], new[k]) for k in old)
        assert state.step == 0

    def test_global_grad_norm(self):
        grads = {"a": np.array([3.0]), "b": np.array([[4.0]])}
        assert abs(global_grad_norm(grads) - 5.0) < 1e-15

    def test_quadratic_bowl_converges(self):
        # minimize |theta|^2 (gradient 2*theta) from theta = 10*ones within
        # 2000 steps; lr 0.01 with the default decoupled decay
        cfg = TrainConfig(learning_rate=0.01)
        theta = Tensor(np.full(4, 10.0), requires_grad=True)
        params = {"theta": theta}
        state = AdamState.zeros(params)
        for _ in range(2000):
            adamw_step(params, {"theta": 2.0 * theta.data}, state, cfg)
            if np.linalg.norm(theta.data) < 0.1:
                break
        assert np.linalg.norm(theta.data) < 0.1


class TestTrainConfig:
    def test_defaults(self):
        # the recipe every caller uses, and so the command line's defaults
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert (train_mod.BETAS, train_mod.EPS) == ((0.9, 0.999), 1e-8)
        assert cfg.weight_decay == 0.05
        assert cfg.batch_size == 8
        assert cfg.epochs == 25
        assert cfg.seed == 0

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": 0.0},
        {"weight_decay": -0.1},
        {"batch_size": 0},
        {"epochs": 0},
        {"batch_size": 2.5},
        {"batch_size": True},
        {"epochs": 1.5},
        {"learning_rate": "x"},
        {"learning_rate": True},
        {"weight_decay": False},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ContractError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"learning_rate": -math.inf},
        {"weight_decay": math.nan},
        {"weight_decay": math.inf},
    ], ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()))
    def test_non_finite_settings_rejected(self, kwargs):
        with pytest.raises(ContractError):
            TrainConfig(**kwargs)

    def test_negative_seed_rejected(self):
        # numpy's Philox takes no negative seed; the config names it instead
        with pytest.raises(ContractError, match="seed"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, "3", True])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ContractError, match="seed"):
            TrainConfig(seed=seed)


# ---------------------------------------------------------------------------
# training loop


def toy_setup(seed=0):
    cfg = vst.make_toy_config("small", NUM_CLASSES, geometry=GEOMETRY)
    return cfg, vst.init_params(cfg, seed=seed)


def reference_train(cfg, params, manifest, tc, modality="rgb"):
    """``train``'s loop over the whole split held at once, updating ``params`` in place."""
    clips, labels, _ = load_split(manifest, "train", modality)
    state = AdamState.zeros(params)
    shuffle_rng = np.random.Generator(np.random.Philox(tc.seed))
    for _ in range(tc.epochs):
        order = shuffle_rng.permutation(len(labels))
        for start in range(0, len(labels), tc.batch_size):
            idx = order[start:start + tc.batch_size]
            logits = vst.forward_batch(Tensor(clips[idx]), cfg, params)
            grad_map = backward(cross_entropy(logits, labels[idx]))
            adamw_step(params, {k: grad_map[p] for k, p in params.items()}, state, tc)


def assert_same_bytes(a, b):
    assert a.keys() == b.keys()
    for k in a:
        assert a[k].data.dtype == b[k].data.dtype and a[k].data.tobytes() == b[k].data.tobytes(), k


class TestStreamedBatches:
    """``train`` reads each batch from disk; the bytes are those of a loop over the whole
    split held at once."""

    # 8 training clips at batch 3: steps of 3, 3 and 2 clips an epoch
    TC = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=3, seed=4)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_matches_a_whole_split_reference(self, dataset, dtype):
        cfg = vst.make_toy_config("large", NUM_CLASSES, geometry=GEOMETRY)
        params, want = (vst.init_params(cfg, seed=3, dtype=dtype) for _ in range(2))
        train(cfg, params, dataset, self.TC)
        reference_train(cfg, want, dataset, self.TC)
        assert_same_bytes(params, want)
        assert not np.array_equal(params["head.fc.bias"].data,
                                  vst.init_params(cfg, seed=3, dtype=dtype)["head.fc.bias"].data)


class TestTrainLoop:
    def test_memorizes_training_split(self, dataset):
        model_cfg, params = toy_setup(seed=0)
        tc = TrainConfig(learning_rate=1e-3, epochs=40, batch_size=8, seed=0)
        curve = train(model_cfg, params, dataset, tc, modality="rgb")
        assert len(curve) == tc.epochs
        assert curve[-1] < 0.5 * curve[0]
        pset = predict(model_cfg, params, dataset, "train", "rgb")
        guesses = np.argmax(pset.scores, axis=1)
        acc = float(np.mean(guesses == pset.labels))
        assert acc >= 0.9

    def test_training_is_deterministic(self, dataset):
        runs = []
        for _ in range(2):
            model_cfg, params = toy_setup(seed=1)
            tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=5)
            curve = train(model_cfg, params, dataset, tc, modality="depth")
            runs.append((curve, params))
        assert runs[0][0] == runs[1][0]  # float-identical loss curves
        for k in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][k].data, runs[1][1][k].data)

    def test_seed_changes_trajectory(self, dataset):
        curves = []
        for seed in (0, 1):
            model_cfg, params = toy_setup(seed=2)
            tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4,
                             seed=seed)
            curves.append(train(model_cfg, params, dataset, tc))
        assert curves[0] != curves[1]

    @pytest.mark.parametrize("target, call, where", [
        ("gradient", 1, "epoch 1 step 1"),
        ("gradient", 3, "epoch 2 step 1"),
        ("loss", 2, "epoch 1 step 2"),
    ])
    def test_non_finite_step_raises_before_update(self, dataset, monkeypatch,
                                                  target, call, where):
        # 8 training clips at batch 4: two steps an epoch; the poisoned step
        # is the call-th, and the parameters must stay as it found them
        model_cfg, params = toy_setup()
        calls, before = [], {}
        real_cross_entropy, real_backward = train_mod.cross_entropy, train_mod.backward

        def poisoned_cross_entropy(logits, labels):
            loss = real_cross_entropy(logits, labels)
            calls.append(None)
            if len(calls) == call:
                before.update({k: p.data.copy() for k, p in params.items()})
                if target == "loss":
                    # a NaN loss whose node passes the gradient on unchanged
                    loss = _result(loss.data + np.nan, "poison", (loss,), lambda g: (g,))
            return loss

        def poisoned_backward(loss):
            grads = real_backward(loss)
            if target == "gradient" and len(calls) == call:
                grads[params["head.fc.bias"]][0] = np.nan
            return grads

        monkeypatch.setattr(train_mod, "cross_entropy", poisoned_cross_entropy)
        monkeypatch.setattr(train_mod, "backward", poisoned_backward)
        tc = TrainConfig(learning_rate=1e-3, epochs=3, batch_size=4, seed=0)
        with pytest.raises(NumericError, match=where):
            train(model_cfg, params, dataset, tc)
        assert len(calls) == call
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_previous_step_graph_released_before_next_forward(self, dataset,
                                                              monkeypatch):
        # every activation of step k (logits and each non-leaf node input)
        # must be freed before step k+1 starts its forward pass
        model_cfg, params = toy_setup()
        real_forward = vst.forward_batch
        steps, alive = [], []

        def watched_forward(clips, cfg, p):
            if steps:
                alive.append(sum(ref() is not None for ref in steps[-1]))
            logits = real_forward(clips, cfg, p)
            inputs = [t for node in GradTape.trace(logits).nodes
                      for t in node.parents if not t.requires_grad]
            steps.append([weakref.ref(t.data) for t in [logits, *inputs]])
            return logits

        monkeypatch.setattr(vst, "forward_batch", watched_forward)
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=4, seed=0)
        train(model_cfg, params, dataset, tc)
        assert len(steps) == 4
        assert alive == [0, 0, 0]

    def test_step_gradients_are_exactly_the_parameters(self):
        cfg = vst.make_toy_config("large", NUM_CLASSES, geometry=GEOMETRY)
        params = vst.init_params(cfg, seed=0)
        clips = Tensor(RNG.random(size=(2, *GEOMETRY, 3)))
        loss = cross_entropy(vst.forward_batch(clips, cfg, params), [0, 1])
        nodes = GradTape.trace(loss).nodes
        assert not {"log_softmax", "pick", "neg"} & {n.op for n in nodes}
        grads = backward(loss)
        assert len(params) == 82
        assert set(grads) == set(params.values())
        for p in params.values():
            assert grads[p].shape == p.shape

    def test_log_callback(self, dataset):
        model_cfg, params = toy_setup()
        lines = []
        tc = TrainConfig(learning_rate=1e-3, epochs=2, batch_size=8, seed=0)
        train(model_cfg, params, dataset, tc, log=lines.append)
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1/2")

    def test_geometry_mismatch(self, dataset):
        model_cfg = vst.make_toy_config("small", NUM_CLASSES,
                                        geometry=(8, 32, 32))
        params = vst.init_params(model_cfg, seed=0)
        with pytest.raises(GeometryError):
            train(model_cfg, params, dataset, TrainConfig())

    def test_class_count_mismatch(self, dataset):
        model_cfg = vst.make_toy_config("small", NUM_CLASSES + 1,
                                        geometry=GEOMETRY)
        params = vst.init_params(model_cfg, seed=0)
        with pytest.raises(ContractError):
            train(model_cfg, params, dataset, TrainConfig())

    @pytest.mark.parametrize("name", ["head.fc.bias", "embed.proj.weight"])
    def test_a_parameter_without_a_gradient_rejected_before_any_read(self, dataset,
                                                                     monkeypatch, name):
        # an untracked parameter would get no gradient, and every parameter is updated
        model_cfg, params = toy_setup()
        params[name] = Tensor(params[name].data)
        monkeypatch.setattr(train_mod, "load_clips",
                            lambda *args: pytest.fail("clips were read"))
        with pytest.raises(ContractError, match=f"{name!r} is not a leaf that requires"):
            train(model_cfg, params, dataset, TrainConfig())

    def test_peak_memory_grows_with_the_batch_not_the_split(self, dataset):
        # the val and left test clips relabelled as train ones make a split 3x larger;
        # read a batch at a time, the peak grows by less than one batch (the whole
        # split held at once grows it by two)
        bigger = replace(dataset, records=tuple(replace(r, split="train")
                                                for r in dataset.records if r.view != "right"))
        assert len(bigger.split("train")) == 3 * len(dataset.split("train"))
        batch = 4 * math.prod(GEOMETRY) * 3 * 4  # four float32 clips
        tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=0)
        model_cfg, params = toy_setup()
        train(model_cfg, params, dataset, tc)  # warm caches
        peaks = []
        for manifest in (dataset, bigger):
            model_cfg, params = toy_setup()
            tracemalloc.start()
            try:
                train(model_cfg, params, manifest, tc)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < batch, (peaks, batch)

    @pytest.fixture
    def copied(self, dataset, tmp_path):
        shutil.copytree(dataset.root, tmp_path, dirs_exist_ok=True)
        return replace(dataset, root=str(tmp_path))

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_bad_clip_in_last_batch_is_named(self, copied, damage):
        # 8 clips at batch 4: the clip shuffled last is read by the second step, after
        # the first step's update, which the parameters keep
        tc = TrainConfig(learning_rate=1e-3, epochs=1, batch_size=4, seed=0)
        last = np.random.Generator(np.random.Philox(tc.seed)).permutation(8)[-1]
        rel = copied.split("train")[last].rgb_path
        path = os.path.join(copied.root, rel)
        if damage == "missing":
            os.remove(path)
        else:
            with open(path, "r+b") as f:
                f.write(b"JUNK")
        model_cfg, params = toy_setup()
        _, start = toy_setup()
        with pytest.raises(FormatError, match=re.escape(rel)):
            train(model_cfg, params, copied, tc)
        assert not np.array_equal(params["head.fc.bias"].data, start["head.fc.bias"].data)

    def test_train_split_missing_a_class_rejected_before_any_read(self, dataset,
                                                                  monkeypatch):
        # the head would keep an untrained class-2 row without a word
        manifest = replace(dataset, records=tuple(
            r for r in dataset.records if (r.split, r.gloss_id) != ("train", 2)))
        model_cfg, params = toy_setup()
        monkeypatch.setattr(train_mod, "load_clips",
                            lambda *args: pytest.fail("clips were read"))
        message = (f"num_classes={NUM_CLASSES}, but the train split covers "
                   f"{NUM_CLASSES - 1} classes; every class needs a train clip")
        with pytest.raises(ContractError, match=re.escape(message)):
            train(model_cfg, params, manifest, TrainConfig())


#: Trains toy large on the manifest ``argv[1]`` in the dtype ``argv[2]``, then
#: prints the threads OpenBLAS runs (None when numpy bundles no OpenBLAS) and
#: the SHA-256 of the checkpoint and of the test split's logits.
_MEMBER = """
import ctypes, glob, hashlib, io, os, sys
import numpy as np
from cvislr import data, train, vst
libs = glob.glob(os.path.join(np.__path__[0], os.pardir, "numpy.libs", "libscipy_openblas*"))
getters = [getattr(ctypes.CDLL(path), name, None) for path in libs for name in
           ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")]
print(next((get() for get in getters if get is not None), None))
manifest = data.load_manifest(sys.argv[1])
cfg = vst.make_toy_config("large", manifest.num_classes, geometry=manifest.geometry)
params = vst.init_params(cfg, seed=0, dtype=np.dtype(sys.argv[2]))
train.train(cfg, params, manifest, train.TrainConfig(epochs=4))
blob = io.BytesIO()
vst.save_checkpoint(blob, cfg, params)
print(hashlib.sha256(blob.getvalue()).hexdigest())
scores = train.predict(cfg, params, manifest, "test").scores
print(hashlib.sha256(scores.tobytes()).hexdigest())
"""


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_a_member_does_not_depend_on_the_blas_threads(dataset, dtype):
    # each run sets the thread count before numpy loads, in a fresh process:
    # members may then train in parallel processes with one thread each
    src = os.path.dirname(os.path.dirname(os.path.abspath(vst.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run([sys.executable, "-c", _MEMBER,
                               os.path.join(dataset.root, MANIFEST_NAME), dtype],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        reported, *digests = proc.stdout.split()
        if reported == "None":  # without a bundled OpenBLAS the variable may do nothing
            pytest.skip("cannot confirm the OpenBLAS thread count")
        assert reported == threads
        runs.append(digests)
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# prediction


class TestPredict:
    def test_shapes_labels_provenance(self, dataset):
        model_cfg, params = toy_setup()
        pset = predict(model_cfg, params, dataset, "val", "rgb")
        n = NUM_CLASSES * SIGNERS
        assert pset.num_samples == n
        assert pset.num_classes == NUM_CLASSES
        assert pset.score_kind == LOGITS
        assert pset.provenance == "small-rgb"
        recs = dataset.split("val")
        assert pset.sample_ids == tuple(r.sample_id for r in recs)
        np.testing.assert_array_equal(pset.labels,
                                      [r.gloss_id for r in recs])

    def test_matches_single_clip_forward(self, dataset):
        from cvislr.data import load_split

        model_cfg, params = toy_setup()
        pset = predict(model_cfg, params, dataset, "val", "rgb", batch_size=3)
        clips, _, _ = load_split(dataset, "val", "rgb")
        for i in (0, 3, 7):
            single = vst.forward_batch(Tensor(clips[i:i + 1]), model_cfg, params)
            np.testing.assert_allclose(pset.scores[i], single.data[0], atol=1e-10)

    def test_batch_size_invariant(self, dataset):
        model_cfg, params = toy_setup()
        a = predict(model_cfg, params, dataset, "val", "rgb", batch_size=8)
        b = predict(model_cfg, params, dataset, "val", "rgb", batch_size=3)
        np.testing.assert_allclose(a.scores, b.scores, atol=1e-10)

    def test_does_not_touch_params(self, dataset):
        model_cfg, params = toy_setup()
        before = {k: p.data.copy() for k, p in params.items()}
        predict(model_cfg, params, dataset, "val", "rgb")
        for k, p in params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_geometry_mismatch(self, dataset):
        model_cfg = vst.make_toy_config("small", NUM_CLASSES,
                                        geometry=(8, 32, 32))
        params = vst.init_params(model_cfg, seed=0)
        with pytest.raises(GeometryError):
            predict(model_cfg, params, dataset, "val", "rgb")

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, True])
    def test_bad_batch_size_rejected_before_any_read(self, batch_size):
        # the manifest names no clip file that exists, so any read would fail
        model_cfg, params = toy_setup()
        with pytest.raises(ContractError, match="batch_size"):
            predict(model_cfg, params, _unread_manifest(), "test", batch_size=batch_size)

    @pytest.mark.parametrize("split, modality, match", [
        ("train", "rgb", "empty"), ("test", "flow", "modality")])
    def test_empty_split_or_unknown_modality_rejected_before_any_read(
            self, split, modality, match):
        model_cfg, params = toy_setup()
        with pytest.raises(ContractError, match=match):
            predict(model_cfg, params, _unread_manifest(), split, modality)

    def test_other_class_count_rejected_before_any_read(self):
        # the scores would have another column count than the manifest has classes
        cfg = vst.make_toy_config("small", NUM_CLASSES - 1, geometry=GEOMETRY)
        with pytest.raises(ContractError, match="classes"):
            predict(cfg, vst.init_params(cfg), _unread_manifest(), "test")

    @pytest.fixture
    def copied(self, dataset, tmp_path):
        shutil.copytree(dataset.root, tmp_path, dirs_exist_ok=True)
        return replace(dataset, root=str(tmp_path))

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_bad_clip_in_last_batch_is_named(self, copied, damage):
        model_cfg, params = toy_setup()
        last = copied.split("val")[-1].rgb_path
        path = os.path.join(copied.root, last)
        if damage == "missing":
            os.remove(path)
        else:
            with open(path, "r+b") as f:
                f.write(b"JUNK")
        with pytest.raises(FormatError, match=re.escape(last)):
            predict(model_cfg, params, copied, "val", "rgb", batch_size=3)

    def test_clip_of_wrong_extents_rejected_before_its_batch(self, copied, monkeypatch):
        # the first clip of the third batch has other extents: the first two
        # batches are scored, the third is never allocated or scored
        model_cfg, params = toy_setup()
        bad = copied.split("val")[6].rgb_path
        write_tensor(os.path.join(copied.root, bad), np.zeros((2, 32, 32, 3)))
        scored, real_forward = [], vst.forward_batch

        def counted_forward(clips, *args):
            scored.append(clips.shape[0])
            return real_forward(clips, *args)

        monkeypatch.setattr(vst, "forward_batch", counted_forward)
        with pytest.raises(FormatError, match=re.escape(bad) + ".*do not match"):
            predict(model_cfg, params, copied, "val", "rgb", batch_size=3)
        assert scored == [3, 3]

    def test_peak_memory_grows_with_the_batch_not_the_split(self, dataset):
        # 16 test clips at batch 2 are 8 batches; streamed, the peak is about
        # a third of the split stacked in float64 (the whole split held at
        # once comes to more than all of it)
        model_cfg, params = toy_setup()
        n = len(dataset.split("test"))
        stacked = n * math.prod(GEOMETRY) * 3 * 8
        predict(model_cfg, params, dataset, "test", "rgb", batch_size=2)  # warm caches
        tracemalloc.start()
        try:
            pset = predict(model_cfg, params, dataset, "test", "rgb", batch_size=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pset.num_samples == n >= 4 * 2
        assert peak < stacked / 2, (peak, stacked)


# ---------------------------------------------------------------------------
# evaluation


def _unread_manifest():
    """A manifest whose clip files do not exist, with ``toy_setup``'s classes."""
    recs = tuple(ClipRecord("test", f"s{i}", i % 2, "left", f"r{i}", f"d{i}")
                 for i in range(4))
    return DatasetManifest(records=recs, num_classes=NUM_CLASSES, geometry=GEOMETRY,
                           root="/nonexistent")


def tiny_manifest():
    recs = (
        ClipRecord("test", "a", 0, "left", "r0", "d0"),
        ClipRecord("test", "b", 0, "right", "r1", "d1"),
        ClipRecord("test", "c", 1, "left", "r2", "d2"),
        ClipRecord("test", "d", 1, "right", "r3", "d3"),
    )
    return DatasetManifest(records=recs, num_classes=2, geometry=(4, 16, 16),
                           root="/nonexistent")


def preds(scores):
    return PredictionSet(sample_ids=("a", "b", "c", "d"),
                         scores=np.asarray(scores, dtype=float))


class TestEvaluate:
    def test_exact_counts(self):
        report = evaluate(preds([[2.0, 1.0],   # a: predict 0, true 0  hit
                                 [0.0, 1.0],   # b: predict 1, true 0  miss
                                 [0.0, 3.0],   # c: predict 1, true 1  hit
                                 [5.0, 1.0]]),  # d: predict 0, true 1 miss
                          tiny_manifest(), "test")
        assert (report.correct, report.total) == (2, 4)
        assert report.accuracy == 0.5
        assert report.per_view == {"left": (2, 2), "right": (0, 2)}
        assert report.per_class == {0: (1, 2), 1: (1, 2)}
        np.testing.assert_array_equal(report.confusion, [[1, 1], [1, 1]])

    def test_counts_are_consistent(self):
        report = evaluate(preds(RNG.normal(size=(4, 2))), tiny_manifest(),
                          "test")
        assert sum(c for c, _ in report.per_view.values()) == report.correct
        assert sum(t for _, t in report.per_view.values()) == report.total
        assert sum(c for c, _ in report.per_class.values()) == report.correct
        assert report.confusion.sum() == report.total
        assert np.trace(report.confusion) == report.correct

    def test_perfect_and_zero(self):
        perfect = evaluate(preds([[1, 0], [1, 0], [0, 1], [0, 1]]),
                           tiny_manifest(), "test")
        assert perfect.accuracy == 1.0
        wrong = evaluate(preds([[0, 1], [0, 1], [1, 0], [1, 0]]),
                         tiny_manifest(), "test")
        assert wrong.accuracy == 0.0

    def test_sample_count_mismatch(self):
        p = PredictionSet(sample_ids=("a", "b"), scores=np.zeros((2, 2)))
        with pytest.raises(AlignmentError):
            evaluate(p, tiny_manifest(), "test")

    def test_unknown_sample(self):
        p = PredictionSet(sample_ids=("a", "b", "c", "zzz"),
                          scores=np.zeros((4, 2)))
        with pytest.raises(AlignmentError, match="zzz"):
            evaluate(p, tiny_manifest(), "test")

    def test_class_count_mismatch(self):
        p = PredictionSet(sample_ids=("a", "b", "c", "d"),
                          scores=np.zeros((4, 3)))
        with pytest.raises(AlignmentError, match="classes"):
            evaluate(p, tiny_manifest(), "test")

    def test_random_predictions_near_chance(self):
        # 300 fabricated samples over 4 classes: random scores must land
        # within 3 sigma of 25% (binomial; deterministic given the seed)
        n, k = 300, 4
        recs = tuple(ClipRecord("val", f"s{i:04d}", i % k, "right" if i % 3 == 1 else "left",
                                f"r{i}", f"d{i}") for i in range(n))
        manifest = DatasetManifest(records=recs, num_classes=k,
                                   geometry=(4, 16, 16), root="/nonexistent")
        scores = np.random.default_rng(123).normal(size=(n, k))
        report = evaluate(PredictionSet(
            sample_ids=tuple(r.sample_id for r in recs), scores=scores),
            manifest, "val")
        sigma = math.sqrt(0.25 * 0.75 / n)
        assert abs(report.accuracy - 0.25) < 3 * sigma
        # every count, recounted one sample at a time; no front clip, so no front row
        per_view, per_class = {}, {c: (0, 0) for c in range(k)}
        confusion = [[0] * k for _ in range(k)]
        for rec, row in zip(recs, scores):
            guess = max(range(k), key=lambda c: row[c])
            hit = int(guess == rec.gloss_id)
            c, t = per_view.get(rec.view, (0, 0))
            per_view[rec.view] = (c + hit, t + 1)
            c, t = per_class[rec.gloss_id]
            per_class[rec.gloss_id] = (c + hit, t + 1)
            confusion[rec.gloss_id][guess] += 1
        assert report.per_view == per_view and set(per_view) == {"left", "right"}
        assert report.per_class == per_class
        assert report.confusion.tolist() == confusion
        assert report.correct == sum(c for c, _ in per_class.values())

    def test_format_report_stable(self):
        report = evaluate(preds([[2.0, 1.0], [0.0, 1.0], [0.0, 3.0],
                                 [5.0, 1.0]]), tiny_manifest(), "test")
        text = format_report(report)
        lines = text.splitlines()
        assert lines[0] == "overall_acc: 0.500000"
        assert lines[1] == "correct: 2"
        assert lines[2] == "total: 4"
        assert "left\t2\t2\t1.000000" in lines
        assert "right\t0\t2\t0.000000" in lines
        assert "0\t1\t2\t0.500000" in lines
        assert lines[-2:] == ["1\t1", "1\t1"]
        assert format_report(report) == text  # stable across calls

    def test_save_report(self, tmp_path):
        report = evaluate(preds(np.eye(4)[:, :2] + 0.1), tiny_manifest(),
                          "test")
        path = str(tmp_path / "report.txt")
        save_report(path, report)
        assert open(path).read() == format_report(report)


# ---------------------------------------------------------------------------
# writers


TOY = vst.make_toy_config("small", 2, geometry=GEOMETRY)


def _last_param_infinite() -> dict[str, Tensor]:
    """Toy params whose last record, ``head.fc.bias``, holds an infinity in float32."""
    params = vst.init_params(TOY)
    params["head.fc.bias"].data[1] = np.inf
    return params


@pytest.mark.parametrize("good, bad, error", [
    (lambda p: vst.save_checkpoint(p, TOY, vst.init_params(TOY)),
     lambda p: vst.save_checkpoint(p, TOY, {k: v for k, v in vst.init_params(TOY).items()
                                            if k != "head.fc.bias"}),
     ContractError),
    (lambda p: write_predictions(p, preds(np.eye(4)[:, :2])),
     lambda p: write_predictions(p, None), AttributeError),
    (lambda p: save_report(p, evaluate(preds(np.eye(4)[:, :2]), tiny_manifest(), "test")),
     lambda p: save_report(p, None), AttributeError),
    (lambda p: save_loss_curve(p, [0.5, 0.25]), lambda p: save_loss_curve(p, 5), TypeError),
    (lambda p: write_tensor(p, np.ones(3)), lambda p: write_tensor(p, np.ones((0, 3))),
     ShapeError),
    (lambda p: write_tensor(p, np.ones(3)), lambda p: write_tensor(p, np.ones((1,) * 17)),
     ShapeError),
    (lambda p: write_tensor(p, np.ones(3)), lambda p: write_tensor(p, [1e300, 1.0]),
     NumericError),
    (lambda p: write_tensor(p, np.ones(3)), lambda p: write_tensor(p, [math.nan]),
     NumericError),
    (lambda p: write_predictions(p, preds(np.eye(4)[:, :2])),
     lambda p: write_predictions(p, preds(np.eye(4)[:, :2] * 1e300)), NumericError),
    (lambda p: save_loss_curve(p, [0.5, 0.25]), lambda p: save_loss_curve(p, [0.5, "x"]),
     ContractError),
    (lambda p: save_loss_curve(p, [0.5, 0.25]), lambda p: save_loss_curve(p, [0.5, True]),
     ContractError),
    (lambda p: save_loss_curve(p, [0.5, 0.25]), lambda p: save_loss_curve(p, [0.5, 10**400]),
     ContractError),
    (lambda p: save_loss_curve(p, [0.5, 0.25]), lambda p: save_loss_curve(p, [0.5, math.nan]),
     ContractError),
    (lambda p: vst.save_checkpoint(p, TOY, vst.init_params(TOY)),
     lambda p: vst.save_checkpoint(p, TOY, _last_param_infinite()), NumericError),
], ids=["save_checkpoint", "write_predictions", "save_report", "save_loss_curve",
        "write_tensor", "write_tensor_rank17", "write_tensor_beyond_f32", "write_tensor_nan",
        "write_predictions_beyond_f32", "save_loss_curve_text", "save_loss_curve_bool",
        "save_loss_curve_beyond_float", "save_loss_curve_nan", "save_checkpoint_inf_param"])
def test_rejected_write_keeps_the_old_file(tmp_path, good, bad, error):
    # a path is replaced only by a complete file, so a writer refused after it
    # has written records, as save_checkpoint is by its last parameter, leaves it whole
    path = tmp_path / "artifact"
    good(str(path))
    before = path.read_bytes()
    assert before
    with pytest.raises(error):
        bad(str(path))
    assert path.read_bytes() == before


def test_loss_curve_of_an_array_writes_the_float_bytes(tmp_path):
    # numpy floats write as the equal Python floats, not as np.float64(...)
    curve = [0.5, 0.25, 1 / 3]
    save_loss_curve(str(tmp_path / "list.tsv"), curve)
    save_loss_curve(str(tmp_path / "array.tsv"), np.array(curve))
    want = "1\t0.5\n2\t0.25\n3\t0.3333333333333333\n"
    assert (tmp_path / "list.tsv").read_text(encoding="utf-8") == want
    assert (tmp_path / "array.tsv").read_bytes() == (tmp_path / "list.tsv").read_bytes()
