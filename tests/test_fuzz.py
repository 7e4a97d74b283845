"""Fuzzed readers and constructors: bad input either works or fails with a CvislrError.

Every file input starts from a valid TNSR clip, VSTC checkpoint, PRED file
or dataset manifest and is truncated, has one bit flipped, or is spliced
onto the tail of another valid file.  The library readers, given each
input as a file and through a stream that cannot seek, must succeed or
raise a ``CvislrError``; the command line must return 0 or 1 (or exit 2)
and never print a traceback.  The model configs, render specs, manifest parts,
training recipes and fusion weights are built from arguments of the wrong
type or out of range, and must likewise be built or raise a
``CvislrError``; what is built holds only plain Python values, hashes, and
equals what the same arguments as plain values build.  A prediction set
holding what the PRED format cannot store must raise a ``CvislrError``
before its writer touches a file, and whatever the TNSR and PRED writers do
write, their readers take back unchanged.  So do the manifest's: a
manifest either cannot be built or comes back equal from ``save_manifest``
and ``load_manifest``.  Each of the six writers, given a file that fails
after a drawn number of bytes, raises and leaves its path as it was.
Examples are derandomized, so every run tests the same inputs.
"""

import contextlib
import dataclasses
import errno
import io
import math
import os
import tempfile
from datetime import timedelta
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cvislr import data, ensemble, tensor, train, vst
from cvislr.cli import main
from cvislr.errors import ContractError, CvislrError, shown
from cvislr.tensor import read_tensor, write_tensor
from test_tensor import _Unseekable

GEOMETRY = (2, 32, 32)
CLASSES = 2
LIBRARY = settings(derandomize=True, database=None, max_examples=300,
                   deadline=timedelta(seconds=5))
CLI = settings(derandomize=True, database=None, max_examples=80,
               deadline=timedelta(seconds=10))


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """A tiny dataset, a checkpoint and a prediction file, with their bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    data_dir = root / "data"
    manifest = data.generate_dataset(CLASSES, 1, GEOMETRY, str(data_dir), seed=0)
    cfg = vst.make_toy_config("small", CLASSES, geometry=GEOMETRY)
    params = vst.init_params(cfg, seed=0)
    ckpt = root / "model.vstc"
    vst.save_checkpoint(str(ckpt), cfg, params)
    pred = root / "test.pred"
    ensemble.write_predictions(str(pred), train.predict(cfg, params, manifest, "test"))
    files = {
        "tnsr": data_dir / manifest.records[0].rgb_path,
        "vstc": ckpt,
        "pred": pred,
        "manifest": data_dir / data.MANIFEST_NAME,
    }
    return {"root": root, "data": data_dir, "pred": pred,
            "blobs": {kind: path.read_bytes() for kind, path in files.items()}}


def _corrupt(fuzz, world, kind: str) -> bytes:
    """One truncation, bit flip or splice of the valid ``kind`` file.

    Half of the cut and flip positions fall in the first 512 bytes, where the
    headers are, and half of the splices take only the donor's last 512 bytes.
    """
    blobs = world["blobs"]
    blob = blobs[kind]
    n = len(blob)
    at = fuzz.draw(st.one_of(st.integers(0, min(n, 512) - 1), st.integers(0, n - 1)))
    how = fuzz.draw(st.sampled_from(["truncate", "flip", "splice"]))
    if how == "truncate":
        return blob[:at]
    if how == "flip":
        bit = fuzz.draw(st.integers(0, 7))
        return blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
    donor = blobs[fuzz.draw(st.sampled_from(sorted(blobs)))]
    m = len(donor)
    start = fuzz.draw(st.one_of(st.integers(max(0, m - 512), m), st.integers(0, m)))
    return blob[:at] + donor[start:]


def _write(directory, name: str, blob: bytes) -> str:
    path = directory / name
    path.write_bytes(blob)
    return str(path)


def _allowed(fn, *args) -> None:
    try:
        fn(*args)
    except CvislrError:
        pass


# ---------------------------------------------------------------------------
# library readers


def _allowed_from_file_and_pipe(read, directory, name: str, blob: bytes) -> None:
    """``read`` on ``blob`` written to a file, then through a stream that cannot seek."""
    _allowed(read, _write(directory, name, blob))
    _allowed(read, io.BufferedReader(_Unseekable(blob)))


@LIBRARY
@given(fuzz=st.data())
def test_read_tensor(world, fuzz):
    blob = _corrupt(fuzz, world, "tnsr")
    _allowed_from_file_and_pipe(read_tensor, world["root"], "clip.tnsr", blob)


@LIBRARY
@given(fuzz=st.data())
def test_load_checkpoint(world, fuzz):
    blob = _corrupt(fuzz, world, "vstc")
    _allowed_from_file_and_pipe(vst.load_checkpoint, world["root"], "bad.vstc", blob)


@LIBRARY
@given(fuzz=st.data())
def test_read_predictions(world, fuzz):
    blob = _corrupt(fuzz, world, "pred")
    _allowed_from_file_and_pipe(ensemble.read_predictions, world["root"], "bad.pred", blob)


@LIBRARY
@given(fuzz=st.data())
def test_load_manifest_and_split(world, fuzz):
    # written next to the clips, so its relative paths resolve
    path = _write(world["data"], "bad.tsv", _corrupt(fuzz, world, "manifest"))
    try:
        manifest = data.load_manifest(path)
    except CvislrError:
        return
    for split in data.SPLITS:
        for modality in data.MODALITIES:
            _allowed(data.load_split, manifest, split, modality)


# ---------------------------------------------------------------------------
# library writers

#: One value a PRED file cannot store, with the field of a two-sample set it
#: replaces the second entry of: an id that is not a string or holds a lone
#: surrogate (no UTF-8), a label that is not an integer in [-1, 2**31), a
#: score beyond the float32 range.
UNSTORABLE = st.one_of(
    st.tuples(st.just("sample_ids"),
              st.one_of(st.none(), st.integers(), st.floats(), st.binary(max_size=3),
                        st.text(st.characters(categories=["Cs"]), min_size=1, max_size=3))),
    st.tuples(st.just("labels"),
              st.one_of(st.integers(max_value=-2), st.integers(min_value=2**31),
                        st.floats(), st.text(max_size=3))),
    st.tuples(st.just("scores"),
              st.one_of(st.floats(min_value=3.5e38), st.floats(max_value=-3.5e38))),
)


@LIBRARY
@given(case=UNSTORABLE)
@example(case=("sample_ids", 2))
@example(case=("sample_ids", b"b"))
@example(case=("sample_ids", "\ud800"))
@example(case=("labels", 2**40))
@example(case=("labels", 1.5))
@example(case=("labels", -7))
@example(case=("scores", 1e300))
def test_unstorable_prediction_set_refused(world, case):
    # refused when built or before the path is opened, so the old file stays
    field, value = case
    fields = {"sample_ids": ["a", "b"], "scores": [[0.5, 0.0], [0.0, 0.5]], "labels": [0, 1]}
    if field == "scores":
        fields["scores"][1][0] = value
    else:
        fields[field][1] = value
    path = _write(world["root"], "kept.pred", world["blobs"]["pred"])
    with pytest.raises(CvislrError):
        ensemble.write_predictions(path, ensemble.PredictionSet(**fields))
    with open(path, "rb") as f:
        assert f.read() == world["blobs"]["pred"]


# ---------------------------------------------------------------------------
# writers and readers agree: a refusal comes when a value is built or written,
# never when the file is read back


@LIBRARY
@given(shape=st.lists(st.integers(1, 2), max_size=20).map(tuple))
def test_tensor_writer_and_reader_agree(shape):
    values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    buf = io.BytesIO()
    try:
        write_tensor(buf, values)
    except CvislrError:
        assert buf.getvalue() == b""
        return
    buf.seek(0)
    assert np.array_equal(read_tensor(buf).data, values)


@LIBRARY
@given(n=st.integers(0, 3), k=st.integers(0, 3), labelled=st.booleans(),
       kind=st.sampled_from([ensemble.LOGITS, ensemble.PROBABILITIES]))
def test_prediction_writer_and_reader_agree(n, k, labelled, kind):
    buf = io.BytesIO()
    try:
        pset = ensemble.PredictionSet(
            sample_ids=tuple(f"s{i}" for i in range(n)), scores=np.full((n, k), 1 / max(k, 1)),
            score_kind=kind, labels=np.arange(n) if labelled else None)
        ensemble.write_predictions(buf, pset)
    except CvislrError:
        assert buf.getvalue() == b""
        return
    buf.seek(0)
    back = ensemble.read_predictions(buf)
    assert back.sample_ids == pset.sample_ids and back.score_kind == kind
    assert np.array_equal(back.scores, pset.scores.astype(np.float32))
    if labelled:
        assert np.array_equal(back.labels, pset.labels)
    else:
        assert back.labels is None


# ---------------------------------------------------------------------------
# a write that fails part way leaves the path as it was


class _FailingFile:
    """A file opened for writing that raises OSError once ``budget`` bytes are in."""

    def __init__(self, budget: int, path, mode: str):
        self.budget, self.file = budget, open(path, mode)

    def write(self, b) -> int:
        raw = memoryview(b).cast("B")
        self.file.write(raw[:self.budget])
        if len(raw) > self.budget:
            raise OSError(errno.ENOSPC, "injected write failure")
        self.budget -= len(raw)
        return len(raw)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


@pytest.fixture(scope="module")
def writers(world):
    """The six writers, each as a call on a path, with the byte count it writes."""
    manifest = data.load_manifest(str(world["data"] / data.MANIFEST_NAME))
    pset = ensemble.read_predictions(str(world["pred"]))
    report = train.evaluate(pset, manifest, "test")
    cfg = vst.make_toy_config("small", CLASSES, geometry=GEOMETRY)
    params = vst.init_params(cfg, seed=0)
    calls = {
        "write_tensor": lambda p: write_tensor(p, np.arange(6.0).reshape(2, 3)),
        "save_checkpoint": lambda p: vst.save_checkpoint(p, cfg, params),
        "write_predictions": lambda p: ensemble.write_predictions(p, pset),
        "save_manifest": lambda p: data.save_manifest(manifest, p),
        "save_report": lambda p: train.save_report(p, report),
        "save_loss_curve": lambda p: train.save_loss_curve(p, [0.5, 0.25]),
    }
    sizes = {}
    for name, write in calls.items():
        path = world["root"] / f"whole_{name}"
        write(str(path))
        sizes[name] = path.stat().st_size
    return {name: (write, sizes[name]) for name, write in calls.items()}


@LIBRARY
@given(fuzz=st.data())
def test_a_failed_write_leaves_the_path_as_it_was(world, writers, fuzz):
    # the file _stream opens fails after a drawn number of bytes: the error
    # propagates, the path keeps its old bytes or stays absent, and nothing is left
    name = fuzz.draw(st.sampled_from(sorted(writers)))
    write, size = writers[name]
    budget = fuzz.draw(st.integers(0, size - 1))
    old = fuzz.draw(st.none() | st.binary(max_size=16))
    with tempfile.TemporaryDirectory(dir=world["root"]) as directory:
        path = os.path.join(directory, "artifact")
        if old is not None:
            with open(path, "wb") as f:
                f.write(old)
        with mock.patch.object(tensor, "open", partial(_FailingFile, budget), create=True):
            with pytest.raises(OSError, match="injected write failure"):
                write(path)
        assert os.listdir(directory) == ([] if old is None else ["artifact"])
        if old is not None:
            with open(path, "rb") as f:
                assert f.read() == old


# ---------------------------------------------------------------------------
# library constructors

#: A value of the wrong type, or an integer far out of range, for any argument:
#: among them an integer beyond the float range, one too long for ``repr``,
#: and numpy scalars.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(),
                 st.text(max_size=3), st.integers(-3, 300).map(np.int64), st.just(10**400),
                 st.just(-10**5000), st.floats(width=32).map(np.float32))


def _maybe(valid):
    return st.one_of(valid, JUNK)


def _extents(count: int, valid):
    """Tuples of ``count`` items, lists one item short or long, or junk."""
    item = _maybe(valid)
    return st.one_of(st.tuples(*[item] * count),
                     st.lists(item, min_size=count - 1, max_size=count + 1), JUNK)


SIZE_ARGS = _maybe(st.sampled_from(["small", "base", "large", "Large", "huge", ""]))
CLASS_ARGS = _maybe(st.integers(-1, 5000))
SEED_ARGS = _maybe(st.integers(-2, 2**70))
GEOMETRY_ARGS = st.one_of(st.sampled_from([(2, 32, 32), (8, 32, 32), (16, 64, 64),
                                           (32, 224, 224)]),
                          _extents(3, st.integers(-1, 300)))
_PIECES = ["a", "é", "名", ".", "..", "/"]
#: Text of path steps and non-ASCII; then text that may also hold what no
#: manifest line can: tab, newline, carriage return, NUL and a lone surrogate.
TEXT = st.lists(st.sampled_from(_PIECES), max_size=4).map("".join)
ANY_TEXT = st.lists(st.sampled_from(_PIECES + ["\t", "\n", "\r", "\0", "\ud800"]),
                    max_size=4).map("".join)
#: Strategies for the six fields of a ClipRecord, in order, each of which it
#: may refuse: unknown names, gloss ids that are negative, bools or text.
RECORD_FIELDS = (st.sampled_from([*data.SPLITS, "dev"]), ANY_TEXT,
                 st.one_of(st.integers(-2, 5), st.booleans(), st.text(max_size=2)),
                 st.sampled_from([*data.VIEWS, "back"]), ANY_TEXT, ANY_TEXT)


def _half(likely, other):
    """Draws of ``likely`` half of the time, where one_of would give it only as
    many as each of the branches ``other`` is made of."""
    return st.booleans().flatmap(lambda pick: other if pick else likely)


#: ClipRecord fields: half with known names, small gloss ids and plain text,
#: the other half from RECORD_FIELDS.
RECORD_ARGS = _half(st.tuples(st.sampled_from(data.SPLITS), TEXT, st.integers(0, 3),
                              st.sampled_from(data.VIEWS), TEXT, TEXT),
                    st.tuples(*RECORD_FIELDS))
#: Records, or junk in their place: sample ids may repeat, gloss ids reach the class count.
RECORDS = st.lists(st.one_of(st.builds(data.ClipRecord, st.sampled_from(data.SPLITS),
                                       st.sampled_from(["a", "b"]), st.integers(0, 5),
                                       st.sampled_from(data.VIEWS), st.just("r.tnsr"),
                                       st.just("d.tnsr")), JUNK), max_size=3)
#: Lists of fusion weights, or junk in their place.
WEIGHTS = st.lists(_maybe(st.floats(0.0, 4.0)), max_size=4)
#: Each constructor, with strategies for its positional arguments.
CONSTRUCTORS = {
    "VstConfig": (vst.VstConfig, (
        SIZE_ARGS, _maybe(st.sampled_from([8, 12, 96])), _extents(4, st.integers(-1, 20)),
        _extents(4, st.sampled_from([1, 2, 3, 4, 8])), _extents(3, st.integers(-1, 60)),
        CLASS_ARGS, GEOMETRY_ARGS)),
    "make_config": (vst.make_config, (SIZE_ARGS, CLASS_ARGS, GEOMETRY_ARGS)),
    "make_toy_config": (vst.make_toy_config, (SIZE_ARGS, CLASS_ARGS, GEOMETRY_ARGS)),
    "scene_spec": (data.scene_spec, (
        _maybe(st.integers(-2, 5000)), SEED_ARGS,
        _maybe(st.sampled_from([*data.VIEWS, "back"])), GEOMETRY_ARGS, SEED_ARGS)),
    "SceneSpec": (data.SceneSpec, (
        _maybe(st.integers(-2, 5000)), SEED_ARGS,
        _maybe(st.sampled_from([*data.VIEWS, "back"])), GEOMETRY_ARGS, SEED_ARGS)),
    "ClipRecord": (data.ClipRecord, tuple(map(_maybe, RECORD_FIELDS))),
    "DatasetManifest": (data.DatasetManifest, (
        st.one_of(RECORDS.map(tuple), RECORDS, JUNK), CLASS_ARGS, GEOMETRY_ARGS,
        st.just("unused"))),
    "TrainConfig": (train.TrainConfig, (
        _maybe(st.floats(1e-6, 1.0)), _maybe(st.floats(0.0, 1.0)),
        _maybe(st.integers(1, 64)), _maybe(st.integers(1, 50)), SEED_ARGS)),
    "normalize_weights": (ensemble.normalize_weights, (
        st.one_of(WEIGHTS, WEIGHTS.map(tuple), JUNK),)),
}


def _plain(value):
    """``value`` with numpy scalars as the Python values they equal, and lists
    and tuples as tuples of such."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_plain, value))
    return value.item() if isinstance(value, np.generic) else value


def _canonical(value) -> bool:
    """Whether ``value`` holds only Python ints, floats and strs, in tuples and
    dataclasses; a scene's motion, drawn from its seeds, holds arrays."""
    if isinstance(value, data.MotionParams):
        return True
    if dataclasses.is_dataclass(value):
        return all(_canonical(getattr(value, f.name)) for f in dataclasses.fields(value))
    if type(value) is tuple:
        return all(map(_canonical, value))
    return type(value) in (int, float, str)


def _comparable(built):
    """``built``, or for a SceneSpec, which compares by identity, its fields with
    its motion's arrays as lists."""
    if isinstance(built, data.SceneSpec):
        return ((built.gloss_id, built.signer_seed, built.view, built.geometry,
                 built.master_seed),
                [np.asarray(v).tolist() for v in dataclasses.astuple(built.motion)])
    return built


@LIBRARY
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@given(fuzz=st.data())
def test_constructor(name, fuzz):
    # construction only: nothing is rendered and no parameter is allocated
    build, strategies = CONSTRUCTORS[name]
    args = fuzz.draw(st.tuples(*strategies))
    try:
        built = build(*args)
    except CvislrError:
        return
    # what is accepted is stored as plain values, so that it hashes, and equal
    # arguments given as plain values build an equal value
    assert _canonical(built), built
    hash(built)
    assert _comparable(build(*map(_plain, args))) == _comparable(built)


#: Toy models at GEOMETRY and their tracked parameters; the layer test pairs any
#: config with any size's parameters, tracked or as the same values untracked.
TOY_CONFIGS = {size: vst.make_toy_config(size, CLASSES, geometry=GEOMETRY)
               for size in ("small", "base")}
TOY_PARAMS = {size: vst.init_params(cfg, seed=0) for size, cfg in TOY_CONFIGS.items()}


@LIBRARY
@given(fuzz=st.data())
def test_a_layer_returns_finite_values_or_refuses(fuzz):
    # grid extents and channels lie around those of the toy models' stages,
    # and stage and block indices one past each end of theirs; every example
    # holds at most a few MB
    cfg = TOY_CONFIGS[fuzz.draw(st.sampled_from(sorted(TOY_CONFIGS)))]
    params = TOY_PARAMS[fuzz.draw(st.sampled_from(sorted(TOY_PARAMS)))]
    if fuzz.draw(st.booleans()):
        params = {name: tensor.Tensor(p.data) for name, p in params.items()}
    layer = fuzz.draw(st.sampled_from(["embed", "block", "merge", "head", "forward"]))
    batch = fuzz.draw(st.integers(1, 2))
    if layer in ("embed", "forward"):
        extents = (batch, fuzz.draw(st.sampled_from([1, 2, 4])),
                   *fuzz.draw(st.tuples(*[st.sampled_from([4, 6, 16, 32])] * 2)), 3)
    else:
        extents = (batch, *fuzz.draw(st.tuples(*[st.integers(1, 8)] * 3)),
                   fuzz.draw(st.sampled_from([1, 5, 8, 12, 16, 24, 32, 64])))
    values = np.random.default_rng(fuzz.draw(st.integers(0, 3))).normal(size=extents)
    x = tensor.Tensor(values.astype(np.float32), requires_grad=fuzz.draw(st.booleans()))
    stage, block = fuzz.draw(st.integers(-1, 4)), fuzz.draw(st.integers(-1, 2))
    calls = {
        "embed": lambda: vst.patch_partition_embed(x, cfg, params),
        "block": lambda: vst.wmsa_block(x, params, cfg, fuzz.draw(st.booleans()), stage, block),
        "merge": lambda: vst.patch_merge(x, params, stage),
        "head": lambda: vst.head(x, params),
        "forward": lambda: vst.forward_batch(x, cfg, params),
    }
    try:
        out = calls[layer]()
    except CvislrError:
        return
    assert np.isfinite(out.data).all()


def test_a_config_built_from_lists_is_the_config(world):
    # equal configs must be one value: it hashes, trains the same bits on a
    # manifest of its geometry and comes back equal from a checkpoint
    want = vst.make_toy_config("small", CLASSES, geometry=GEOMETRY)
    cfg = dataclasses.replace(want, depths=[1, 1, 2, 1], input_geometry=list(GEOMETRY))
    assert cfg == want and hash(cfg) == hash(want)
    assert (cfg.depths, cfg.input_geometry) == (vst.TOY_DEPTHS, GEOMETRY)
    buf = io.BytesIO()
    vst.save_checkpoint(buf, cfg, vst.init_params(cfg, seed=0))
    buf.seek(0)
    assert vst.load_checkpoint(buf)[0] == cfg
    manifest = data.load_manifest(str(world["data"] / data.MANIFEST_NAME))
    trained = []
    for model_cfg in (cfg, want):
        params = vst.init_params(model_cfg, seed=0)
        train.train(model_cfg, params, manifest, train.TrainConfig(epochs=1))
        trained.append({k: p.data.tobytes() for k, p in params.items()})
    assert trained[0] == trained[1]


def test_a_float32_rate_is_stored_as_the_float_it_equals():
    # the AdamW decay factor 1 - lr * wd would otherwise be rounded in float32
    rate = np.float32(1e-3)
    configs = train.TrainConfig(learning_rate=rate), train.TrainConfig(learning_rate=float(rate))
    assert configs[0] == configs[1] and type(configs[0].learning_rate) is float
    cfg = vst.make_toy_config("small", CLASSES, geometry=GEOMETRY)
    rng = np.random.default_rng(0)
    grads = {k: rng.normal(size=shape) for k, shape in vst.param_spec(cfg).items()}
    updated = []
    for tc in configs:
        params = vst.init_params(cfg, seed=0)
        train.adamw_step(params, grads, train.AdamState.zeros(params), tc)
        updated.append({k: p.data.tobytes() for k, p in params.items()})
    assert updated[0] == updated[1]


@pytest.mark.parametrize("site", [
    lambda path: train.TrainConfig(learning_rate=10**400),
    lambda path: train.TrainConfig(weight_decay=10**400),
    lambda path: ensemble.normalize_weights([10**400, 1]),
    lambda path: train.save_loss_curve(path, [10**400]),
], ids=["learning_rate", "weight_decay", "normalize_weights", "save_loss_curve"])
def test_an_int_beyond_the_float_range_is_refused(tmp_path, site):
    # a real number, but float() of it overflows
    path = tmp_path / "curve.tsv"
    with pytest.raises(ContractError):
        site(str(path))
    assert not path.exists()


@pytest.mark.parametrize("site", [
    lambda: train.TrainConfig(learning_rate=10**5000),
    lambda: train.TrainConfig(seed=-10**5000),
    lambda: vst.make_toy_config("small", 10**5000),
    lambda: vst.VstConfig("small", 8, (1, 1, 10**5000), (1, 2, 4, 8), (2, 2, 2), 2, GEOMETRY),
    lambda: data.scene_spec(0, 0, "front", (2, 32, -10**5000)),
    lambda: data.ClipRecord("train", 10**5000, 0, "front", "r.tnsr", "d.tnsr"),
    lambda: ensemble.normalize_weights([1, 10**5000, None]),
], ids=["learning_rate", "seed", "num_classes", "depths", "geometry", "sample_id",
        "weights"])
def test_an_int_too_long_to_print_is_refused_by_its_size(site):
    # repr refuses an int of more than 4,300 digits, so the message shows its size
    with pytest.raises(CvislrError, match=r"<int of 16610 bits>"):
        site()


def test_a_refused_value_is_shown_bounded():
    assert shown([1, "a", None]) == repr([1, "a", None])
    assert len(shown("x" * 10**6)) < 100 and len(shown(list(range(10**6)))) < 100
    assert shown(-10**5000) == "<int of 16610 bits>"


def test_manifest_with_a_million_classes_cannot_be_built():
    # evaluate would ask numpy for a 7.28 TiB confusion matrix
    record = data.ClipRecord("val", "id0", 0, "left", "a.tnsr", "b.tnsr")
    with pytest.raises(ContractError, match="num_classes"):
        data.DatasetManifest((record,), 10**6, GEOMETRY, "unused")


@settings(LIBRARY, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.lists(RECORD_ARGS, max_size=4),
       num_classes=_half(st.integers(2, 4), CLASS_ARGS),
       geometry=_half(st.just(GEOMETRY), GEOMETRY_ARGS))
@example(fields=[("train", "g名", 1, "front", "./x/../é.tnsr", "...")], num_classes=2,
         geometry=[2, 32, 32])
@example(fields=[("train", "a\tb", 0, "front", "r", "d")], num_classes=2, geometry=GEOMETRY)
@example(fields=[], num_classes=10**6, geometry=GEOMETRY)
def test_manifest_writer_and_reader_agree(tmp_path, fields, num_classes, geometry):
    # each record, then the manifest of those built, is refused or comes back
    # equal; the file is rewritten for each example, so sharing tmp_path is safe
    records = []
    for f in fields:
        try:
            records.append(data.ClipRecord(*f))
        except CvislrError:
            pass
    try:
        manifest = data.DatasetManifest(tuple(records), num_classes, geometry, str(tmp_path))
    except CvislrError:
        return
    path = str(tmp_path / data.MANIFEST_NAME)
    data.save_manifest(manifest, path)
    back = data.load_manifest(path)
    assert (back.records, back.num_classes, back.geometry) == (
        manifest.records, manifest.num_classes, manifest.geometry)


# ---------------------------------------------------------------------------
# command line


def _run_cli(argv) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:
            rc = e.code
            assert rc == 2, err.getvalue()
    assert rc in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error:")


@CLI
@given(fuzz=st.data())
def test_cli_predict(world, fuzz):
    ckpt = _write(world["root"], "bad.vstc", _corrupt(fuzz, world, "vstc"))
    _run_cli(["predict", "--checkpoint", ckpt, "--data", str(world["data"]),
              "--out", str(world["root"] / "out.pred")])


@CLI
@given(fuzz=st.data())
def test_cli_ensemble(world, fuzz):
    bad = _write(world["root"], "bad.pred", _corrupt(fuzz, world, "pred"))
    good = str(world["pred"])
    _run_cli(["ensemble", "--inputs", bad, good, good,
              "--out", str(world["root"] / "fused.pred")])


@CLI
@given(fuzz=st.data())
def test_cli_evaluate(world, fuzz):
    bad = _write(world["root"], "bad.pred", _corrupt(fuzz, world, "pred"))
    _run_cli(["evaluate", "--pred", bad, "--data", str(world["data"]),
              "--out", str(world["root"] / "report.txt")])


@CLI
@given(fuzz=st.data())
def test_cli_train(world, fuzz):
    manifest = _write(world["data"], "bad.tsv", _corrupt(fuzz, world, "manifest"))
    modality = fuzz.draw(st.sampled_from(data.MODALITIES))
    _run_cli(["train", "--data", manifest, "--modality", modality, "--epochs", "1",
              "--out", str(world["root"] / "trained.vstc")])
