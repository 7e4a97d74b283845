"""Fuzzed readers and constructors: bad input either works or fails with a CvislrError.

Every file input starts from a valid TNSR clip, VSTC checkpoint, PRED file
or dataset manifest and is truncated, has one bit flipped, or is spliced
onto the tail of another valid file.  The library readers must succeed or
raise a ``CvislrError``; the command line must return 0 or 1 (or exit 2) and
never print a traceback.  The model configs and render specs are built from
arguments of the wrong type or out of range, and must likewise be built or
raise a ``CvislrError``.  A prediction set holding what the PRED format
cannot store must raise a ``CvislrError`` before its writer touches a file.
Examples are derandomized, so every run tests the same inputs.
"""

import contextlib
import io
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cvislr import data, ensemble, train, vst
from cvislr.cli import main
from cvislr.errors import CvislrError
from cvislr.tensor import read_tensor

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


@LIBRARY
@given(fuzz=st.data())
def test_read_tensor(world, fuzz):
    blob = _corrupt(fuzz, world, "tnsr")
    _allowed(read_tensor, _write(world["root"], "clip.tnsr", blob))


@LIBRARY
@given(fuzz=st.data())
def test_load_checkpoint(world, fuzz):
    blob = _corrupt(fuzz, world, "vstc")
    _allowed(vst.load_checkpoint, _write(world["root"], "bad.vstc", blob))


@LIBRARY
@given(fuzz=st.data())
def test_read_predictions(world, fuzz):
    blob = _corrupt(fuzz, world, "pred")
    _allowed(ensemble.read_predictions, _write(world["root"], "bad.pred", blob))


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
# library constructors

#: A value of the wrong type, or an integer far out of range, for any argument.
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 2**70), st.floats(),
                 st.text(max_size=3), st.integers(-3, 300).map(np.int64))


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
CONSTRUCTORS = {
    "VstConfig": lambda draw: vst.VstConfig(
        size=draw(SIZE_ARGS), embed_dim=draw(_maybe(st.sampled_from([8, 12, 96]))),
        depths=draw(_extents(4, st.integers(-1, 20))),
        heads=draw(_extents(4, st.sampled_from([1, 2, 3, 4, 8]))),
        window=draw(_extents(3, st.integers(-1, 60))),
        num_classes=draw(CLASS_ARGS), input_geometry=draw(GEOMETRY_ARGS)),
    "make_config": lambda draw: vst.make_config(draw(SIZE_ARGS), draw(CLASS_ARGS),
                                                draw(GEOMETRY_ARGS)),
    "make_toy_config": lambda draw: vst.make_toy_config(draw(SIZE_ARGS), draw(CLASS_ARGS),
                                                        draw(GEOMETRY_ARGS)),
    "scene_spec": lambda draw: data.scene_spec(
        draw(_maybe(st.integers(-2, 5000))), draw(SEED_ARGS),
        draw(_maybe(st.sampled_from([*data.VIEWS, "back"]))), draw(GEOMETRY_ARGS),
        draw(SEED_ARGS)),
}


@LIBRARY
@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
@given(fuzz=st.data())
def test_constructor(name, fuzz):
    # construction only: nothing is rendered and no parameter is allocated
    _allowed(CONSTRUCTORS[name], fuzz.draw)


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
