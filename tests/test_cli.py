"""Command-line interface: subcommands, exit codes, echoes, plumbing."""

import hashlib
import os
import resource
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cvislr
from cvislr import vst
from cvislr.cli import build_parser, main
from cvislr.data import MANIFEST_NAME, load_manifest
from cvislr.ensemble import PROBABILITIES, PredictionSet, read_predictions, write_predictions
from cvislr.tensor import write_tensor

GEOMETRY = "4x32x32"
CLASSES = 3
SIGNERS = 1


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    rc = main(["gen-data", "--classes", str(CLASSES), "--signers",
               str(SIGNERS), "--geometry", GEOMETRY, "--seed", "9",
               "--out", str(out)])
    assert rc == 0
    return str(out)


@pytest.fixture(scope="module")
def checkpoint(dataset_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "small_rgb.vstc"
    rc = main(["train", "--data", dataset_dir, "--out", str(path),
               "--size", "small", "--modality", "rgb", "--epochs", "2",
               "--seed", "0"])
    assert rc == 0
    return str(path)


def sha(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class TestGenData:
    def test_counts_and_manifest(self, dataset_dir, capsys):
        manifest = load_manifest(os.path.join(dataset_dir, MANIFEST_NAME))
        n = CLASSES * SIGNERS
        assert len(manifest.split("train")) == n
        assert len(manifest.split("val")) == n
        assert len(manifest.split("test")) == 2 * n
        assert manifest.geometry == (4, 32, 32)

    def test_echoes_config_and_counts(self, tmp_path, capsys):
        out = tmp_path / "echo"
        rc = main(["gen-data", "--classes", "2", "--signers", "1",
                   "--geometry", "4x32x32", "--seed", "1", "--out", str(out)])
        captured = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert captured[0] == "command: gen-data"
        assert "config classes=2" in captured
        assert "config seed=1" in captured
        assert "config geometry=(4, 32, 32)" in captured
        assert "train: 2 clips" in captured
        assert "test: 4 clips" in captured

    def test_rerun_is_bit_identical(self, dataset_dir, tmp_path):
        again = tmp_path / "again"
        rc = main(["gen-data", "--classes", str(CLASSES), "--signers",
                   str(SIGNERS), "--geometry", GEOMETRY, "--seed", "9",
                   "--out", str(again)])
        assert rc == 0
        assert sha(os.path.join(dataset_dir, MANIFEST_NAME)) == sha(
            os.path.join(again, MANIFEST_NAME))
        manifest = load_manifest(os.path.join(dataset_dir, MANIFEST_NAME))
        rec = manifest.split("test")[1]
        assert sha(os.path.join(dataset_dir, rec.rgb_path)) == sha(
            os.path.join(again, rec.rgb_path))

    def test_bad_geometry_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["gen-data", "--geometry", "4by32", "--out", str(tmp_path)])
        assert e.value.code == 2

    def test_geometry_beyond_paper_clip_rejected(self, tmp_path):
        # a 40000x40000 frame would need a 191 GiB render buffer
        out = tmp_path / "data"
        proc = _run_from_source(["-m", "cvislr", "gen-data", "--geometry",
                                 "8x40000x40000", "--out", str(out)],
                                preexec_fn=_cap_memory)
        assert proc.returncode == 2, proc.stderr
        assert "--geometry" in proc.stderr and "(32, 224, 224)" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        rc = main(["gen-data", "--classes", "2", "--signers", "1",
                   "--geometry", "4x32x32", "--out", str(blocker / "sub")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestTrain:
    def test_checkpoint_written_and_loadable(self, checkpoint):
        cfg, params = vst.load_checkpoint(checkpoint)
        assert cfg.size == "small"
        assert cfg.embed_dim == 8  # toy arch is the default
        assert cfg.num_classes == CLASSES
        assert cfg.input_geometry == (4, 32, 32)
        assert set(params) == set(vst.param_spec(cfg))

    def test_prints_model_line_and_epochs(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.vstc"
        rc = main(["train", "--data", dataset_dir, "--out", str(out),
                   "--epochs", "2", "--seed", "3"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert any(line.startswith("model: size=small C=8") for line in lines)
        assert any(line.startswith("epoch 1/2") for line in lines)
        assert any(line.startswith("epoch 2/2") for line in lines)
        assert f"checkpoint: {out}" in lines

    def test_loss_curve_written(self, dataset_dir, tmp_path):
        from cvislr.train import load_loss_curve

        out = tmp_path / "m.vstc"
        curve_path = tmp_path / "loss.tsv"
        rc = main(["train", "--data", dataset_dir, "--out", str(out),
                   "--epochs", "3", "--loss-curve", str(curve_path)])
        assert rc == 0
        assert len(load_loss_curve(str(curve_path))) == 3

    def test_full_arch_size_maps_channels(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "base_full.vstc"
        rc = main(["train", "--data", dataset_dir, "--out", str(out),
                   "--arch", "full", "--size", "base",
                   "--depths", "1,1,1,1", "--window", "2,2,2",
                   "--epochs", "1", "--modality", "depth"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "model: size=base C=128 depths=(1, 1, 1, 1) " \
               "heads=(4, 8, 16, 32) window=(2, 2, 2)" in stdout
        cfg, _ = vst.load_checkpoint(str(out))
        assert cfg.embed_dim == 128
        assert cfg.depths == (1, 1, 1, 1)
        assert cfg.heads == (4, 8, 16, 32)

    def test_training_deterministic_checkpoints(self, dataset_dir, tmp_path):
        outs = []
        for name in ("a.vstc", "b.vstc"):
            out = tmp_path / name
            rc = main(["train", "--data", dataset_dir, "--out", str(out),
                       "--epochs", "2", "--seed", "4"])
            assert rc == 0
            outs.append(sha(str(out)))
        assert outs[0] == outs[1]

    def test_manifest_geometry_beyond_the_clips_fails_closed(self, dataset_dir,
                                                             tmp_path, capsys):
        data_dir = tmp_path / "data"
        shutil.copytree(dataset_dir, data_dir)
        path = data_dir / MANIFEST_NAME
        text = path.read_text(encoding="utf-8")
        assert "# geometry=4,32,32\n" in text
        path.write_text(text.replace("# geometry=4,32,32\n",
                                     "# geometry=2000,4000,4000\n"), encoding="utf-8")
        rc = main(["train", "--data", str(data_dir), "--out",
                   str(tmp_path / "x.vstc"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "manifest geometry" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.vstc").exists()

    def test_bad_depths_arity(self, dataset_dir, tmp_path, capsys):
        rc = main(["train", "--data", dataset_dir, "--out",
                   str(tmp_path / "x.vstc"), "--depths", "1,1"])
        assert rc == 1
        assert "--depths" in capsys.readouterr().err

    def test_depths_beyond_paper_rejected(self, dataset_dir, tmp_path):
        # 100000 stage-3 blocks would build parameters until memory runs out
        out = tmp_path / "x.vstc"
        proc = _run_from_source(["-m", "cvislr", "train", "--data", dataset_dir,
                                 "--out", str(out), "--depths", "1,1,100000,1"],
                                preexec_fn=_cap_memory)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "--depths" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_inflated_class_count_rejected(self, dataset_dir, tmp_path):
        # a billion-class head would ask init_params for hundreds of GiB
        data_dir = tmp_path / "data"
        shutil.copytree(dataset_dir, data_dir)
        path = data_dir / MANIFEST_NAME
        text = path.read_text(encoding="utf-8")
        assert f"# num_classes={CLASSES}\n" in text
        path.write_text(text.replace(f"# num_classes={CLASSES}\n",
                                     "# num_classes=1000000000\n"), encoding="utf-8")
        out = tmp_path / "x.vstc"
        proc = _run_from_source(["-m", "cvislr", "train", "--data", str(data_dir),
                                 "--out", str(out), "--epochs", "1"],
                                preexec_fn=_cap_memory)
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr and "num_classes=1000000000" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--epochs", "0"),
                                            ("--epochs", "-3"), ("--batch-size", "two")])
    def test_bad_counts_are_usage_errors(self, dataset_dir, tmp_path,
                                                  flag, value):
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", dataset_dir, "--out",
                  str(tmp_path / "x.vstc"), flag, value])
        assert e.value.code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.001", "fast"])
    def test_bad_learning_rate_is_usage_error(self, dataset_dir, tmp_path, value):
        out = tmp_path / "x.vstc"
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", dataset_dir, "--out", str(out), f"--lr={value}"])
        assert e.value.code == 2
        assert not out.exists()

    def test_missing_data_dir(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope"), "--out",
                   str(tmp_path / "x.vstc")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("old,new,message", [
        (b"# cvislr", b"# \xffcvislr", "not valid UTF-8"),
        (b"num_classes=3", b"num_classes=abc", "bad header line"),
        (b"geometry=4,32,32", b"geometry=4,x,16", "bad header line"),
        (b"\ttrain/g000_s000_front_rgb.tnsr", b"\t../../../etc/passwd", "not inside"),
    ], ids=["non_utf8", "num_classes", "geometry", "escaping_path"])
    def test_malformed_manifest_is_runtime_error(self, dataset_dir, tmp_path, capsys,
                                                 old, new, message):
        text = Path(dataset_dir, MANIFEST_NAME).read_bytes()
        assert old in text
        bad = tmp_path / MANIFEST_NAME
        bad.write_bytes(text.replace(old, new, 1))
        out = tmp_path / "x.vstc"
        rc = main(["train", "--data", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()


class TestPredict:
    def test_writes_pred_file(self, dataset_dir, checkpoint, tmp_path, capsys):
        out = tmp_path / "test.pred"
        rc = main(["predict", "--checkpoint", checkpoint, "--data",
                   dataset_dir, "--split", "test", "--out", str(out)])
        assert rc == 0
        assert f"predictions: {out} (6 samples, 3 classes)" in \
            capsys.readouterr().out
        pset = read_predictions(str(out))
        assert pset.num_samples == 2 * CLASSES * SIGNERS
        assert pset.num_classes == CLASSES
        manifest = load_manifest(os.path.join(dataset_dir, MANIFEST_NAME))
        assert pset.sample_ids == tuple(r.sample_id
                                        for r in manifest.split("test"))

    def test_rerun_bit_identical(self, dataset_dir, checkpoint, tmp_path):
        paths = []
        for name in ("one.pred", "two.pred"):
            out = tmp_path / name
            rc = main(["predict", "--checkpoint", checkpoint, "--data",
                       dataset_dir, "--split", "val", "--out", str(out)])
            assert rc == 0
            paths.append(sha(str(out)))
        assert len(set(paths)) == 1

    def test_jobs_is_usage_error(self, dataset_dir, checkpoint, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["predict", "--checkpoint", checkpoint, "--data", dataset_dir,
                  "--jobs", "2", "--out", str(tmp_path / "x.pred")])
        assert e.value.code == 2
        assert not (tmp_path / "x.pred").exists()

    def test_non_utf8_checkpoint_header_is_runtime_error(self, dataset_dir, checkpoint,
                                                         tmp_path, capsys):
        bad = tmp_path / "bad.vstc"
        bad.write_bytes(Path(checkpoint).read_bytes().replace(b"size=", b"\xffize=", 1))
        rc = main(["predict", "--checkpoint", str(bad), "--data", dataset_dir,
                   "--out", str(tmp_path / "x.pred")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: checkpoint header is not valid UTF-8")

    def test_unknown_checkpoint_param_is_runtime_error(self, dataset_dir, checkpoint,
                                                       tmp_path, capsys):
        extra = tmp_path / "extra.tnsr"
        write_tensor(str(extra), np.ones(3))
        bad = tmp_path / "junk.vstc"
        bad.write_bytes(Path(checkpoint).read_bytes() + struct.pack("<I", 10)
                        + b"junk.param" + extra.read_bytes())
        rc = main(["predict", "--checkpoint", str(bad), "--data", dataset_dir,
                   "--out", str(tmp_path / "x.pred")])
        assert rc == 1
        assert "junk.param" in capsys.readouterr().err
        assert not (tmp_path / "x.pred").exists()

    def test_missing_checkpoint(self, dataset_dir, tmp_path, capsys):
        rc = main(["predict", "--checkpoint", str(tmp_path / "nope.vstc"),
                   "--data", dataset_dir, "--out", str(tmp_path / "x.pred")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_batch_size_is_usage_error(self, dataset_dir, checkpoint,
                                                    tmp_path, value):
        with pytest.raises(SystemExit) as e:
            main(["predict", "--checkpoint", checkpoint, "--data", dataset_dir,
                  "--batch-size", value, "--out", str(tmp_path / "x.pred")])
        assert e.value.code == 2
        assert not (tmp_path / "x.pred").exists()

    def test_bad_split_is_usage_error(self, dataset_dir, checkpoint, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["predict", "--checkpoint", checkpoint, "--data", dataset_dir,
                  "--split", "dev", "--out", str(tmp_path / "x.pred")])
        assert e.value.code == 2


@pytest.fixture(scope="module")
def pred_file(dataset_dir, checkpoint, tmp_path_factory):
    out = tmp_path_factory.mktemp("preds") / "val.pred"
    rc = main(["predict", "--checkpoint", checkpoint, "--data", dataset_dir,
               "--split", "val", "--out", str(out)])
    assert rc == 0
    return str(out)


class TestEnsemble:
    def test_three_inputs_default_weights(self, pred_file, tmp_path, capsys):
        out = tmp_path / "fused.pred"
        rc = main(["ensemble", "--inputs", pred_file, pred_file, pred_file,
                   "--out", str(out)])
        assert rc == 0
        assert "(weights (0.4, 0.4, 0.2))" in capsys.readouterr().out
        fused = read_predictions(str(out))
        assert fused.score_kind == PROBABILITIES
        # identical inputs with convex weights: fusion == the softmax of one
        single = read_predictions(pred_file).as_probabilities()
        np.testing.assert_allclose(fused.scores, single.scores, atol=1e-6)

    def test_two_inputs_default_uniform(self, pred_file, tmp_path, capsys):
        out = tmp_path / "fused.pred"
        rc = main(["ensemble", "--inputs", pred_file, pred_file,
                   "--out", str(out)])
        assert rc == 0
        assert "(weights (0.5, 0.5))" in capsys.readouterr().out

    def test_explicit_weights(self, pred_file, tmp_path, capsys):
        out = tmp_path / "fused.pred"
        rc = main(["ensemble", "--inputs", pred_file, pred_file,
                   "--weights", "3,1", "--out", str(out)])
        assert rc == 0
        assert "(weights (0.75, 0.25))" in capsys.readouterr().out

    def test_modality_fusion(self, pred_file, tmp_path, capsys):
        out = tmp_path / "rgbd.pred"
        rc = main(["ensemble", "--rgb", pred_file, "--depth", pred_file,
                   "--out", str(out)])
        assert rc == 0
        assert "(weights (0.65, 0.35))" in capsys.readouterr().out
        assert read_predictions(str(out)).score_kind == PROBABILITIES

    def test_modality_weight_override(self, pred_file, tmp_path, capsys):
        out = tmp_path / "rgbd.pred"
        rc = main(["ensemble", "--rgb", pred_file, "--depth", pred_file,
                   "--weights", "1,1", "--out", str(out)])
        assert rc == 0
        assert "(weights (0.5, 0.5))" in capsys.readouterr().out

    def test_modality_weights_select_one_input(self, pred_file, tmp_path, capsys):
        rgb = read_predictions(pred_file)
        other = tmp_path / "other.pred"
        scores = np.random.default_rng(3).normal(size=rgb.scores.shape)
        write_predictions(str(other), PredictionSet(rgb.sample_ids, scores,
                                                    labels=rgb.labels))
        out = tmp_path / "rgbd.pred"
        rc = main(["ensemble", "--rgb", pred_file, "--depth", str(other),
                   "--weights", "1,0", "--out", str(out)])
        assert rc == 0
        assert "(weights (1.0, 0.0))" in capsys.readouterr().out
        want = rgb.as_probabilities().scores.astype(np.float32)
        np.testing.assert_array_equal(read_predictions(str(out)).scores, want)

    def test_non_finite_weight_named(self, pred_file, tmp_path, capsys):
        rc = main(["ensemble", "--inputs", pred_file, pred_file,
                   "--weights", "nan,1", "--out", str(tmp_path / "x.pred")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "weights" in err and "nan" in err
        assert not (tmp_path / "x.pred").exists()

    def test_help_names_one_weights_flag(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["ensemble", "--help"])
        assert e.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "--weights" in text and "--modality-weights" not in text
        assert "0.4,0.4,0.2" in text and "0.65,0.35" in text

    def test_conflicting_modes(self, pred_file, tmp_path, capsys):
        rc = main(["ensemble", "--inputs", pred_file, "--rgb", pred_file,
                   "--depth", pred_file, "--out", str(tmp_path / "x.pred")])
        assert rc == 1
        assert "not both" in capsys.readouterr().err

    def test_missing_everything(self, tmp_path, capsys):
        rc = main(["ensemble", "--out", str(tmp_path / "x.pred")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestEvaluate:
    def test_report_to_stdout(self, dataset_dir, pred_file, capsys):
        rc = main(["evaluate", "--pred", pred_file, "--data", dataset_dir,
                   "--split", "val"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "overall_acc: " in out
        assert "view\tcorrect\ttotal\tacc" in out
        assert "confusion (rows true, cols predicted):" in out

    def test_report_to_file(self, dataset_dir, pred_file, tmp_path, capsys):
        path = tmp_path / "report.txt"
        rc = main(["evaluate", "--pred", pred_file, "--data", dataset_dir,
                   "--split", "val", "--out", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"report: {path}" in out
        text = path.read_text()
        assert text.startswith("overall_acc: ")

    def test_non_utf8_sample_id_is_runtime_error(self, dataset_dir, pred_file,
                                                 tmp_path, capsys):
        blob = Path(pred_file).read_bytes()
        assert b"g000_" in blob
        bad = tmp_path / "bad.pred"
        bad.write_bytes(blob.replace(b"g000_", b"\xff000_", 1))
        rc = main(["evaluate", "--pred", str(bad), "--data", dataset_dir,
                   "--split", "val"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: sample record 0 (id) is not valid UTF-8")

    def test_wrong_split_mismatch(self, dataset_dir, pred_file, capsys):
        rc = main(["evaluate", "--pred", pred_file, "--data", dataset_dir,
                   "--split", "test"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main([])
        assert e.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for name in ("gen-data", "train", "predict", "ensemble", "evaluate"):
            assert name in text

    def test_console_script_installed(self):
        # The script an installer generates from [project.scripts] imports
        # the target and exits with its return value; run exactly that from
        # source, and the installed script too where one is on PATH.
        scripts = _console_scripts()
        assert "cvislr" in scripts
        module, func = scripts["cvislr"].split(":")
        wrapper = (f"import sys; from {module} import {func}; "
                   f"sys.exit({func}())")
        _assert_help(_run_from_source(["-c", wrapper, "--help"]))
        exe = shutil.which("cvislr")
        if exe is not None:
            _assert_help(subprocess.run([exe, "--help"], capture_output=True,
                                        text=True))

    def test_module_runs(self):
        for module in ("cvislr", "cvislr.cli"):
            _assert_help(_run_from_source(["-m", module, "--help"]))
        proc = _run_from_source(["-m", "cvislr", "frobnicate"])
        assert proc.returncode == 2, proc.stderr


_SRC = Path(cvislr.__file__).resolve().parents[1]


def _console_scripts() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(_SRC.parent / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"]


def _cap_memory() -> None:
    # a 3 GiB address-space cap turns a missing size bound into a failure,
    # not a machine-wide memory hog
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def _run_from_source(args, **kwargs) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(_SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, **kwargs)


def _assert_help(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    assert "gen-data" in proc.stdout, proc.stderr
    assert proc.stderr == ""
