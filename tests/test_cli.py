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
from cvislr.train import TrainConfig

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

    def test_clip_count_beyond_the_cap_rejected(self, tmp_path):
        # 10**8 signers per class would build 8 * 10**8 records first
        out = tmp_path / "data"
        proc = _run_from_source(["-m", "cvislr", "gen-data", "--classes", "2",
                                 "--signers", "100000000", "--out", str(out)],
                                preexec_fn=_cap_memory, timeout=120)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "signers_per_class" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("geometry", ["3x32x32", "4x40x40"])
    def test_geometry_no_model_can_embed_rejected(self, tmp_path, geometry):
        # 3 frames do not tile into 2-frame patches; 40 pixels give a 10x10
        # token grid, which the second patch merge cannot halve
        out = tmp_path / "data"
        proc = _run_from_source(["-m", "cvislr", "gen-data", "--classes", "2",
                                 "--signers", "1", "--geometry", geometry,
                                 "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert "--geometry" in proc.stderr and geometry in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("geometry", ["2x32x32", "4x32x32", "8x32x32", "8x64x64",
                                          "16x64x64", "32x224x224"])
    def test_geometries_in_use_accepted(self, geometry):
        args = build_parser().parse_args(["gen-data", "--geometry", geometry,
                                          "--out", "unused"])
        assert args.geometry == tuple(int(g) for g in geometry.split("x"))

    def test_negative_seed_rejected(self, tmp_path):
        out = tmp_path / "data"
        proc = _run_from_source(["-m", "cvislr", "gen-data", "--seed", "-1",
                                 "--classes", "2", "--signers", "1",
                                 "--geometry", "2x32x32", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
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

    def test_loss_curve_written(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "m.vstc"
        curve_path = tmp_path / "loss.tsv"
        rc = main(["train", "--data", dataset_dir, "--out", str(out),
                   "--epochs", "3", "--loss-curve", str(curve_path)])
        assert rc == 0
        # one "epoch<TAB>loss" line per epoch, matching the epoch log lines
        rows = [line.split("\t") for line in
                curve_path.read_text(encoding="utf-8").splitlines()]
        assert [int(epoch) for epoch, _ in rows] == [1, 2, 3]
        logged = [line.split("mean_loss ")[1] for line in capsys.readouterr().out.splitlines()
                  if line.startswith("epoch ")]
        assert [f"{float(loss):.6f}" for _, loss in rows] == logged

    def test_full_arch_size_maps_channels(self, dataset_dir, tmp_path, capsys, monkeypatch):
        # the full base preset has 24 blocks: stop at init_params, before any
        # parameter is allocated, and check the config train built
        built = []

        class Stop(Exception):
            pass

        def init_params(cfg, seed):
            built.append(cfg)
            raise Stop

        monkeypatch.setattr(vst, "init_params", init_params)
        with pytest.raises(Stop):
            main(["train", "--data", dataset_dir, "--out", str(tmp_path / "base_full.vstc"),
                  "--arch", "full", "--size", "base", "--modality", "depth"])
        manifest = load_manifest(os.path.join(dataset_dir, MANIFEST_NAME))
        assert built == [vst.make_config("base", CLASSES, geometry=manifest.geometry)]
        assert "model: size=base C=128 depths=(2, 2, 18, 2) " \
               "heads=(4, 8, 16, 32) window=(8, 7, 7)" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [("--depths", "1,1,1,1"), ("--window", "2,2,2")])
    def test_the_layout_is_the_presets_alone(self, dataset_dir, tmp_path, flag, value, capsys):
        # --arch and --size pick a preset; no flag edits its depths or window
        with pytest.raises(SystemExit) as e:
            main(["train", "--help"])
        assert e.value.code == 0
        assert "--arch" in (help_text := capsys.readouterr().out)
        assert flag not in help_text
        out = tmp_path / "x.vstc"
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", dataset_dir, "--out", str(out), flag, value])
        assert e.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

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
                                     "# geometry=32,224,224\n"), encoding="utf-8")
        rc = main(["train", "--data", str(data_dir), "--out",
                   str(tmp_path / "x.vstc"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:") and "manifest geometry" in err
        assert "Traceback" not in err
        assert not (tmp_path / "x.vstc").exists()

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

    def test_library_class_cap_holds_without_a_manifest(self):
        # the same billion-class head built from the library, with no manifest
        # to cap it: the config must refuse it before init_params allocates
        proc = _run_from_source(["-c", "from cvislr import vst; "
                                 "vst.init_params(vst.make_toy_config('small', 10**9))"],
                                preexec_fn=_cap_memory)
        assert proc.returncode == 1
        last = proc.stderr.strip().splitlines()[-1]
        assert last.startswith("cvislr.errors.ContractError: num_classes"), proc.stderr

    @pytest.mark.parametrize("flag,value", [("--batch-size", "0"), ("--epochs", "0"),
                                            ("--epochs", "-3"), ("--batch-size", "two"),
                                            ("--weight-decay", "-1"), ("--classes", "1"),
                                            ("--signers", "0")])
    def test_bad_counts_are_usage_errors(self, dataset_dir, tmp_path,
                                                  flag, value, capsys):
        # --classes and --signers are gen-data's flags, the others train's
        out = tmp_path / "out"
        command = (["gen-data"] if flag in ("--classes", "--signers")
                   else ["train", "--data", dataset_dir])
        with pytest.raises(SystemExit) as e:
            main([*command, "--out", str(out), flag, value])
        assert e.value.code == 2
        assert f"argument {flag}: '{value}'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, dataset_dir, tmp_path):
        out = tmp_path / "x.vstc"
        proc = _run_from_source(["-m", "cvislr", "train", "--data", dataset_dir,
                                 "--out", str(out), "--epochs", "1", "--seed", "-1"])
        assert proc.returncode == 2, proc.stderr
        assert "--seed" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-0.001", "fast",
                                       "1e400"])
    def test_bad_learning_rate_is_usage_error(self, dataset_dir, tmp_path, value, capsys):
        out = tmp_path / "x.vstc"
        with pytest.raises(SystemExit) as e:
            main(["train", "--data", dataset_dir, "--out", str(out), f"--lr={value}"])
        assert e.value.code == 2
        assert f"argument --lr: '{value}'" in capsys.readouterr().err
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

    def test_train_split_missing_a_class_is_runtime_error(self, dataset_dir, tmp_path,
                                                         capsys):
        lines = Path(dataset_dir, MANIFEST_NAME).read_text(encoding="utf-8").splitlines(True)
        # drop the train clips of class 2: fields are split, sample id, class, ...
        kept = [line for line in lines
                if not (line.startswith("train\t") and line.split("\t")[2] == "2")]
        assert len(kept) < len(lines)
        bad = tmp_path / MANIFEST_NAME
        bad.write_text("".join(kept), encoding="utf-8")
        out = tmp_path / "x.vstc"
        rc = main(["train", "--data", str(bad), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: num_classes={CLASSES}, but the train split covers "
                              f"{CLASSES - 1} classes")
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_bad_clip_in_last_batch_is_runtime_error(self, dataset_dir, tmp_path, capsys,
                                                     damage):
        # 3 train clips at batch 2: the clip shuffled last is read by the last step
        data_dir = tmp_path / "data"
        shutil.copytree(dataset_dir, data_dir)
        manifest = load_manifest(str(data_dir / MANIFEST_NAME))
        last = np.random.Generator(np.random.Philox(0)).permutation(CLASSES * SIGNERS)[-1]
        rel = manifest.split("train")[last].rgb_path
        if damage == "missing":
            (data_dir / rel).unlink()
        else:
            with open(data_dir / rel, "r+b") as f:
                f.write(b"JUNK")
        out = tmp_path / "x.vstc"
        rc = main(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1",
                   "--batch-size", "2", "--seed", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and rel in err and "Traceback" not in err
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
                                                    tmp_path, value, capsys):
        with pytest.raises(SystemExit) as e:
            main(["predict", "--checkpoint", checkpoint, "--data", dataset_dir,
                  "--batch-size", value, "--out", str(tmp_path / "x.pred")])
        assert e.value.code == 2
        assert f"argument --batch-size: '{value}'" in capsys.readouterr().err
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

    def test_inflated_class_count_rejected(self, tmp_path):
        # a million classes would ask evaluate for a 7.28 TiB confusion matrix
        (tmp_path / MANIFEST_NAME).write_text(
            "# num_classes=1000000\n# geometry=4,32,32\n"
            "val\tid0\t0\tleft\ta.tnsr\tb.tnsr\n", encoding="utf-8")
        pred = tmp_path / "one.pred"
        write_predictions(str(pred), PredictionSet(("id0",), np.zeros((1, 10**6))))
        proc = _run_from_source(["-m", "cvislr", "evaluate", "--pred", str(pred),
                                 "--data", str(tmp_path), "--split", "val"],
                                preexec_fn=_cap_memory)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error:") and "num_classes=1000000" in proc.stderr
        assert "Traceback" not in proc.stderr

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

    def test_train_defaults_are_the_library_recipe(self):
        args = build_parser().parse_args(["train", "--data", "d", "--out", "m.vstc"])
        recipe = TrainConfig()
        assert (args.lr, args.weight_decay, args.batch_size, args.epochs, args.seed) == \
            (recipe.learning_rate, recipe.weight_decay, recipe.batch_size,
             recipe.epochs, recipe.seed)

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
