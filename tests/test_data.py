"""Synthetic dataset: trajectories, projection, rendering, manifests, splits."""

import hashlib
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from cvislr import data, vst
from cvislr.data import (
    MODALITIES,
    SPLIT_VIEWS,
    SPLITS,
    VIEWS,
    ClipRecord,
    DatasetManifest,
    MotionParams,
    SceneSpec,
    generate_dataset,
    load_clips,
    load_manifest,
    load_split,
    project,
    render_clip,
    save_manifest,
    scene_spec,
    trajectory,
)
from cvislr.errors import ContractError, FormatError, GeometryError
from cvislr.tensor import Tensor, read_tensor, write_tensor

GEOMETRY = (16, 32, 32)
NUM_CLASSES = 6
SIGNERS = 2
SEED = 11


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("clips")
    manifest = generate_dataset(NUM_CLASSES, SIGNERS, GEOMETRY, str(root),
                                seed=SEED)
    return manifest


# ---------------------------------------------------------------------------
# independent class-template oracle: re-derive the documented class motif and
# camera model from scratch, then classify clips by nearest template track


def motif_template(gloss, view, geometry):
    """Hand-1 image track (T, 2) in [0,1] uv for the unjittered class motif."""
    fx = 1 + gloss % 4
    fy = 1 + (gloss // 4) % 4
    fz = 1 + (gloss // 16) % 3
    base = 2.0 * math.pi * ((gloss * (math.sqrt(5) - 1) / 2) % 1.0)
    freq = np.array([fx, fy, fz])
    phase = np.array([base, base + math.pi / 2, base + math.pi / 4])
    tau = np.arange(geometry[0])[:, None] / geometry[0]
    amp = 0.24 * 0.925  # midpoint of the amplitude jitter range
    pos = amp * np.sin(2 * math.pi * freq * tau + phase)  # (T, 3)
    theta = {"front": 0.0, "left": math.pi / 4, "right": -math.pi / 4}[view]
    u = 0.5 + pos[:, 0] * math.cos(theta) + pos[:, 2] * math.sin(theta)
    v = 0.5 - pos[:, 1]
    return np.stack([u, v], axis=1)


def extract_hand1_track(rgb):
    """Centroid of the red-dominant blob per frame, as (T, 2) uv."""
    t, h, w, _ = rgb.shape
    weight = np.clip(rgb[..., 0] - rgb[..., 2], 0.0, None)  # isolates hand 1
    total = weight.sum(axis=(1, 2))
    cx = (weight.sum(axis=1) * np.arange(w)).sum(axis=1) / total
    cy = (weight.sum(axis=2) * np.arange(h)).sum(axis=1) / total
    return np.stack([cx / (w - 1), cy / (h - 1)], axis=1)


def classify_by_template(rgb, view, num_classes, geometry):
    track = extract_hand1_track(rgb)
    dists = [np.linalg.norm(track - motif_template(g, view, geometry))
             for g in range(num_classes)]
    return int(np.argmin(dists))


# ---------------------------------------------------------------------------
# motion and projection


class TestMotion:
    def test_spec_is_deterministic(self):
        a = scene_spec(3, 1, "front", GEOMETRY, master_seed=5)
        b = scene_spec(3, 1, "front", GEOMETRY, master_seed=5)
        for field in ("freq", "phase", "amp", "center", "mirror"):
            np.testing.assert_array_equal(getattr(a.motion, field),
                                          getattr(b.motion, field))
        assert a.motion.sigma == b.motion.sigma

    def test_signers_differ_classes_differ(self):
        base = scene_spec(3, 1, "front", GEOMETRY)
        other_signer = scene_spec(3, 2, "front", GEOMETRY)
        other_class = scene_spec(4, 1, "front", GEOMETRY)
        assert not np.array_equal(base.motion.phase, other_signer.motion.phase)
        assert not np.array_equal(base.motion.freq, other_class.motion.freq)

    def test_motion_ignores_view(self):
        front = scene_spec(2, 0, "front", GEOMETRY)
        left = scene_spec(2, 0, "left", GEOMETRY)
        np.testing.assert_array_equal(front.motion.phase, left.motion.phase)
        np.testing.assert_array_equal(front.motion.amp, left.motion.amp)

    def test_master_seed_changes_jitter(self):
        a = scene_spec(1, 0, "front", GEOMETRY, master_seed=0)
        b = scene_spec(1, 0, "front", GEOMETRY, master_seed=1)
        assert not np.array_equal(a.motion.phase, b.motion.phase)
        np.testing.assert_array_equal(a.motion.freq, b.motion.freq)

    def test_class_motifs_pairwise_distinct(self):
        freqs = [tuple(scene_spec(g, 0, "front", GEOMETRY).motion.freq.ravel())
                 for g in range(16)]
        assert len(set(freqs)) == 16

    def test_trajectory_shape_and_bounds(self):
        spec = scene_spec(5, 3, "front", GEOMETRY)
        pos = trajectory(spec)
        assert pos.shape == (GEOMETRY[0], 2, 3)
        bound = np.abs(spec.motion.amp) + np.abs(spec.motion.center)
        assert (np.abs(pos) <= bound[None] + 1e-12).all()

    def test_trajectory_frame_zero(self):
        spec = scene_spec(7, 2, "front", GEOMETRY)
        m = spec.motion
        want = m.amp * np.sin(m.phase) + m.center
        want[:, 0] *= m.mirror
        np.testing.assert_allclose(trajectory(spec)[0], want, atol=1e-12)

    def test_mirror_flips_x_only(self):
        m = MotionParams(freq=np.array([[2, 3, 1], [2, 3, 1]]),
                         phase=np.zeros((2, 3)) + 0.3,
                         amp=np.full((2, 3), 0.2),
                         center=np.zeros((2, 3)),
                         sigma=1.5, mirror=np.array([1.0, -1.0]))
        spec = SceneSpec(gloss_id=0, signer_seed=0, view="front",
                         geometry=GEOMETRY, motion=m)
        pos = trajectory(spec)
        np.testing.assert_allclose(pos[:, 0, 0], -pos[:, 1, 0], atol=1e-12)
        np.testing.assert_allclose(pos[:, 0, 1:], pos[:, 1, 1:], atol=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractError):
            scene_spec(-1, 0, "front", GEOMETRY)
        with pytest.raises(ContractError):
            scene_spec(0, 0, "overhead", GEOMETRY)
        with pytest.raises(ContractError):
            scene_spec(0, 0, "front", (16, 4, 4))
        # the (10**6,)*3 clip would need about 2e18 kernel values to render
        for args, error in [((0, 0, "front", (8, 32)), ContractError),
                            ((0, 0, "front", (8, "a", 32)), ContractError),
                            (("x", 0, "front", (8, 32, 32)), ContractError),
                            ((0, 0, "front", (10**6, 10**6, 10**6)), GeometryError),
                            ((10**400, 0, "front", (8, 32, 32)), ContractError),
                            ((0, 1.5, "front", (8, 32, 32)), ContractError),
                            ((0, 0, "front", (8, 32, 32), -1), ContractError)]:
            with pytest.raises(error):
                scene_spec(*args)
        # a spec built directly is checked too; (8, 10**6, 32) would need
        # about 4 GB to render
        motion = scene_spec(0, 0, "front", GEOMETRY).motion
        for geometry, error in [((8, 32), ContractError),
                                ((8, 10**6, 32), GeometryError),
                                ((8.5, 32, 32), ContractError)]:
            with pytest.raises(error):
                SceneSpec(0, 0, "front", geometry, motion)

    def test_spec_built_directly_checks_its_id_and_seed(self):
        # the rules scene_spec applies before seeding belong to SceneSpec
        motion = scene_spec(0, 0, "front", GEOMETRY).motion
        for gloss, signer in [("x", 0), (-1, 0), (10**400, 0), (0, -2), (0, 1.5),
                              (True, 0)]:
            with pytest.raises(ContractError):
                SceneSpec(gloss, signer, "front", GEOMETRY, motion)
        spec = SceneSpec(np.int64(3), np.uint8(2), "left", list(GEOMETRY), motion)
        assert (type(spec.gloss_id), type(spec.signer_seed)) == (int, int)
        assert (spec.gloss_id, spec.signer_seed, spec.geometry) == (3, 2, GEOMETRY)


    @pytest.mark.parametrize("motion", [None, "motion", {}])
    def test_spec_without_motion_refused(self, motion):
        # render_clip and trajectory would raise AttributeError on it
        with pytest.raises(ContractError, match="motion must be MotionParams.*scene_spec"):
            SceneSpec(0, 0, "front", (2, 8, 8), motion)


class TestProjection:
    def test_front_view_formulas(self):
        pts = np.array([[0.0, 0.0, 0.0], [0.2, -0.1, 0.05]])
        uv, prox = project(pts, "front")
        np.testing.assert_allclose(uv[0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(uv[1], [0.7, 0.6], atol=1e-15)
        assert abs(prox[0] - 0.55) < 1e-12
        assert prox[1] > prox[0]  # larger z sits closer to the front camera

    def test_rotation_preserves_horizontal_radius(self):
        pts = np.random.default_rng(0).uniform(-0.28, 0.28, size=(50, 3))
        for view in VIEWS:
            uv, prox = project(pts, view)
            xr = uv[:, 0] - 0.5
            z_max = 0.24 * math.sqrt(2.0) + 0.05
            zr = (prox - 0.55) / 0.4 * z_max
            np.testing.assert_allclose(xr**2 + zr**2,
                                       pts[:, 0]**2 + pts[:, 2]**2, atol=1e-12)

    def test_left_right_views_mirror_x(self):
        pts = np.array([[0.1, 0.0, 0.2]])
        uv_l, _ = project(pts, "left")
        uv_r, _ = project(np.array([[-0.1, 0.0, 0.2]]), "right")
        np.testing.assert_allclose(uv_l[0, 0] - 0.5, -(uv_r[0, 0] - 0.5),
                                   atol=1e-12)

    def test_vertical_axis_view_invariant(self):
        pts = np.random.default_rng(1).uniform(-0.28, 0.28, size=(20, 3))
        rows = [project(pts, view)[0][:, 1] for view in VIEWS]
        np.testing.assert_allclose(rows[0], rows[1], atol=1e-15)
        np.testing.assert_allclose(rows[0], rows[2], atol=1e-15)

    def test_proximity_in_unit_interval(self):
        pts = np.random.default_rng(2).uniform(-0.28, 0.28, size=(100, 3))
        for view in VIEWS:
            _, prox = project(pts, view)
            assert (prox > 0).all() and (prox < 1).all()

    def test_unknown_view(self):
        with pytest.raises(ContractError):
            project(np.zeros((1, 3)), "top")


# ---------------------------------------------------------------------------
# rendering


class TestRender:
    def test_extents_and_range(self):
        spec = scene_spec(0, 0, "front", GEOMETRY)
        rgb, depth = render_clip(spec)
        assert rgb.shape == (*GEOMETRY, 3)
        assert depth.shape == (*GEOMETRY, 3)
        for clip in (rgb, depth):
            assert np.isfinite(clip.data).all()
            assert clip.data.min() >= 0.0 and clip.data.max() <= 1.0

    def test_render_deterministic(self):
        spec = scene_spec(2, 4, "left", GEOMETRY)
        a, _ = render_clip(spec)
        b, _ = render_clip(spec)
        np.testing.assert_array_equal(a.data, b.data)

    def test_per_frame_rgb_energy_constant_across_views(self):
        # blob mass is renormalized after border truncation, so every frame
        # of every view carries total RGB energy mass * sum(colors) = 12
        for gloss, signer in [(0, 0), (3, 1), (5, 2)]:
            sums = []
            for view in VIEWS:
                spec = scene_spec(gloss, signer, view, GEOMETRY)
                rgb, _ = render_clip(spec)
                sums.append(rgb.data.sum(axis=(1, 2, 3)))
            np.testing.assert_allclose(sums[0], sums[1], atol=1e-9)
            np.testing.assert_allclose(sums[0], sums[2], atol=1e-9)
            np.testing.assert_allclose(sums[0], 12.0, atol=1e-9)

    def test_depth_channels_identical(self):
        spec = scene_spec(1, 1, "right", GEOMETRY)
        _, depth = render_clip(spec)
        np.testing.assert_array_equal(depth.data[..., 0], depth.data[..., 1])
        np.testing.assert_array_equal(depth.data[..., 0], depth.data[..., 2])

    def test_depth_differs_from_rgb(self):
        spec = scene_spec(1, 1, "front", GEOMETRY)
        rgb, depth = render_clip(spec)
        assert np.abs(rgb.data - depth.data).max() > 0.01

    @pytest.mark.parametrize("geometry", [(8, 32, 32), (4, 32, 48)], ids=["square", "wide"])
    @pytest.mark.parametrize("view", VIEWS)
    def test_bit_identical_to_the_reference_expression(self, geometry, view):
        # render_clip works in place; this is its out-of-place expression
        for gloss, signer in [(0, 0), (5, 3)]:
            spec = scene_spec(gloss, signer, view, geometry, master_seed=4)
            rgb, depth = render_clip(spec)
            want_rgb, want_depth = reference_render(spec)
            assert rgb.data.tobytes() == want_rgb.tobytes()
            assert depth.data.tobytes() == want_depth.tobytes()

    def test_rendered_centroid_tracks_projection(self):
        for view in VIEWS:
            spec = scene_spec(4, 1, view, GEOMETRY)
            rgb, _ = render_clip(spec)
            track = extract_hand1_track(rgb.data)  # (T, 2) uv
            uv, _ = project(trajectory(spec), view)
            want = uv[:, 0, :]  # hand 1
            err = np.linalg.norm(track - want, axis=1) * (GEOMETRY[2] - 1)
            assert np.median(err) < 0.5  # pixels
            assert err.max() < 3.0


def reference_render(spec):
    """Out-of-place render: one fresh array per step, each clipped at the end."""
    t_frames, height, width = spec.geometry
    uv, prox = project(trajectory(spec), spec.view)
    px = uv[..., 0] * (width - 1)
    py = uv[..., 1] * (height - 1)
    sigma = spec.motion.sigma * (width / 32.0)
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    d2 = ((yy[None, None] - py[..., None, None]) ** 2
          + (xx[None, None] - px[..., None, None]) ** 2)
    kernel = np.exp(-d2 / (2.0 * sigma * sigma))
    mass = kernel.sum(axis=(2, 3), keepdims=True)
    splat = kernel * (data._BLOB_MASS / mass)
    rgb = np.einsum("thyx,hc->tyxc", splat, data._HAND_COLORS)
    depth_map = np.einsum("thyx,th->tyx", splat, prox)
    depth = np.repeat(depth_map[..., None], 3, axis=-1)
    return np.clip(rgb, 0.0, 1.0), np.clip(depth, 0.0, 1.0)


def serial_reference(classes, signers_per_class, geometry, out_dir, seed):
    """generate_dataset as one loop: scene_spec, render_clip and write_tensor
    in record order, then the manifest."""
    records = []
    for split_index, split in enumerate(SPLITS):
        os.makedirs(os.path.join(out_dir, split))
        for gloss in range(classes):
            for signer_index in range(signers_per_class):
                signer = split_index * signers_per_class + signer_index
                for view in SPLIT_VIEWS[split]:
                    rgb, depth = render_clip(scene_spec(gloss, signer, view, geometry, seed))
                    sample_id = f"g{gloss:03d}_s{signer:03d}_{view}"
                    paths = []
                    for kind, clip in (("rgb", rgb), ("depth", depth)):
                        paths.append(f"{split}/{sample_id}_{kind}.tnsr")
                        write_tensor(os.path.join(out_dir, paths[-1]), clip)
                    records.append(ClipRecord(split, sample_id, gloss, view, *paths))
    save_manifest(DatasetManifest(tuple(records), classes, geometry, out_dir),
                  os.path.join(out_dir, data.MANIFEST_NAME))


def tree_bytes(root):
    """Every file under ``root`` by its relative path, with its bytes."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as f:
                files[os.path.relpath(path, root)] = f.read()
    return files


# ---------------------------------------------------------------------------
# generation, manifest, loading


class TestGenerate:
    def test_record_counts_and_views(self, dataset):
        per = {s: dataset.split(s) for s in SPLITS}
        n = NUM_CLASSES * SIGNERS
        assert len(per["train"]) == n
        assert len(per["val"]) == n
        assert len(per["test"]) == 2 * n
        for split, recs in per.items():
            assert {r.view for r in recs} == set(SPLIT_VIEWS[split])

    def test_signer_ranges_disjoint(self, dataset):
        def signers(split):
            return {int(r.sample_id.split("_")[1][1:]) for r in dataset.split(split)}

        s = SIGNERS
        assert signers("train") == set(range(0, s))
        assert signers("val") == set(range(s, 2 * s))
        assert signers("test") == set(range(2 * s, 3 * s))

    def test_every_class_in_every_split(self, dataset):
        for split in SPLITS:
            assert {r.gloss_id for r in dataset.split(split)} == set(
                range(NUM_CLASSES))

    def test_files_exist_and_load(self, dataset):
        rec = dataset.split("test")[0]
        rgb = read_tensor(os.path.join(dataset.root, rec.rgb_path))
        depth = read_tensor(os.path.join(dataset.root, rec.depth_path))
        assert rgb.shape == (*GEOMETRY, 3)
        assert depth.shape == (*GEOMETRY, 3)

    def test_sample_ids_unique(self, dataset):
        ids = [r.sample_id for r in dataset.records]
        assert len(ids) == len(set(ids))

    def test_regeneration_identical(self, dataset, tmp_path):
        again = generate_dataset(NUM_CLASSES, SIGNERS, GEOMETRY,
                                 str(tmp_path / "again"), seed=SEED)

        def digest(root, rel):
            with open(os.path.join(root, rel), "rb") as f:
                return hashlib.sha256(f.read()).hexdigest()

        for rec, rec2 in zip(dataset.records[::7], again.records[::7]):
            assert rec.sample_id == rec2.sample_id
            assert digest(dataset.root, rec.rgb_path) == digest(
                again.root, rec2.rgb_path)
        m1 = open(os.path.join(dataset.root, data.MANIFEST_NAME), "rb").read()
        m2 = open(os.path.join(again.root, data.MANIFEST_NAME), "rb").read()
        assert m1 == m2

    @pytest.mark.parametrize("one_cpu", [False, True], ids=["usable_cpus", "one_cpu"])
    def test_files_match_the_serial_reference(self, tmp_path, monkeypatch, one_cpu):
        if one_cpu:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        geometry = (4, 16, 24)
        manifest = generate_dataset(3, 2, geometry, str(tmp_path / "pool"), seed=5)
        serial_reference(3, 2, geometry, str(tmp_path / "serial"), seed=5)
        got, want = tree_bytes(tmp_path / "pool"), tree_bytes(tmp_path / "serial")
        assert len(got) == 2 * len(manifest.records) + 1
        assert got == want

    def test_unwritable_clip_raises_and_writes_no_manifest(self, tmp_path):
        out = tmp_path / "d"
        (out / "val" / "g001_s001_left_depth.tnsr").mkdir(parents=True)
        with pytest.raises(OSError, match=re.escape(f"writing clip under {str(out)!r}")):
            generate_dataset(2, 1, (2, 16, 16), str(out))
        assert not (out / data.MANIFEST_NAME).exists()

    def test_different_seed_changes_clips(self, tmp_path):
        m = generate_dataset(2, 1, (4, 16, 16), str(tmp_path / "a"), seed=0)
        n = generate_dataset(2, 1, (4, 16, 16), str(tmp_path / "b"), seed=1)
        a = open(os.path.join(m.root, m.records[0].rgb_path), "rb").read()
        b = open(os.path.join(n.root, n.records[0].rgb_path), "rb").read()
        assert a != b

    def test_rejects_degenerate_requests(self, tmp_path):
        with pytest.raises(ContractError):
            generate_dataset(1, 2, GEOMETRY, str(tmp_path / "x"))
        with pytest.raises(ContractError):
            generate_dataset(4, 0, GEOMETRY, str(tmp_path / "y"))

    def test_negative_seed_rejected_before_writing(self, tmp_path):
        out = tmp_path / "d"
        with pytest.raises(ContractError, match="seed"):
            generate_dataset(2, 1, GEOMETRY, str(out), seed=-1)
        assert not out.exists()

    def test_non_integer_seed_rejected_before_writing(self, tmp_path):
        out = tmp_path / "d"
        with pytest.raises(ContractError, match="seed"):
            generate_dataset(2, 1, GEOMETRY, str(out), seed=1.5)
        assert not out.exists()

    @pytest.mark.parametrize("classes, signers, geometry", [
        (2.5, 1, GEOMETRY), ("2", 1, GEOMETRY), (2, 1.5, GEOMETRY), (2, True, GEOMETRY),
        (2, 1, (2.0, 32, 32)), (2, 1, (2, 32)),
    ], ids=["float_classes", "text_classes", "float_signers", "bool_signers",
            "float_extent", "two_extents"])
    def test_non_integer_counts_rejected_before_writing(self, tmp_path, classes,
                                                        signers, geometry):
        out = tmp_path / "d"
        with pytest.raises(ContractError):
            generate_dataset(classes, signers, geometry, str(out))
        assert not out.exists()

    def test_class_count_beyond_the_cap_rejected_before_writing(self, tmp_path):
        out = tmp_path / "d"
        with pytest.raises(ContractError, match=r"\[2, 4096\]"):
            generate_dataset(vst.MAX_CLASSES + 1, 1, GEOMETRY, str(out))
        assert not out.exists()

    @pytest.mark.parametrize("geometry", [(512, 512, 512), (32, 224, 232), (0, 32, 32)],
                             ids=["huge", "wide", "empty"])
    def test_geometry_beyond_the_paper_clip_rejected_before_writing(self, tmp_path, geometry):
        out = tmp_path / "d"
        with pytest.raises(GeometryError, match=r"\(32, 224, 224\)"):
            generate_dataset(2, 1, geometry, str(out))
        assert not out.exists()

    def test_clip_count_beyond_the_cap_rejected_before_writing(self, tmp_path):
        # 10**8 signers would build 8 * 10**8 records before rendering any
        assert data.MAX_CLIPS == 2**16
        out = tmp_path / "d"
        for classes, signers in [(2, 10**8), (vst.MAX_CLASSES, 5), (2, 8193)]:
            with pytest.raises(ContractError, match=f"signers_per_class={signers} .*65536"):
                generate_dataset(classes, signers, GEOMETRY, str(out))
        assert not out.exists()

    def test_too_small_to_render_rejected_before_writing(self, tmp_path):
        out = tmp_path / "d"
        with pytest.raises(ContractError, match=r"\(2, 4, 4\) too small to render"):
            generate_dataset(2, 1, (2, 4, 4), str(out))
        assert not out.exists()

    def test_cross_view_class_recovery(self, dataset):
        # the acid test of the protocol: an oracle classifier built from the
        # class motifs alone must label every val/test clip correctly even
        # though those views were never "trained on"
        total = correct = 0
        for split in ("val", "test"):
            for rec in dataset.split(split):
                rgb = read_tensor(os.path.join(dataset.root, rec.rgb_path))
                got = classify_by_template(rgb.data, rec.view, NUM_CLASSES,
                                           GEOMETRY)
                correct += int(got == rec.gloss_id)
                total += 1
        assert total == 3 * NUM_CLASSES * SIGNERS
        assert correct == total


class TestManifest:
    def test_round_trip(self, dataset, tmp_path):
        path = str(tmp_path / "m.tsv")
        save_manifest(dataset, path)
        loaded = load_manifest(path)
        assert loaded.num_classes == dataset.num_classes
        assert loaded.geometry == dataset.geometry
        assert loaded.records == dataset.records
        assert loaded.root == str(tmp_path)

    def test_load_from_generated_directory(self, dataset):
        loaded = load_manifest(os.path.join(dataset.root, data.MANIFEST_NAME))
        assert loaded.records == dataset.records
        assert loaded.root == dataset.root

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("train\tid0\t0\tfront\ta.tnsr\tb.tnsr\n")
        with pytest.raises(FormatError, match="num_classes"):
            load_manifest(str(p))

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n"
                     "train\tid0\t0\tfront\ta.tnsr\n")
        with pytest.raises(FormatError, match="bad.tsv:3"):
            load_manifest(str(p))

    def test_unknown_split_and_view(self, tmp_path):
        head = "# num_classes=2\n# geometry=4,16,16\n"
        p = tmp_path / "bad.tsv"
        p.write_text(head + "dev\tid0\t0\tfront\ta.tnsr\tb.tnsr\n")
        with pytest.raises(FormatError, match="split"):
            load_manifest(str(p))
        p.write_text(head + "train\tid0\t0\tback\ta.tnsr\tb.tnsr\n")
        with pytest.raises(FormatError, match="view"):
            load_manifest(str(p))

    def test_duplicate_sample_id(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n"
                     "train\tid0\t0\tfront\ta.tnsr\tb.tnsr\n"
                     "val\tid0\t1\tleft\tc.tnsr\td.tnsr\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_manifest(str(p))

    def test_gloss_out_of_range(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n"
                     "train\tid0\t5\tfront\ta.tnsr\tb.tnsr\n")
        with pytest.raises(FormatError, match="gloss"):
            load_manifest(str(p))

    def test_record_gloss_id_follows_the_scene_rule(self):
        # one gloss id rule for a record and the scene it was rendered from
        motion = scene_spec(0, 0, "front", GEOMETRY).motion
        for gloss in (-1, vst.MAX_CLASSES, 10**6, "+1", True):
            for build in (lambda: ClipRecord("train", "a", gloss, "front", "a.tnsr", "b.tnsr"),
                          lambda: SceneSpec(gloss, 0, "front", GEOMETRY, motion)):
                with pytest.raises(ContractError, match=re.escape(
                        f"gloss_id must be an integer in [0, {vst.MAX_CLASSES - 1}]")):
                    build()
        assert ClipRecord("train", "a", np.int64(vst.MAX_CLASSES - 1), "front", "a.tnsr",
                          "b.tnsr").gloss_id == vst.MAX_CLASSES - 1

    @pytest.mark.parametrize("text,message", [
        (b"# num_classes=2\n# geometry=4,16,16\n"
         b"train\tid\xff\t0\tfront\ta.tnsr\tb.tnsr\n", "not valid UTF-8"),
        (b"# num_classes=abc\n# geometry=4,16,16\n", "bad.tsv:1: bad header line"),
        (b"# num_classes=2\n# geometry=4,x,16\n", "bad.tsv:2: bad header line"),
        (b"# num_classes=-5\n# geometry=4,16,16\n", "bad.tsv:1: bad header line"),
        (b"# num_classes=1\n# geometry=4,16,16\n", "bad.tsv:1: bad header line"),
        (b"# num_classes=4097\n# geometry=4,16,16\n", r"bad.tsv:1: .*\[2, 4096\]"),
        (b"# num_classes=2\n# geometry=0,0,0\n", "bad.tsv:2: bad header line"),
        (b"# num_classes=2\n# geometry=4,16\n", "bad.tsv:2: bad header line"),
        (b"# num_classes=2\n# geometry=2000,4000,4000\n", r"bad.tsv:2: .*\(32, 224, 224\)"),
        # a concatenated manifest must not load as its last header's values
        (b"# num_classes=2\n# geometry=4,32,32\n# num_classes=3\n",
         "bad.tsv:3: repeated header line"),
        (b"# num_classes=2\n# geometry=4,32,32\n# geometry=2,32,32\n",
         "bad.tsv:3: repeated header line"),
        # records: ClipRecord's refusals, named by line
        (b"# num_classes=2\n# geometry=4,16,16\ntrain\tid0\t+1\tfront\ta.tnsr\tb.tnsr\n",
         "bad.tsv:3: gloss_id must be an integer in \\[0, 4095\\], got '\\+1'"),
        (b"# num_classes=2\n# geometry=4,16,16\ntrain\tid\x000\t0\tfront\ta.tnsr\tb.tnsr\n",
         "bad.tsv:3: sample id .* NUL byte"),
    ], ids=["non_utf8", "num_classes", "geometry", "negative_classes", "one_class",
            "classes_beyond_cap", "empty_geometry", "two_extents", "geometry_beyond_paper_clip",
            "repeated_num_classes", "repeated_geometry", "signed_gloss_id", "nul_in_sample_id"])
    def test_malformed_text_rejected(self, tmp_path, text, message):
        p = tmp_path / "bad.tsv"
        p.write_bytes(text)
        with pytest.raises(FormatError, match=message):
            load_manifest(str(p))

    @pytest.mark.parametrize("clip_path", ["../../../etc/passwd", "train/../../x.tnsr",
                                           "/etc/passwd"])
    def test_clip_path_outside_directory_rejected(self, tmp_path, clip_path):
        p = tmp_path / "bad.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n"
                     f"train\tid0\t0\tfront\ta.tnsr\t{clip_path}\n")
        with pytest.raises(FormatError, match="bad.tsv:3: clip path .* not inside"):
            load_manifest(str(p))

    def test_clip_path_with_nul_byte_rejected(self, tmp_path):
        # open() would raise a bare ValueError on it
        p = tmp_path / "bad.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n"
                     "train\tid0\t0\tfront\ta.tnsr\tb\0.tnsr\n")
        with pytest.raises(FormatError, match="bad.tsv:3: clip path .* NUL byte"):
            load_manifest(str(p))

    def test_blank_lines_tolerated(self, tmp_path):
        p = tmp_path / "ok.tsv"
        p.write_text("# num_classes=2\n# geometry=4,16,16\n\n"
                     "train\tid0\t1\tfront\ta.tnsr\tb.tnsr\n\n")
        assert len(load_manifest(str(p)).records) == 1

    def test_split_accessor_validates(self, dataset):
        with pytest.raises(ContractError):
            dataset.split("dev")


class TestLoadSplit:
    def test_stacks_clips_and_labels(self, dataset):
        clips, labels, ids = load_split(dataset, "train", "rgb")
        n = NUM_CLASSES * SIGNERS
        assert clips.shape == (n, *GEOMETRY, 3)
        assert labels.shape == (n,)
        assert len(ids) == n
        recs = dataset.split("train")
        assert ids == [r.sample_id for r in recs]
        np.testing.assert_array_equal(labels, [r.gloss_id for r in recs])

    def test_clips_stay_float32_and_widen_exactly(self, dataset):
        # the stack holds the stored float32 payload; widening it gives
        # read_tensor's float64 clip bit for bit
        for split in SPLITS:
            for modality in MODALITIES:
                clips, _, _ = load_split(dataset, split, modality)
                assert clips.dtype == np.float32
                widened = Tensor(clips).data
                for i, rec in enumerate(dataset.split(split)):
                    rel = rec.rgb_path if modality == "rgb" else rec.depth_path
                    clip = read_tensor(os.path.join(dataset.root, rel)).data
                    assert np.array_equal(widened[i], clip)

    def test_load_clips_takes_any_records_in_order(self, dataset):
        recs = dataset.split("test")[::-3]
        clips, labels, ids = load_clips(dataset, recs, "depth")
        whole, whole_labels, whole_ids = load_split(dataset, "test", "depth")
        rows = [whole_ids.index(r.sample_id) for r in recs]
        assert ids == [r.sample_id for r in recs]
        assert np.array_equal(clips, whole[rows])
        assert np.array_equal(labels, whole_labels[rows])

    @pytest.mark.parametrize("records, modality, match", [
        ((), "rgb", "empty"), (None, "flow", "modality")], ids=["empty", "modality"])
    def test_load_clips_checks_arguments_before_any_read(self, tmp_path, records,
                                                         modality, match):
        manifest = DatasetManifest(
            records=(ClipRecord("train", "id0", 0, "front", "none", "none"),),
            num_classes=2, geometry=(4, 16, 16), root=str(tmp_path))
        with pytest.raises(ContractError, match=match):
            load_clips(manifest, manifest.records if records is None else records,
                       modality)

    def test_modalities_differ(self, dataset):
        rgb, _, _ = load_split(dataset, "val", "rgb")
        depth, _, _ = load_split(dataset, "val", "depth")
        assert np.abs(rgb - depth).max() > 0.01

    def test_unknown_modality(self, dataset):
        with pytest.raises(ContractError):
            load_split(dataset, "train", "flow")

    def test_empty_split_rejected(self, tmp_path):
        manifest = DatasetManifest(
            records=(ClipRecord("train", "id0", 0, "front", "a", "b"),),
            num_classes=2, geometry=(4, 16, 16), root=str(tmp_path))
        with pytest.raises(ContractError, match="empty"):
            load_split(manifest, "val", "rgb")

    def test_header_geometry_beyond_the_clips_rejected_cheaply(self, tmp_path):
        # 2x32x32 clips under a header claiming the paper's 32x224x224: the
        # stack would need 38.5 MB, so the first clip must be checked before
        # it is allocated
        generate_dataset(2, 1, (2, 32, 32), str(tmp_path), seed=0)
        path = tmp_path / data.MANIFEST_NAME
        text = path.read_text(encoding="utf-8")
        assert "# geometry=2,32,32\n" in text
        path.write_text(text.replace("# geometry=2,32,32\n",
                                     "# geometry=32,224,224\n"), encoding="utf-8")
        manifest = load_manifest(str(path))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="do not match manifest geometry"):
                load_split(manifest, "train", "rgb")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_missing_clip_is_format_error(self, tmp_path):
        manifest = generate_dataset(2, 1, (2, 32, 32), str(tmp_path), seed=0)
        os.remove(tmp_path / manifest.split("val")[1].depth_path)
        with pytest.raises(FormatError, match="cannot be read"):
            load_split(manifest, "val", "depth")

    def test_load_clip_validates_rank(self, tmp_path):
        write_tensor(str(tmp_path / "flat.tnsr"), Tensor(np.zeros((4, 4))))
        manifest = DatasetManifest(
            records=(ClipRecord("train", "id0", 0, "front", "flat.tnsr", "b"),),
            num_classes=2, geometry=(4, 16, 16), root=str(tmp_path))
        with pytest.raises(FormatError, match="flat.tnsr: clip extents"):
            load_clips(manifest, manifest.records, "rgb")
