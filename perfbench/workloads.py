"""The three benchmark workloads.

Each workload is a closed loop in one process: ``setup`` builds its inputs
from the seed, ``iteration`` runs the workload through the package's public
entry points, and ``traced_iteration`` runs the same program again from its
pieces with a span around every call.  Package calls sit in spans directly
under the iteration span; the benchmark's own checks and probes sit in
``bench.*`` spans and are not timed.  Every iteration checks its outputs and
counts the operations (steps, clips, files) it attempted and that failed.
"""

from __future__ import annotations

import hashlib
import io
import os
import shutil

import numpy as np

import probes
from cvislr import data, ensemble, train, vst
from cvislr.tensor import Tensor, backward, read_tensor, write_tensor

SIZES = ("large", "base", "small")


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return _sha(f.read())


def _frozen(params):
    """Parameters as untracked tensors over the same arrays, as ``train.predict`` uses."""
    return {k: Tensor(p.data) for k, p in params.items()}


def _two_stage(sets):
    """Default-weight fusion of sizes within each modality, then of rgb and depth."""
    fused = {m: ensemble.single_modal_ensemble([sets[(s, m)] for s in SIZES],
                                               ensemble.DEFAULT_SIZE_WEIGHTS)
             for m in data.MODALITIES}
    final = ensemble.multimodal_ensemble(fused["rgb"], fused["depth"],
                                         ensemble.DEFAULT_MODALITY_WEIGHTS)
    return fused, final


def _pred_bytes(pset) -> bytes:
    buf = io.BytesIO()
    ensemble.write_predictions(buf, pset)
    return buf.getvalue()


def _ckpt_bytes(cfg, params) -> bytes:
    buf = io.BytesIO()
    vst.save_checkpoint(buf, cfg, params)
    return buf.getvalue()


class Workload:
    name = ""
    setup_reps = 3

    def __init__(self, seed: int, work_dir: str) -> None:
        self.seed = seed
        self.data_dir = os.path.join(work_dir, "data")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, float] = {}   # exact or shape-computed per-layer values
        self.reference: dict[str, str] = {}  # digests every later iteration must repeat

    def check(self, ok: bool, ops: int, what: str) -> None:
        if not ok:
            self.failed += ops
            self.problems.append(what)

    def check_digests(self, digests: dict[str, str]) -> None:
        """First call records the digests; later calls must reproduce them."""
        if not self.reference:
            self.reference = dict(digests)
            return
        for key, digest in digests.items():
            self.check(self.reference.get(key) == digest, 1,
                       f"{key} differs from the first iteration")


# ---------------------------------------------------------------------------


class CrossviewToy(Workload):
    """Train 3 sizes x 2 modalities on the front view, fuse, evaluate left/right."""

    name = "crossview-toy"
    setup_reps = 5

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir)
        if tiny:
            self.classes, self.signers, self.geometry, epochs = 2, 1, (2, 32, 32), 1
            self.setup_reps = 1
        else:
            self.classes, self.signers, self.geometry, epochs = 8, 6, (8, 32, 32), 2
        self.tc = train.TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=8,
                                    seed=seed)

    def config(self, size):
        return vst.make_toy_config(size, self.classes, geometry=self.geometry)

    def setup(self, tr):
        probes.clear_caches()
        shutil.rmtree(self.data_dir, ignore_errors=True)
        with tr.span("data.generate_dataset"):
            self.manifest = data.generate_dataset(self.classes, self.signers, self.geometry,
                                                  self.data_dir, seed=self.seed)
        with tr.span("vst.cold_forward"):
            cfg = self.config("large")
            params = vst.init_params(cfg, seed=self.seed)
            clips, _, _ = data.load_split(self.manifest, "train", "rgb")
            vst.forward_batch(Tensor(clips[:self.tc.batch_size]), cfg, params)
        self.n_train = len(self.manifest.split("train"))
        self.n_test = len(self.manifest.split("test"))

    def steps_per_model(self):
        return self.tc.epochs * -(-self.n_train // self.tc.batch_size)

    # -- untraced: the package's own entry points ----------------------------
    def iteration(self, tr):
        sets, artifacts, losses = {}, {}, []
        for modality in data.MODALITIES:
            for size in SIZES:
                cfg = self.config(size)
                with tr.span("train.train"):
                    params = vst.init_params(cfg, seed=self.seed)
                    losses += train.train(cfg, params, self.manifest, self.tc, modality)
                with tr.span("vst.save_checkpoint"):
                    artifacts[f"{size}_{modality}.vstc"] = _ckpt_bytes(cfg, params)
                with tr.span("train.predict"):
                    sets[(size, modality)] = train.predict(cfg, params, self.manifest, "test",
                                                           modality, batch_size=self.tc.batch_size)
        self._fuse_and_check(tr, sets, artifacts, losses)

    # -- traced: the same program composed from its pieces ---------------------
    def traced_iteration(self, tr):
        sets, artifacts, losses = {}, {}, []
        for modality in data.MODALITIES:
            for size in SIZES:
                cfg = self.config(size)
                params = self._replay_train(tr, cfg, modality, losses)
                with tr.span("vst.save_checkpoint"):
                    artifacts[f"{size}_{modality}.vstc"] = _ckpt_bytes(cfg, params)
                sets[(size, modality)] = self._composed_predict(tr, cfg, params, modality)
        self._fuse_and_check(tr, sets, artifacts, losses)
        if "vst.forward_peak_mb" not in self.counts:
            with tr.span("bench.probe"):
                cfg = self.config("large")
                clips, _, _ = data.load_split(self.manifest, "test", "rgb")
                params = _frozen(vst.init_params(cfg, self.seed))
                self.counts["vst.forward_peak_mb"] = probes.forward_peak_mb(
                    Tensor(clips[:self.tc.batch_size]), cfg, params)
                pad, masked = probes.window_shares(cfg)
                self.counts["vst.pad_token_share"] = pad
                self.counts["vst.masked_pair_share"] = masked

    def _replay_train(self, tr, cfg, modality, losses):
        """``train.train``'s loop, step by step: same seeds, shuffles and update order."""
        tc = self.tc
        with tr.span("vst.init_params"):
            params = vst.init_params(cfg, seed=self.seed)
        with tr.span("data.load_split"):
            clips, labels, _ = data.load_split(self.manifest, "train", modality)
        state = train.AdamState.zeros(params)
        shuffle_rng = np.random.Generator(np.random.Philox(tc.seed))
        n = clips.shape[0]
        for _ in range(tc.epochs):
            order = shuffle_rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, tc.batch_size):
                idx = order[start:start + tc.batch_size]
                with tr.span("train.step"):
                    with tr.span("vst.forward_batch"):
                        logits = vst.forward_batch(Tensor(clips[idx]), cfg, params)
                    with tr.span("train.cross_entropy"):
                        loss = train.cross_entropy(logits, labels[idx])
                    with tr.span("tensor.backward"):
                        grad_map = backward(loss)
                    grads = {name: grad_map[p] for name, p in params.items() if p in grad_map}
                    with tr.span("train.adamw_step"):
                        train.adamw_step(params, grads, state, tc)
                if "tensor.tape_nodes_per_step" not in self.counts:
                    with tr.span("bench.probe"):
                        nodes, copies, mb = probes.tape_counts(loss)
                    self.counts["tensor.tape_nodes_per_step"] = nodes
                    self.counts["tensor.copy_nodes_per_step"] = copies
                    self.counts["tensor.copy_mb_per_step"] = mb
                epoch_loss += loss.item() * len(idx)
            losses.append(epoch_loss / n)
        return params

    def _composed_predict(self, tr, cfg, params, modality):
        """``train.predict`` with the forward pass built from ``vst``'s pieces."""
        with tr.span("data.load_split"):
            clips, labels, ids = data.load_split(self.manifest, "test", modality)
        frozen = _frozen(params)
        chunks = []
        for start in range(0, clips.shape[0], self.tc.batch_size):
            with tr.span("vst.forward"):
                batch = Tensor(clips[start:start + self.tc.batch_size])
                chunks.append(probes.composed_forward(batch, cfg, frozen, tr).data)
        return ensemble.PredictionSet(sample_ids=tuple(ids), scores=np.concatenate(chunks),
                                      score_kind=ensemble.LOGITS, labels=labels,
                                      provenance=f"{cfg.size}-{modality}")

    def _fuse_and_check(self, tr, sets, artifacts, losses):
        with tr.span("ensemble.fuse"):
            fused, final = _two_stage(sets)
        for (size, modality), pset in sets.items():
            with tr.span("ensemble.write_predictions"):
                artifacts[f"{size}_{modality}.pred"] = _pred_bytes(pset)
        for key, pset in [*fused.items(), ("rgbd", final)]:
            with tr.span("ensemble.write_predictions"):
                artifacts[f"fused_{key}.pred"] = _pred_bytes(pset)
        with tr.span("train.evaluate"):
            report = train.evaluate(final, self.manifest, "test")
            artifacts["report.txt"] = train.format_report(report).encode()

        with tr.span("bench.check"):
            models = len(sets)
            self.attempted += (models * self.steps_per_model() + models * self.n_test
                               + len(artifacts))
            self.check(all(np.isfinite(losses)), models * self.steps_per_model(),
                       "non-finite training loss")
            for key, pset in sets.items():
                self.check(bool(np.isfinite(pset.scores).all()), pset.num_samples,
                           f"non-finite logits from {key}")
            self.check(probes.fusion_mismatches(sets, final, report, self.manifest) == 0,
                       1, "fused report disagrees with its recomputation")
            digests = {k: _sha(v) for k, v in artifacts.items()}
            digests.update({f"{s}_{m}.logits": _sha(p.scores.tobytes())
                            for (s, m), p in sets.items()})
            self.check_digests(digests)
        self.counts["ensemble.fused_top1"] = report.accuracy
        self.counts["ensemble.fused_top1_left"] = report.view_accuracy("left")
        self.counts["ensemble.fused_top1_right"] = report.view_accuracy("right")

    def summary(self, coarse, iterations):
        models = len(SIZES) * len(data.MODALITIES)
        return {
            "train_clips_per_s": (models * self.n_train * self.tc.epochs * iterations
                                  / coarse.total("train.train"), "1/s"),
            "predict_clips_per_s": (models * self.n_test * iterations
                                    / coarse.total("train.predict"), "1/s"),
            "fused_top1": (self.counts["ensemble.fused_top1"], "share"),
            "fused_top1_left": (self.counts["ensemble.fused_top1_left"], "share"),
            "fused_top1_right": (self.counts["ensemble.fused_top1_right"], "share"),
        }


# ---------------------------------------------------------------------------


class InferFull(Workload):
    """``train.predict`` at batch 1 with a full-scale small model (no tape)."""

    name = "infer-full"

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir)
        # 2 classes x 1 signer gives 4 test clips (left + right views).
        self.geometry = (2, 32, 32) if tiny else (16, 64, 64)
        if tiny:
            self.setup_reps = 1

    def setup(self, tr):
        probes.clear_caches()
        self.params = None  # drop the previous repetition's model first
        shutil.rmtree(self.data_dir, ignore_errors=True)
        with tr.span("data.generate_dataset"):
            self.manifest = data.generate_dataset(2, 1, self.geometry, self.data_dir,
                                                  seed=self.seed)
        with tr.span("vst.init_params"):
            self.cfg = vst.make_config("small", 2, geometry=self.geometry)
            self.params = vst.init_params(self.cfg, seed=self.seed)
        with tr.span("vst.cold_forward"):
            clips, _, _ = data.load_split(self.manifest, "test", "rgb")
            vst.forward_batch(Tensor(clips[:1]), self.cfg, _frozen(self.params))
        self.n_test = len(self.manifest.split("test"))

    def iteration(self, tr):
        with tr.span("train.predict"):
            pset = train.predict(self.cfg, self.params, self.manifest, "test", "rgb",
                                 batch_size=1)
        with tr.span("bench.check"):
            self._check(pset.scores)

    def traced_iteration(self, tr):
        with tr.span("data.load_split"):
            clips, _, _ = data.load_split(self.manifest, "test", "rgb")
        frozen = _frozen(self.params)
        rows = []
        for i in range(clips.shape[0]):
            with tr.span("vst.forward"):
                rows.append(probes.composed_forward(Tensor(clips[i:i + 1]), self.cfg,
                                                    frozen, tr).data)
        with tr.span("bench.check"):
            self._check(np.concatenate(rows))
        if "vst.forward_peak_mb" not in self.counts:
            with tr.span("bench.probe"):
                self.counts["vst.forward_peak_mb"] = probes.forward_peak_mb(
                    Tensor(clips[:1]), self.cfg, frozen)
                pad, masked = probes.window_shares(self.cfg)
                self.counts["vst.pad_token_share"] = pad
                self.counts["vst.masked_pair_share"] = masked

    def _check(self, scores):
        n = self.n_test
        self.attempted += n
        if scores.shape != (n, self.cfg.num_classes):
            self.check(False, n, f"logits have shape {scores.shape}")
            return
        for i, row in enumerate(scores):
            self.check(bool(np.isfinite(row).all()), 1, f"non-finite logits for clip {i}")
        self.check_digests({f"clip{i}.logits": _sha(row.tobytes())
                            for i, row in enumerate(scores)})

    def summary(self, coarse, iterations):
        return {"predict_clips_per_s": (self.n_test * iterations
                                        / coarse.total("train.predict"), "1/s")}


# ---------------------------------------------------------------------------


class ArtifactIO(Workload):
    """Dataset, checkpoint and PRED writers and readers, with no model compute."""

    name = "artifact-io"

    def __init__(self, seed, work_dir, tiny):
        super().__init__(seed, work_dir)
        if tiny:
            self.classes, self.signers, self.geometry = 2, 1, (2, 32, 32)
            self.setup_reps = 1
        else:
            self.classes, self.signers, self.geometry = 8, 6, (8, 64, 64)

    def setup(self, tr):
        self.ckpt = None
        shutil.rmtree(self.data_dir, ignore_errors=True)
        with tr.span("data.generate_dataset"):
            self.manifest = data.generate_dataset(self.classes, self.signers, self.geometry,
                                                  self.data_dir, seed=self.seed)
        with tr.span("vst.init_params"):
            self.cfg = vst.make_config("small", self.classes, geometry=self.geometry)
            params = vst.init_params(self.cfg, seed=self.seed)
        with tr.span("vst.save_checkpoint"):
            self.ckpt = _ckpt_bytes(self.cfg, params)
        del params
        # Six prediction sets over the test split, scores drawn from the seed.
        rng = np.random.default_rng(self.seed)
        recs = self.manifest.split("test")
        ids = tuple(r.sample_id for r in recs)
        labels = np.array([r.gloss_id for r in recs])
        self.psets = {}
        for modality in data.MODALITIES:
            for size in SIZES:
                scores = rng.normal(size=(len(ids), self.classes))
                scores[np.arange(len(ids)), labels] += 1.5
                self.psets[(size, modality)] = ensemble.PredictionSet(
                    sample_ids=ids, scores=scores, labels=labels,
                    provenance=f"{size}-{modality}")

    def _clip_paths(self, manifest):
        return [os.path.join(manifest.root, p) for r in manifest.records
                for p in (r.rgb_path, r.depth_path)]

    def iteration(self, tr):
        with tr.span("data.generate_dataset") as rec:
            manifest = data.generate_dataset(self.classes, self.signers, self.geometry,
                                             self.data_dir, seed=self.seed)
        rec["bytes"] = sum(os.path.getsize(p) for p in self._clip_paths(manifest))
        self._read_and_round_trip(tr, manifest)

    def traced_iteration(self, tr):
        """``generate_dataset`` composed from scene specs, renders and TNSR writes."""
        records = []
        for split_index, split in enumerate(data.SPLITS):
            os.makedirs(os.path.join(self.data_dir, split), exist_ok=True)
            for gloss in range(self.classes):
                for signer_index in range(self.signers):
                    signer = split_index * self.signers + signer_index
                    for view in data.SPLIT_VIEWS[split]:
                        with tr.span("data.scene_spec"):
                            spec = data.scene_spec(gloss, signer, view, self.geometry,
                                                   self.seed)
                        with tr.span("data.render_clip"):
                            rgb, depth = data.render_clip(spec)
                        sample_id = f"g{gloss:03d}_s{signer:03d}_{view}"
                        paths = []
                        for kind, clip in (("rgb", rgb), ("depth", depth)):
                            rel = f"{split}/{sample_id}_{kind}.tnsr"
                            path = os.path.join(self.data_dir, rel)
                            with tr.span("tensor.write_tensor") as rec:
                                write_tensor(path, clip)
                            rec["bytes"] = os.path.getsize(path)
                            paths.append(rel)
                        records.append(data.ClipRecord(split, sample_id, gloss, view, *paths))
        manifest = data.DatasetManifest(records=tuple(records), num_classes=self.classes,
                                        geometry=self.geometry,
                                        root=os.path.abspath(self.data_dir))
        with tr.span("data.save_manifest"):
            data.save_manifest(manifest, os.path.join(self.data_dir, data.MANIFEST_NAME))
        self._read_and_round_trip(tr, manifest)

    def _read_and_round_trip(self, tr, manifest):
        digests = {}
        with tr.span("bench.check"):
            paths = self._clip_paths(manifest)
            self.attempted += 2 * len(paths)  # each clip file written, then read
            digests.update({os.path.relpath(p, self.data_dir): _file_sha(p) for p in paths})
            digests[data.MANIFEST_NAME] = _file_sha(os.path.join(self.data_dir,
                                                                 data.MANIFEST_NAME))

        for split in data.SPLITS:
            for modality in data.MODALITIES:
                with tr.span("data.load_split") as rec:
                    clips, _, _ = data.load_split(manifest, split, modality)
                with tr.span("bench.check"):
                    rec["bytes"] = self._clip_round_trip(tr, manifest, split, modality, clips)

        with tr.span("vst.load_checkpoint") as rec:
            cfg, params = vst.load_checkpoint(io.BytesIO(self.ckpt))
        rec["bytes"] = len(self.ckpt)
        buf = io.BytesIO()  # compared through a view: no second 200 MB copy
        with tr.span("vst.save_checkpoint") as rec:
            vst.save_checkpoint(buf, cfg, params)
        del params
        with buf.getbuffer() as again:
            rec["bytes"] = len(again)
            same = again == self.ckpt
        self.attempted += 2
        self.check(same and cfg == self.cfg, 2, "checkpoint round trip differs")

        read_back = {}
        for key, pset in self.psets.items():
            with tr.span("ensemble.write_predictions") as rec:
                first = _pred_bytes(pset)
            rec["bytes"] = len(first)
            with tr.span("ensemble.read_predictions") as rec:
                read_back[key] = ensemble.read_predictions(io.BytesIO(first))
            rec["bytes"] = len(first)
            with tr.span("ensemble.write_predictions") as rec:
                second = _pred_bytes(read_back[key])
            rec["bytes"] = len(second)
            self.attempted += 3
            self.check(first == second, 3, f"PRED round trip differs for {key}")
            digests["{}_{}.pred".format(*key)] = _sha(first)
        with tr.span("ensemble.fuse"):
            _, final = _two_stage(read_back)
        with tr.span("ensemble.write_predictions") as rec:
            blob = _pred_bytes(final)
        rec["bytes"] = len(blob)
        with tr.span("train.evaluate"):
            report = train.evaluate(final, manifest, "test")
            text = train.format_report(report)
        with tr.span("bench.check"):
            self.attempted += 2
            self.check(probes.fusion_mismatches(read_back, final, report, manifest) == 0,
                       1, "fused report disagrees with its recomputation")
            digests["fused_rgbd.pred"] = _sha(blob)
            digests["report.txt"] = _sha(text.encode())
            self.check_digests(digests)

    def _clip_round_trip(self, tr, manifest, split, modality, clips) -> int:
        """File bytes -> read_tensor -> write_tensor must give the file bytes back.

        Returns the bytes of the split's files.
        """
        total = 0
        for i, r in enumerate(manifest.split(split)):
            path = os.path.join(manifest.root, r.rgb_path if modality == "rgb" else r.depth_path)
            with tr.span("tensor.read_tensor") as rec:
                tensor = read_tensor(path)
            with open(path, "rb") as f:
                blob = f.read()
            rec["bytes"] = len(blob)
            total += len(blob)
            buf = io.BytesIO()
            write_tensor(buf, tensor)
            self.check(buf.getvalue() == blob and np.array_equal(tensor.data, clips[i]),
                       1, f"TNSR round trip differs for {r.sample_id} {modality}")
        return total

    def summary(self, coarse, iterations):
        """Artifact bytes written plus read by timed calls, over the timed time."""
        timed = [s for rec in coarse.spans if rec["name"] == "iteration"
                 for s in coarse.timed_spans(rec)]
        moved = sum(s.get("bytes", 0) for s in timed)
        seconds = sum(s["end"] - s["start"] for s in timed)
        return {"artifact_mb_per_s": (moved / 1e6 / seconds, "MB/s")}


WORKLOADS = {w.name: w for w in (CrossviewToy, InferFull, ArtifactIO)}
