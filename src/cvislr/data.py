"""Deterministic synthetic multi-view RGB-D gesture dataset.

Each class ("gloss") is a characteristic pair of 3-D Lissajous hand
trajectories; each signer is a seeded perturbation of that class motif
(phases, amplitudes, blob width).  A clip renders the two moving hands as
energy-normalized Gaussian blobs from one of three camera azimuths: front,
left or right.  All views of a (gloss, signer) pair observe the *same* 3-D
trajectory, so class identity survives the view change by construction —
exactly the difficulty the protocol wants: train on the front view, validate
on the left, test on left and right, with disjoint signers per split.

RGB channels carry two fixed hand colors (shared by every class, so color
never leaks the label); the depth clip carries each blob scaled by its
camera proximity, replicated to three channels.  Clips are stored as raw
TNSR tensors of extents (T, H, W, 3).  ``load_clips`` reads any records'
clips, and ``load_split`` a whole split's, stacked in the stored float32;
the model widens each batch to float64, which is exact.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (ContractError, FormatError, _is_integer, check_positive_int,
                     check_seed)
from .tensor import Tensor, _read_payload, write_tensor
from .vst import check_geometry

VIEWS = ("front", "left", "right")
SPLITS = ("train", "val", "test")
#: Camera azimuth per view, radians about the vertical axis.
VIEW_AZIMUTH = {"front": 0.0, "left": math.radians(45.0),
                "right": math.radians(-45.0)}
#: Views rendered per split (the cross-view protocol).
SPLIT_VIEWS = {"train": ("front",), "val": ("left",), "test": ("left", "right")}

MODALITIES = ("rgb", "depth")

# Fixed hand colors (class-independent) and blob mass; mass is normalized
# after truncation at the image border, so per-frame RGB energy is identical
# across views regardless of where the blobs land.
_HAND_COLORS = np.array([[1.0, 0.35, 0.1], [0.1, 0.45, 1.0]])
_BLOB_MASS = 4.0
_AMPLITUDE = 0.24  # world half-range per axis; keeps blobs inside every view


@dataclass(frozen=True, eq=False)
class MotionParams:
    """Jittered per-signer trajectory parameters (two hands, three axes)."""

    freq: np.ndarray     # (2, 3) integer cycles per clip
    phase: np.ndarray    # (2, 3) radians
    amp: np.ndarray      # (2, 3) world units
    center: np.ndarray   # (2, 3) world units
    sigma: float         # blob std dev in pixels at W = 32
    mirror: np.ndarray   # (2,) x-axis signs distinguishing the hands


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Everything needed to render one clip deterministically.

    Construction checks the view and that ``geometry`` passes
    :func:`vst.check_geometry` with H and W at least 8, raising a CvislrError.
    """

    gloss_id: int
    signer_seed: int
    view: str
    geometry: tuple[int, int, int]
    motion: MotionParams

    def __post_init__(self):
        if self.view not in VIEWS:
            raise ContractError(f"unknown view {self.view!r}; expected one of {VIEWS}")
        check_geometry("geometry", self.geometry)
        if min(self.geometry[1:]) < 8:
            raise ContractError(f"geometry {tuple(self.geometry)} too small to render")
        object.__setattr__(self, "geometry", tuple(int(g) for g in self.geometry))


def _class_motif(gloss_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Class-characteristic integer frequencies and base phases."""
    g = int(gloss_id)
    fx = 1 + g % 4
    fy = 1 + (g // 4) % 4
    fz = 1 + (g // 16) % 3
    base = 2.0 * math.pi * ((g * 0.6180339887498949) % 1.0)
    freq = np.array([[fx, fy, fz], [fy, fx, fz]], dtype=np.int64)
    phase = np.array([
        [base, base + 0.5 * math.pi, base + 0.25 * math.pi],
        [base + math.pi, base + 1.5 * math.pi, base + 0.75 * math.pi],
    ])
    return freq, phase


def scene_spec(gloss_id: int, signer_seed: int, view: str,
               geometry: tuple[int, int, int], master_seed: int = 0) -> SceneSpec:
    """Build a render spec; motion depends on everything except the view.

    ``gloss_id`` is an integer in [0, MAX_CLASSES) and the seeds are
    nonnegative integers, else a CvislrError is raised before anything is
    seeded; :class:`SceneSpec` checks the view and the geometry.
    """
    if not (_is_integer(gloss_id) and 0 <= gloss_id < MAX_CLASSES):
        raise ContractError(f"gloss_id must be an integer in [0, {MAX_CLASSES}), "
                            f"got {gloss_id!r}")
    for name, value in (("signer_seed", signer_seed), ("master_seed", master_seed)):
        if not _is_integer(value) or value < 0:
            raise ContractError(f"{name} must be a nonnegative integer, got {value!r}")
    freq, phase = _class_motif(gloss_id)
    ss = np.random.SeedSequence(int(master_seed),
                                spawn_key=(int(gloss_id), int(signer_seed)))
    rng = np.random.Generator(np.random.Philox(ss))
    motion = MotionParams(
        freq=freq,
        phase=phase + rng.uniform(-0.25, 0.25, size=(2, 3)),
        amp=_AMPLITUDE * rng.uniform(0.85, 1.0, size=(2, 3)),
        center=rng.uniform(-0.04, 0.04, size=(2, 3)),
        sigma=float(rng.uniform(1.3, 1.7)),
        mirror=np.array([1.0, -1.0]),
    )
    return SceneSpec(gloss_id=int(gloss_id), signer_seed=int(signer_seed),
                     view=view, geometry=geometry, motion=motion)


def trajectory(spec: SceneSpec) -> np.ndarray:
    """Ground-truth world positions, shape (T, 2 hands, 3 axes)."""
    t_frames = spec.geometry[0]
    m = spec.motion
    tau = np.arange(t_frames)[:, None, None] / t_frames  # (T, 1, 1)
    pos = m.amp * np.sin(2.0 * math.pi * m.freq * tau + m.phase) + m.center
    pos[:, :, 0] *= m.mirror[None, :]
    return pos


def project(points: np.ndarray, view: str) -> tuple[np.ndarray, np.ndarray]:
    """Rotate world points to a view and project orthographically.

    Returns (uv, proximity): uv in [0, 1]^2 image coordinates (u right,
    v down) and proximity in (0, 1), larger for points nearer the camera.
    """
    if view not in VIEW_AZIMUTH:
        raise ContractError(f"unknown view {view!r}; expected one of {VIEWS}")
    theta = VIEW_AZIMUTH[view]
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    xr = x * math.cos(theta) + z * math.sin(theta)
    zr = -x * math.sin(theta) + z * math.cos(theta)
    u = 0.5 + xr
    v = 0.5 - y
    z_max = _AMPLITUDE * math.sqrt(2.0) + 0.05
    prox = 0.55 + 0.4 * (zr / z_max)
    return np.stack([u, v], axis=-1), prox


def render_clip(spec: SceneSpec) -> tuple[Tensor, Tensor]:
    """Render (rgb, depth) clips of extents (T, H, W, 3), values in [0, 1]."""
    t_frames, height, width = spec.geometry
    uv, prox = project(trajectory(spec), spec.view)  # (T, 2, 2), (T, 2)
    px = uv[..., 0] * (width - 1)   # (T, 2)
    py = uv[..., 1] * (height - 1)
    sigma = spec.motion.sigma * (width / 32.0)

    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    d2 = ((yy[None, None] - py[..., None, None]) ** 2
          + (xx[None, None] - px[..., None, None]) ** 2)  # (T, 2, H, W)
    # in place, bit for bit: d2 / -(2 sigma^2) equals -d2 / (2 sigma^2)
    d2 /= -(2.0 * sigma * sigma)
    splat = np.exp(d2, out=d2)
    # each blob integrates to _BLOB_MASS
    splat *= _BLOB_MASS / splat.sum(axis=(2, 3), keepdims=True)

    # einsum, not a matmul over the two hands: BLAS may fuse multiply-adds
    rgb = np.einsum("thyx,hc->tyxc", splat, _HAND_COLORS)
    depth_map = np.einsum("thyx,th->tyx", splat, prox)
    np.clip(rgb, 0.0, 1.0, out=rgb)
    np.clip(depth_map, 0.0, 1.0, out=depth_map)  # commutes with the channel repeat
    return Tensor(rgb), Tensor(np.repeat(depth_map[..., None], 3, axis=-1))


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ClipRecord:
    split: str
    sample_id: str
    gloss_id: int
    view: str
    rgb_path: str    # relative to the manifest's directory
    depth_path: str


@dataclass(frozen=True)
class DatasetManifest:
    records: tuple[ClipRecord, ...]
    num_classes: int
    geometry: tuple[int, int, int]
    root: str  # directory holding the clip files

    def split(self, name: str) -> list[ClipRecord]:
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}; expected one of {SPLITS}")
        return [r for r in self.records if r.split == name]


MANIFEST_NAME = "manifest.tsv"
#: The most classes a manifest may declare: evaluation's confusion matrix
#: then holds 4096**2 int64 counts (134 MB).
MAX_CLASSES = 4096


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    lines = [
        "# cvislr dataset manifest",
        f"# num_classes={manifest.num_classes}",
        "# geometry=" + ",".join(map(str, manifest.geometry)),
    ]
    for r in manifest.records:
        lines.append("\t".join([r.split, r.sample_id, str(r.gloss_id), r.view,
                                r.rgb_path, r.depth_path]))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_manifest(path: str) -> DatasetManifest:
    """Parse a manifest file; clip paths stay relative to its directory."""
    root = os.path.dirname(os.path.abspath(path))
    header = {"num_classes": None, "geometry": None}
    records: list[ClipRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")
        except UnicodeDecodeError as e:
            raise FormatError(f"{path}: manifest is not valid UTF-8: {e}") from e
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            if line.startswith("#"):
                key, eq, value = line[1:].strip().partition("=")
                if not eq or key not in header:  # a comment
                    continue
                if header[key] is not None:
                    raise FormatError(f"{path}:{lineno}: repeated header line {line!r}")
                try:
                    if key == "num_classes":
                        header[key] = int(value)
                        if not 2 <= header[key] <= MAX_CLASSES:
                            raise ContractError(f"must lie in [2, {MAX_CLASSES}]")
                    else:
                        header[key] = tuple(int(v) for v in value.split(","))
                        check_geometry("geometry", header[key])
                except ValueError as e:  # the package's argument errors included
                    raise FormatError(f"{path}:{lineno}: bad header line {line!r}: {e}") from e
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 tab-separated "
                                  f"fields, got {len(parts)}")
            split, sample_id, gloss, view, rgb_path, depth_path = parts
            if split not in SPLITS:
                raise FormatError(f"{path}:{lineno}: unknown split {split!r}")
            if view not in VIEWS:
                raise FormatError(f"{path}:{lineno}: unknown view {view!r}")
            if sample_id in seen:
                raise FormatError(f"{path}:{lineno}: duplicate sample id {sample_id!r}")
            seen.add(sample_id)
            try:
                gloss_id = int(gloss)
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: bad gloss id {gloss!r}") from e
            for rel in (rgb_path, depth_path):
                if "\0" in rel:
                    raise FormatError(f"{path}:{lineno}: clip path {rel!r} holds a NUL byte")
                full = os.path.normpath(os.path.join(root, rel))
                if os.path.isabs(rel) or os.path.commonpath([root, full]) != root:
                    raise FormatError(f"{path}:{lineno}: clip path {rel!r} is not "
                                      f"inside the manifest's directory")
            records.append(ClipRecord(split, sample_id, gloss_id, view,
                                      rgb_path, depth_path))
    num_classes, geometry = header["num_classes"], header["geometry"]
    if num_classes is None or geometry is None:
        raise FormatError(f"{path}: missing num_classes/geometry header lines")
    if any(r.gloss_id < 0 or r.gloss_id >= num_classes for r in records):
        raise FormatError(f"{path}: gloss id outside [0, {num_classes})")
    return DatasetManifest(records=tuple(records), num_classes=num_classes,
                           geometry=geometry, root=root)


# ---------------------------------------------------------------------------
# generation


def generate_dataset(num_classes: int, signers_per_class: int,
                     geometry: tuple[int, int, int], out_dir: str,
                     seed: int = 0) -> DatasetManifest:
    """Render and write the full cross-view dataset under ``out_dir``.

    Splits follow the protocol: train = front view, val = left view,
    test = left + right views.  Signer seeds are disjoint across splits
    (train uses signers [0, S), val [S, 2S), test [2S, 3S)).

    Clips are rendered and written on a thread pool with one worker per
    usable CPU; a clip's bytes depend only on its spec, so the files do not
    depend on the pool.  The manifest is written once every clip is.  The
    first clip, in record order, that cannot be written raises OSError, and
    then no manifest is written.
    """
    check_positive_int("num_classes", num_classes)
    if not 2 <= num_classes <= MAX_CLASSES:
        raise ContractError(f"num_classes must lie in [2, {MAX_CLASSES}], got {num_classes}")
    check_positive_int("signers_per_class", signers_per_class)
    check_seed(seed)
    check_geometry("geometry", geometry)
    geometry = tuple(int(g) for g in geometry)
    records: list[ClipRecord] = []
    signers: list[int] = []
    os.makedirs(out_dir, exist_ok=True)
    for split_index, split in enumerate(SPLITS):
        os.makedirs(os.path.join(out_dir, split), exist_ok=True)
        for gloss in range(num_classes):
            for signer_index in range(signers_per_class):
                signer = split_index * signers_per_class + signer_index
                for view in SPLIT_VIEWS[split]:
                    sample_id = f"g{gloss:03d}_s{signer:03d}_{view}"
                    records.append(ClipRecord(split, sample_id, gloss, view,
                                              f"{split}/{sample_id}_rgb.tnsr",
                                              f"{split}/{sample_id}_depth.tnsr"))
                    signers.append(signer)

    def write_clip(record: ClipRecord, signer: int) -> None:
        rgb, depth = render_clip(scene_spec(record.gloss_id, signer, record.view,
                                            geometry, seed))
        write_tensor(os.path.join(out_dir, record.rgb_path), rgb)
        write_tensor(os.path.join(out_dir, record.depth_path), depth)

    # numpy's ufuncs and einsum and file writes release the GIL
    pool = ThreadPoolExecutor(_usable_cpus())
    try:
        for job in [pool.submit(write_clip, r, s) for r, s in zip(records, signers)]:
            job.result()
    except OSError as e:
        raise OSError(f"writing clip under {out_dir!r}: {e}") from e
    finally:
        pool.shutdown(cancel_futures=True)
    manifest = DatasetManifest(records=tuple(records), num_classes=num_classes,
                               geometry=geometry, root=os.path.abspath(out_dir))
    save_manifest(manifest, os.path.join(out_dir, MANIFEST_NAME))
    return manifest


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def load_clips(manifest: DatasetManifest, records: Sequence[ClipRecord],
               modality: str) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack the clips of ``records`` as stored, in float32.

    Returns (clips (N, T, H, W, 3) float32, labels (N,), sample ids).  Each
    clip file is checked as ``read_tensor`` checks it, and must have the
    manifest's extents; a FormatError names the clip.  The stack is
    allocated only once the first clip has matched the manifest geometry.
    Widening the clips to float64, as ``Tensor`` does, is exact.
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {modality!r}; expected one of {MODALITIES}")
    if not records:
        raise ContractError("no clips to load: the record list is empty")
    extents = (*manifest.geometry, 3)
    clips = None
    for i, r in enumerate(records):
        rel = r.rgb_path if modality == "rgb" else r.depth_path
        try:
            clip = _read_payload(os.path.join(manifest.root, rel))
        except OSError as e:
            raise FormatError(f"{rel}: the manifest names a clip that cannot "
                              f"be read: {e}") from e
        except FormatError as e:
            raise FormatError(f"{rel}: {e}") from e
        if clip.shape != extents:
            raise FormatError(f"{rel}: clip extents {clip.shape} do not match "
                              f"manifest geometry {manifest.geometry}")
        if clips is None:
            clips = np.empty((len(records), *extents), dtype=np.float32)
        clips[i] = clip
    labels = np.array([r.gloss_id for r in records], dtype=np.int64)
    return clips, labels, [r.sample_id for r in records]


def load_split(manifest: DatasetManifest, split: str, modality: str,
               ) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Stack one split's clips in float32; see :func:`load_clips`."""
    return load_clips(manifest, manifest.split(split), modality)
