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
the model casts each batch to its parameters' dtype.  ``ClipRecord`` and
``DatasetManifest`` own the manifest's rules and check them when built, so
``load_manifest`` only parses and ``save_manifest`` writes what it reads back.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .errors import (ContractError, FormatError, check_int_range, check_positive_int,
                     check_seed, shown)
from .tensor import _stream, read_tensor, write_tensor
from .vst import MAX_CLASSES, check_geometry, check_num_classes

VIEWS = ("front", "left", "right")
SPLITS = ("train", "val", "test")
#: Camera azimuth per view, radians about the vertical axis.
VIEW_AZIMUTH = {"front": 0.0, "left": math.radians(45.0),
                "right": math.radians(-45.0)}
#: Views rendered per split (the cross-view protocol).
SPLIT_VIEWS = {"train": ("front",), "val": ("left",), "test": ("left", "right")}
#: The most clips ``generate_dataset`` makes: 4 per class and signer, one per
#: view of each split.  65,536 records take about 26 MB.
MAX_CLIPS = 2**16

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


def _class_motif(g: int) -> tuple[np.ndarray, np.ndarray]:
    """Class ``g``'s characteristic integer frequencies and base phases."""
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


@dataclass(frozen=True, eq=False)
class SceneSpec:
    """Everything needed to render one clip deterministically, built from its seeds alone.

    Construction checks every field, raising a CvislrError before anything is
    seeded: a gloss id in [0, MAX_CLASSES), a signer seed, the view, a
    geometry that :func:`vst.check_geometry` takes with H and W at least 8,
    and a master seed.  It then draws ``motion``, which depends on everything
    except the view: the class motif of ``gloss_id``, jittered by a generator
    seeded with (master_seed, gloss_id, signer_seed).
    """

    gloss_id: int
    signer_seed: int
    view: str
    geometry: tuple[int, int, int]
    master_seed: int = 0
    motion: MotionParams = field(init=False)

    def __post_init__(self):
        store = partial(object.__setattr__, self)
        store("gloss_id", check_int_range("gloss_id", self.gloss_id, 0, MAX_CLASSES - 1))
        store("signer_seed", check_seed(self.signer_seed, "signer_seed"))
        if self.view not in VIEWS:
            raise ContractError(f"unknown view {shown(self.view)}; expected one of {VIEWS}")
        store("geometry", check_geometry("geometry", self.geometry))
        if min(self.geometry[1:]) < 8:
            raise ContractError(f"geometry {self.geometry} too small to render")
        store("master_seed", check_seed(self.master_seed, "master_seed"))
        freq, phase = _class_motif(self.gloss_id)
        ss = np.random.SeedSequence(self.master_seed, spawn_key=(self.gloss_id, self.signer_seed))
        rng = np.random.Generator(np.random.Philox(ss))
        store("motion", MotionParams(
            freq=freq,
            phase=phase + rng.uniform(-0.25, 0.25, size=(2, 3)),
            amp=_AMPLITUDE * rng.uniform(0.85, 1.0, size=(2, 3)),
            center=rng.uniform(-0.04, 0.04, size=(2, 3)),
            sigma=float(rng.uniform(1.3, 1.7)),
            mirror=np.array([1.0, -1.0]),
        ))


#: ``SceneSpec`` under a builder's name: ``scene_spec(gloss, signer, view, geometry, seed)``.
scene_spec = SceneSpec


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
        raise ContractError(f"unknown view {shown(view)}; expected one of {VIEWS}")
    theta = VIEW_AZIMUTH[view]
    x, y, z = points[..., 0], points[..., 1], points[..., 2]
    xr = x * math.cos(theta) + z * math.sin(theta)
    zr = -x * math.sin(theta) + z * math.cos(theta)
    u = 0.5 + xr
    v = 0.5 - y
    z_max = _AMPLITUDE * math.sqrt(2.0) + 0.05
    prox = 0.55 + 0.4 * (zr / z_max)
    return np.stack([u, v], axis=-1), prox


def render_clip(spec: SceneSpec) -> tuple[np.ndarray, np.ndarray]:
    """Render (rgb, depth) float64 arrays of extents (T, H, W, 3), values in [0, 1]."""
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
    return rgb, np.repeat(depth_map[..., None], 3, axis=-1)


# ---------------------------------------------------------------------------
# manifest


@dataclass(frozen=True)
class ClipRecord:
    """One manifest line; construction checks every field, else ContractError."""

    split: str
    sample_id: str
    gloss_id: int
    view: str
    rgb_path: str    # relative to the manifest's directory
    depth_path: str

    def __post_init__(self):
        for name, value, known in (("split", self.split, SPLITS), ("view", self.view, VIEWS)):
            if value not in known:
                raise ContractError(f"unknown {name} {shown(value)}; expected one of {known}")
        object.__setattr__(self, "gloss_id",
                           check_int_range("gloss_id", self.gloss_id, 0, MAX_CLASSES - 1))
        for name, text in (("sample id", self.sample_id), ("clip path", self.rgb_path),
                           ("clip path", self.depth_path)):
            # text mode reads a carriage return as a newline; UTF-8 has no lone surrogate
            if not isinstance(text, str) or re.search("[\t\n\r\0\ud800-\udfff]", text):
                raise ContractError(f"{name} {shown(text)} must be UTF-8 text without a tab, "
                                    f"newline, carriage return or NUL byte")
            if name == "clip path" and (os.path.isabs(text)
                                        or os.path.normpath(text).split(os.sep)[0] == ".."):
                raise ContractError(f"clip path {shown(text)} is not inside the manifest's "
                                    f"directory")


@dataclass(frozen=True)
class DatasetManifest:
    """A dataset's records, classes, geometry and clip directory, checked when built."""

    records: tuple[ClipRecord, ...]
    num_classes: int
    geometry: tuple[int, int, int]
    root: str  # directory holding the clip files

    def __post_init__(self):
        object.__setattr__(self, "num_classes", check_num_classes(self.num_classes))
        object.__setattr__(self, "geometry", check_geometry("geometry", self.geometry))
        if not (isinstance(self.records, tuple)
                and all(isinstance(r, ClipRecord) for r in self.records)):
            raise ContractError("records must be a tuple of ClipRecords")
        seen: set[str] = set()
        for r in self.records:
            if r.gloss_id >= self.num_classes:
                raise ContractError(f"gloss id outside [0, {self.num_classes}): "
                                    f"sample {r.sample_id!r} has {shown(r.gloss_id)}")
            if r.sample_id in seen:
                raise ContractError(f"duplicate sample id {r.sample_id!r}")
            seen.add(r.sample_id)

    def split(self, name: str) -> list[ClipRecord]:
        if name not in SPLITS:
            raise ContractError(f"unknown split {shown(name)}; expected one of {SPLITS}")
        return [r for r in self.records if r.split == name]


MANIFEST_NAME = "manifest.tsv"


def save_manifest(manifest: DatasetManifest, path: str) -> None:
    lines = ["# cvislr dataset manifest", f"# num_classes={manifest.num_classes}",
             "# geometry=" + ",".join(map(str, manifest.geometry))]
    for r in manifest.records:
        lines.append("\t".join([r.split, r.sample_id, str(r.gloss_id), r.view,
                                r.rgb_path, r.depth_path]))
    with _stream(path, "wb") as f:
        f.write(("\n".join(lines) + "\n").encode("utf-8"))


def load_manifest(path: str) -> DatasetManifest:
    """Parse a manifest file, clip paths relative to its directory; a refusal by
    :class:`ClipRecord` or :class:`DatasetManifest` is a FormatError naming the file."""
    root = os.path.dirname(os.path.abspath(path))
    header = {"num_classes": None, "geometry": None}
    records: list[ClipRecord] = []
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
                    header[key] = (check_num_classes(int(value)) if key == "num_classes"
                                   else check_geometry("geometry", [*map(int, value.split(","))]))
                except ValueError as e:  # the package's argument errors included
                    raise FormatError(f"{path}:{lineno}: bad header line {line!r}: {e}") from e
                continue
            parts = line.split("\t")
            if len(parts) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 tab-separated "
                                  f"fields, got {len(parts)}")
            split, sample_id, gloss, view, rgb_path, depth_path = parts
            try:  # a gloss id that is not decimal digits goes as text, which ClipRecord refuses
                records.append(ClipRecord(split, sample_id, int(gloss) if gloss.isdecimal()
                                          else gloss, view, rgb_path, depth_path))
            except ValueError as e:
                raise FormatError(f"{path}:{lineno}: {e}") from e
    if None in header.values():
        raise FormatError(f"{path}: missing num_classes/geometry header lines")
    try:
        return DatasetManifest(records=tuple(records), root=root, **header)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# generation


def generate_dataset(num_classes: int, signers_per_class: int,
                     geometry: tuple[int, int, int], out_dir: str,
                     seed: int = 0) -> DatasetManifest:
    """Render and write the full cross-view dataset under ``out_dir``.

    Splits follow the protocol: train = front view, val = left view,
    test = left + right views.  Signer seeds are disjoint across splits
    (train uses signers [0, S), val [S, 2S), test [2S, 3S)).

    Arguments the :class:`DatasetManifest` or :class:`SceneSpec` refuses, and
    more than ``MAX_CLIPS`` clips, raise a CvislrError before it creates a
    directory.  Clips are rendered and written on a thread pool
    with one worker per usable CPU; a clip's bytes depend only on its spec,
    so the files do not depend on the pool, and each appears whole or not at
    all.  The first clip, in record order, that cannot be written raises
    OSError; else the manifest is written once every clip is.
    """
    check_num_classes(num_classes)  # it bounds the record loop
    check_positive_int("signers_per_class", signers_per_class)
    clips = sum(map(len, SPLIT_VIEWS.values())) * num_classes * signers_per_class
    if clips > MAX_CLIPS:
        raise ContractError(f"num_classes={num_classes} and signers_per_class="
                            f"{signers_per_class} make {clips} clips, more than {MAX_CLIPS}")
    check_seed(seed)
    records: list[ClipRecord] = []
    signers: list[int] = []
    for split_index, split in enumerate(SPLITS):
        for gloss in range(num_classes):
            for signer_index in range(signers_per_class):
                signer = split_index * signers_per_class + signer_index
                for view in SPLIT_VIEWS[split]:
                    sample_id = f"g{gloss:03d}_s{signer:03d}_{view}"
                    records.append(ClipRecord(split, sample_id, gloss, view,
                                              f"{split}/{sample_id}_rgb.tnsr",
                                              f"{split}/{sample_id}_depth.tnsr"))
                    signers.append(signer)
    manifest = DatasetManifest(records=tuple(records), num_classes=num_classes,
                               geometry=geometry, root=os.path.abspath(out_dir))
    SceneSpec(records[0].gloss_id, signers[0], records[0].view, manifest.geometry, seed)
    for split in SPLITS:
        os.makedirs(os.path.join(out_dir, split), exist_ok=True)

    def write_clip(record: ClipRecord, signer: int) -> None:
        rgb, depth = render_clip(SceneSpec(record.gloss_id, signer, record.view,
                                           manifest.geometry, seed))
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
    clip file is read with ``read_tensor`` and must have the manifest's
    extents; a FormatError names the clip.  The stack is
    allocated only once the first clip has matched the manifest geometry.
    A model casts them to its parameters' dtype; widening to float64 is exact.
    """
    if modality not in MODALITIES:
        raise ContractError(f"unknown modality {shown(modality)}; expected one of {MODALITIES}")
    if not records:
        raise ContractError("no clips to load: the record list is empty")
    extents = (*manifest.geometry, 3)
    clips = None
    for i, r in enumerate(records):
        rel = r.rgb_path if modality == "rgb" else r.depth_path
        try:
            clip = read_tensor(os.path.join(manifest.root, rel)).data
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
