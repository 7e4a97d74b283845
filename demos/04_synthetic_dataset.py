"""The deterministic multi-view RGB-D gesture dataset.

Every clip is rendered, not captured: a gesture class fixes a pair of
mirrored 3-D hand trajectories (class-specific Lissajous motifs), a
signer seed perturbs amplitude, phase and tempo, and a camera view
rotates the scene before projection.  RGB frames splat each hand as an
energy-normalized Gaussian blob; depth frames encode camera proximity
with the same footprint.

The cross-view protocol is the point: training clips come only from the
front camera, validation from the left, and testing from left + right,
so a model can never pass by memorizing pixels of the test viewpoint.

Run:  python demos/04_synthetic_dataset.py
"""

import os
import tempfile

import numpy as np

from cvislr import data

print("=== 1. One scene: class motif + signer jitter + view ===")

geometry = (12, 48, 48)
# A spec is built from its seeds alone: it draws its own motion.
spec = data.SceneSpec(gloss_id=5, signer_seed=0, view="front",
                      geometry=geometry, master_seed=0)
m = spec.motion
print(f"class 5, signer 0, front view, {geometry} clip")
print(f"  hand-0 cycles per clip (x, y, z): "
      f"{tuple(int(f) for f in m.freq[0])}   <- fixed by the class")
print(f"  jittered amplitudes {np.round(m.amp[0], 4).tolist()}, "
      f"blob sigma {m.sigma:.3f}      <- fixed by the signer seed")

# The trajectory is (T, hands, xyz).  The two hands trace different
# motifs (swapped x/y frequencies, offset phases) and hand 1's x-axis is
# sign-flipped, giving a left/right pair rather than a clone.
track = data.trajectory(spec)
print(f"  trajectory shape {track.shape}; hand x-signs "
      f"{m.mirror.astype(int).tolist()}")

print()
print("=== 2. Projection changes with the camera, motion does not ===")

# The same scene viewed from three cameras: the 3-D track is identical,
# only the azimuth rotation before projection differs.
import math  # noqa: E402  (narrative order)

for view in data.VIEWS:
    s = data.SceneSpec(5, 0, view, geometry, 0)
    uv, prox = data.project(data.trajectory(s), view)
    u = uv[:, 0, 0]
    print(f"  {view:>5} ({math.degrees(data.VIEW_AZIMUTH[view]):+3.0f} deg): "
          f"hand-0 u range [{u.min():.3f}, {u.max():.3f}], "
          f"mean proximity {prox[:, 0].mean():.3f}")

print()
print("=== 3. Rendering: energy-normalized blobs ===")

rgb, depth = data.render_clip(spec)  # two numpy arrays
print(f"rgb {rgb.shape}, depth {depth.shape}, values in "
      f"[{rgb.min():.3f}, {rgb.max():.3f}]")

# Each hand deposits a fixed total mass per frame regardless of where it
# sits or how the camera squashes it, so no view is brighter than another.
energy = rgb.sum(axis=(1, 2, 3))
print(f"per-frame RGB energy: min {energy.min():.9f}, max {energy.max():.9f}")

# A frame as ASCII art -- two blobs, one per hand.
frame = rgb[0].sum(axis=-1)
frame = frame / frame.max()
chars = " .:-=+*#%@"
print("frame 0, front view:")
for row in frame[::3]:
    print("  " + "".join(chars[int(v * (len(chars) - 1))] for v in row[::1]))

print()
print("=== 4. Generating a dataset ===")

with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "toyset")
    manifest = data.generate_dataset(num_classes=4, signers_per_class=2,
                                     geometry=(8, 32, 32), out_dir=out, seed=7)
    print(f"wrote {len(manifest.records)} clips under {out!r}")
    for split in data.SPLITS:
        recs = manifest.split(split)
        views = sorted({r.view for r in recs})
        signers = sorted({int(r.sample_id.split('_')[1][1:]) for r in recs})
        print(f"  {split:>5}: {len(recs):2d} clips, views {views}, "
              f"signer seeds {signers}")

    # The manifest is a plain TSV and reloads to an identical object.
    again = data.load_manifest(os.path.join(out, "manifest.tsv"))
    print(f"manifest round trip: {again.records == manifest.records}")

    # load_split stacks clips ready for training.
    clips, labels, ids = data.load_split(manifest, "train", "rgb")
    print(f"train split stacked: clips {clips.shape}, labels {labels.tolist()}")

print()
print("=== 5. Determinism ===")

# Same seed, same bytes -- rendering twice gives bit-identical clips.
a, _ = data.render_clip(data.SceneSpec(3, 1, "left", (8, 32, 32), 7))
b, _ = data.render_clip(data.SceneSpec(3, 1, "left", (8, 32, 32), 7))
c, _ = data.render_clip(data.SceneSpec(3, 1, "left", (8, 32, 32), 8))
print(f"same master seed  -> identical clips: {np.array_equal(a, b)}")
print(f"other master seed -> different clips: {not np.array_equal(a, c)}")
