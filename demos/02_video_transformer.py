"""Hierarchical 3-D video transformers: geometry, sizes, checkpoints.

A clip of shape (T, H, W, 3) is cut into 2x4x4 spatiotemporal patches
(96 raw features each), linearly embedded, and pushed through four
stages of windowed self-attention.  Between stages, patch merging halves
both spatial extents and doubles the channel width, giving a pyramid
like a convolutional backbone.  A layer norm, global average pool and
linear head produce class logits.

Three full-scale sizes share this layout and differ only in width:
small (C=96), base (C=128), large (C=192), with per-stage head counts
C/32 doubling alongside the channels.  The toy variants used throughout
the demos shrink C and the depths so everything runs in seconds.

Run:  python demos/02_video_transformer.py
"""

import os
import tempfile

import numpy as np

from cvislr import Tensor, backward, vst

print("=== 1. The three full-scale sizes ===")

# make_config builds the full-scale layout: depths (2, 2, 18, 2),
# window (8, 7, 7), for 32-frame 224x224 clips and 400 classes.
for size in ("small", "base", "large"):
    cfg = vst.make_config(size, num_classes=400)
    heads = tuple(cfg.stage_channels(s) // 32 for s in range(4))
    n_params = sum(int(np.prod(shape)) for shape in vst.param_spec(cfg).values())
    print(f"{size:>5}: C={cfg.embed_dim:3d}  depths={cfg.depths}  "
          f"heads={heads}  params={n_params / 1e6:6.1f}M")

print()
print("=== 2. Token geometry through the stages ===")

cfg = vst.make_config("small", num_classes=400)
t, h, w = vst.token_grid_extents(cfg.input_geometry)
print(f"input clip  : {cfg.input_geometry} x 3 channels")
print(f"patch grid  : ({t}, {h}, {w}) tokens of {vst.PATCH_FEATURES} raw features")
for stage, grid in enumerate(vst.stage_grids(cfg)):
    c = cfg.stage_channels(stage)
    print(f"stage {stage}     : grid {grid}  x {c} channels"
          + ("" if stage == 0 else "   (after 2x2 spatial merge)"))

print()
print("=== 3. A forward pass at toy scale ===")

# Toy configs keep the same wiring but shrink everything: C in {8, 12, 16},
# depths (1, 1, 2, 1), window (2, 2, 2), for (8, 32, 32) clips.
toy = vst.make_toy_config("base", num_classes=5)
params = vst.init_params(toy, seed=0)
print(f"toy base: C={toy.embed_dim}, depths={toy.depths}, "
      f"window={toy.window}, {len(params)} parameter tensors")

# The model takes a batch of clips, (B, T, H, W, 3); here B = 1.
rng = np.random.default_rng(1)
clip = Tensor(rng.uniform(size=(1, *toy.input_geometry, 3)))
logits = vst.forward_batch(clip, toy, params)
print(f"clip batch {clip.shape} -> logits {logits.shape}")
print("logits:", np.array2string(logits.data[0], precision=4))

# The whole model is differentiable end to end; one backward pass fills
# gradients for every parameter.  The loss takes one target per clip.
from cvislr.train import cross_entropy  # noqa: E402  (narrative order)

loss = cross_entropy(logits, [3])
grads = backward(loss)
got = sum(1 for p in params.values() if p in grads)
print(f"cross-entropy loss {loss.item():.4f}; gradients for {got}/{len(params)} params")

print()
print("=== 4. Checkpoints ===")

# save_checkpoint writes the config as a text header plus every parameter
# in .tnsr encoding.  Loading restores both, and values are exact at f32,
# so a reloaded model reproduces its predictions bit for bit.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "toy_base.vstc")
    vst.save_checkpoint(path, toy, params)
    cfg2, params2 = vst.load_checkpoint(path)
    logits2 = vst.forward_batch(Tensor(clip.data.astype(np.float32).astype(np.float64)),
                                cfg2, params2)
    ref = vst.forward_batch(Tensor(clip.data.astype(np.float32).astype(np.float64)),
                            toy, {k: Tensor(v.data.astype(np.float32).astype(np.float64))
                                  for k, v in params.items()})
    print(f"checkpoint: {os.path.getsize(path)} bytes, config round trip "
          f"{cfg2 == toy}")
    print(f"f32-quantized predictions identical: "
          f"{np.array_equal(logits2.data, ref.data)}")
