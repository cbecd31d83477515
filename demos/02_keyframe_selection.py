"""Attention-based frame scoring and top-K key-frame selection.

Every token attends over all tokens of all frames; a frame's importance is
the attention mass its tokens receive.  The scorer forms each pair of
frame-aligned blocks of the symmetric logit matrix once, normalises rows
online, and reproduces the column sums of the dense attention matrix
without materializing S x S.
"""

import numpy as np

from framescope import (
    EncoderSpec,
    frame_scores,
    spatial_attention,
    synth_image_features,
    top_k_frames,
    uniform_sample_indices,
)

# Sampling: a 1-minute clip at 1 frame/second, uniformly thinned to 16.
print("uniform sampling 60 -> 16:", uniform_sample_indices(60, 16))

# Score 16 synthetic frames (14x14 grid, depth 768 -> S = 3136 tokens).
feats = synth_image_features(seed=7, frames=16, spec=EncoderSpec("img", (14, 14), 768))
scores = frame_scores(feats)
print("\nframe scores (attention mass received):")
for t, s in enumerate(scores.scores):
    bar = "#" * int(40 * (s - scores.scores.min()) / (np.ptp(scores.scores) + 1e-9))
    print(f"  frame {t:2d}: {s:10.4f} {bar}")

# Conservation: each of the S attending tokens hands out exactly one unit.
s_total = 16 * 14 * 14
print(f"\ntotal mass {scores.total_mass:.6f} vs token count {s_total}")

# Top-K, K = T/2, ties to the earlier frame, returned in temporal order.
keyframes = top_k_frames(scores, 8)
print("selected key-frames:", keyframes.indices)

# The streaming scores equal the per-frame column sums of the dense S x S matrix.
small = synth_image_features(seed=3, frames=8, spec=EncoderSpec("img", (8, 8), 32))
dense = spatial_attention(small).sum(axis=0).reshape(8, 64).sum(axis=1)
stream = frame_scores(small).scores
print("\nstreaming vs dense max abs diff:", float(np.max(np.abs(dense - stream))))
