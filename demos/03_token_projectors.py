"""The two projector kinds: token-reducing vs token-preserving.

The reducing projector runs FFN -> grid reshape -> adaptive average pool
-> depthwise positional conv with a skip connection, cutting 196 tokens
per frame to 144 (image branch) or 49 (video branch).  The MLP baseline
projects every token and keeps the count.
"""

import numpy as np

from framescope import (
    EncoderSpec,
    LinearParams,
    ProjectorConfig,
    ffn_forward,
    adaptive_avg_pool2d,
    init_projector_params,
    project_branch,
    projector_forward,
    synth_image_features,
    synth_video_features,
)

# Image branch: 16 frames, 14x14 grid reduced to 12x12 -> 144 tokens/frame.
image_cfg = ProjectorConfig("et_proj", c_in=768, c_out=896, grid_in=(14, 14), grid_out=(12, 12))
image_params = init_projector_params(image_cfg, seed=0)
image_feats = synth_image_features(0, 16, EncoderSpec("img", (14, 14), 768))
image_seq = project_branch(image_feats, image_cfg, image_params, "image")
print("image branch:", image_seq.tokens.shape, "->", image_seq.count, "tokens (16 x 144)")

# Video branch: 8 key-frames, 14x14 reduced to 7x7 -> 49 tokens/frame.
video_cfg = ProjectorConfig("et_proj", c_in=576, c_out=896, grid_in=(14, 14), grid_out=(7, 7))
video_params = init_projector_params(video_cfg, seed=1)
video_feats = synth_video_features(0, list(range(8)), EncoderSpec("vid", (14, 14), 576))
video_seq = project_branch(video_feats, video_cfg, video_params, "video")
print("video branch:", video_seq.tokens.shape, "->", video_seq.count, "tokens (8 x 49)")

# MLP baseline: same frames, no reduction: 16 x 196 tokens.
mlp_cfg = ProjectorConfig("mlp_proj", c_in=768, c_out=896, grid_in=(14, 14), grid_out=(14, 14))
mlp_params = init_projector_params(mlp_cfg, seed=0)
mlp_seq = project_branch(image_feats, mlp_cfg, mlp_params, "image")
print("mlp baseline:", mlp_seq.tokens.shape, "->", mlp_seq.count, "tokens (16 x 196)")

# A fresh reducing projector has a zero positional encoder, so its output
# is exactly the pooled FFN output (the skip connection passes through).
cfg = ProjectorConfig("et_proj", c_in=6, c_out=5, grid_in=(4, 4), grid_out=(2, 2))
params = init_projector_params(cfg, seed=42)  # role -> array: "ffn1.weight", ...
print("\nparameter roles:", list(params))
x = np.random.default_rng(0).standard_normal((1, 16, 6)).astype(np.float32)
out = projector_forward(x, cfg, params)
ffn = ffn_forward(
    x,
    LinearParams(params["ffn1.weight"], params["ffn1.bias"]),
    LinearParams(params["ffn2.weight"], params["ffn2.bias"]),
)
# The spatial kernels are channel-last: the (16, 5) tokens are a (4, 4, 5) grid.
pooled = adaptive_avg_pool2d(ffn[0].reshape(4, 4, 5), 2, 2)
print("zero positional encoder == pooled FFN:", np.array_equal(out[0], pooled.reshape(4, 5)))

# Cost per frame (multiplies), same input geometry:
print("\nmultiplies per frame at 14x14x768 -> 896:")
print("  reducing :", f"{image_cfg.macs_per_frame():,}")
print("  mlp      :", f"{mlp_cfg.macs_per_frame():,}")
