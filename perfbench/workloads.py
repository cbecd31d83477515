"""Workload table and input generation.

Every input of a run is a pure function of the workload seed and the
video id, so the same seed gives the same inputs.  Model weights are not
inputs: they stay fixed through the config's own ``seed`` (``MODEL_SEED``),
as for a deployed model, while every video gets different features.

This module does not import framescope; the worker and the oracle both
build on it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

MODEL_SEED = 0
EMBED_WIDTH = 896

SYNTHETIC = "synthetic"
MVGF = "mvgf"


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    keyframes: int
    branch_mode: str  # "dual" or "video_only"
    source: str  # SYNTHETIC or MVGF
    image_grid: tuple[int, int] = (14, 14)
    image_depth: int = 768
    image_grid_out: tuple[int, int] = (12, 12)
    video_grid: tuple[int, int] = (14, 14)
    video_depth: int = 576
    video_grid_out: tuple[int, int] = (7, 7)
    embed_width: int = EMBED_WIDTH
    file_frames: tuple[int, int] = (4, 32)  # MVGF image files hold this many frames, inclusive

    @property
    def has_image_branch(self) -> bool:
        return self.branch_mode == "dual"

    def config_kwargs(self) -> dict:
        """Arguments of ``framescope.make_config``; every geometry field is explicit."""
        return {
            "frames": self.frames,
            "keyframes": self.keyframes,
            "branch_mode": self.branch_mode,
            "projector_kind": "et_proj",
            "frame_selection": "attention_based",
            "seed": MODEL_SEED,
            "embed_width": self.embed_width,
            "image_grid": self.image_grid,
            "image_depth": self.image_depth,
            "image_grid_out": self.image_grid_out,
            "video_grid": self.video_grid,
            "video_depth": self.video_depth,
            "video_grid_out": self.video_grid_out,
        }

    def token_budget(self) -> dict:
        image = self.frames * self.image_grid_out[0] * self.image_grid_out[1]
        image = image if self.has_image_branch else 0
        video = self.keyframes * self.video_grid_out[0] * self.video_grid_out[1]
        return {"image_tokens": image, "video_tokens": video, "total": image + video}


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "default_16f",
            frames=16,
            keyframes=8,
            branch_mode="dual",
            source=SYNTHETIC,
        ),
        Workload(
            "long_clip_32f",
            frames=32,
            keyframes=4,
            branch_mode="video_only",
            source=SYNTHETIC,
        ),
        Workload(
            "short_clips_mvgf",
            frames=4,
            keyframes=2,
            branch_mode="dual",
            source=MVGF,
        ),
    )
}


def mix64(x: int) -> int:
    """One splitmix64 step on a Python int."""
    z = (int(x) + GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def video_seeds(seed: int, video_id: int) -> tuple[int, int]:
    """(image seed, video seed) of one synthetic video; 64-bit, so streams never overlap."""
    image_seed = mix64(mix64(seed) ^ video_id)
    return image_seed, mix64(image_seed ^ 0x5EED)


def mvgf_image(w: Workload, seed: int, video_id: int) -> np.ndarray:
    """Image features (T', H, W, D) of one video, T' drawn from ``file_frames``.

    Values are uniform on [-1, 1), like the synthetic encoders, so that
    attention scores separate frames.
    """
    rng = np.random.default_rng([seed, video_id, 0])
    lo, hi = w.file_frames
    t = int(rng.integers(lo, hi + 1))
    return 2.0 * rng.random((t, *w.image_grid, w.image_depth), dtype=np.float32) - 1.0


def mvgf_video(w: Workload, seed: int, video_id: int) -> np.ndarray:
    """Video features (K, H, W, D) of one video's key-frames."""
    rng = np.random.default_rng([seed, video_id, 1])
    return 2.0 * rng.random((w.keyframes, *w.video_grid, w.video_depth), dtype=np.float32) - 1.0


def write_mvgf(path, t: np.ndarray) -> None:
    """Write one float32 tensor in the MVGF layout (magic, version 1, dtype 1, rank, dims, payload)."""
    t = np.ascontiguousarray(t, dtype="<f4")
    with open(path, "wb") as f:
        f.write(b"MVGF" + struct.pack("<IBB", 1, 1, t.ndim) + struct.pack(f"<{t.ndim}Q", *t.shape))
        f.write(t.tobytes())
