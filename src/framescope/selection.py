"""Frame sampling, attention-based frame scoring, and top-K selection.

Scoring flattens all frame tokens into one (S, D_f) matrix, forms the
token-token attention matrix ``softmax_rows(F F^T / sqrt(D_f))``, and sums
the attention each token *receives* (column sums).  A frame's score is the
total received attention of its tokens.  Each attending token distributes
exactly one unit of mass, so the scores sum to S.

Two implementations are provided:

* ``dense`` materializes the full S x S matrix (reference path; bounded by
  a memory cap, FRAMESCOPE_MEM_CAP_MB).
* ``streaming`` accumulates column sums over fixed row blocks, in block
  order, without ever holding S x S.

Attention logits are computed in the feature dtype; the softmax and all
score accumulation run in float64 so that mass conservation holds to
~1e-12 even at realistic S.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, CapacityError
from .features import FrameFeatures
from .numerics import matmul, softmax_rows

DEFAULT_MEM_CAP_MB = 4096
MEM_CAP_ENV = "FRAMESCOPE_MEM_CAP_MB"

_STREAM_BLOCK_ROWS = 256


@dataclass
class FrameScore:
    """Per-frame importance: non-negative scores, one entry per frame."""

    scores: np.ndarray

    def __post_init__(self) -> None:
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if self.scores.ndim != 1 or self.scores.size < 1:
            raise ArgumentError(f"scores must be a non-empty vector, got shape {self.scores.shape}")
        if not np.all(np.isfinite(self.scores)) or np.any(self.scores < 0):
            raise ArgumentError("scores must be finite and non-negative")

    @property
    def frames(self) -> int:
        return self.scores.size

    @property
    def total_mass(self) -> float:
        return float(self.scores.sum())


@dataclass(frozen=True)
class KeyFrameSet:
    """Selected frame indices in temporal (ascending) order."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(i < 0 for i in self.indices):
            raise ArgumentError(f"frame indices must be non-negative, got {self.indices}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ArgumentError(f"frame indices must be strictly increasing, got {self.indices}")

    def __len__(self) -> int:
        return len(self.indices)


def uniform_sample_indices(total_frames: int, frames: int) -> list[int]:
    """Evenly spaced source indices: ``indices[i] = floor(i * total / frames)``.

    When total_frames < frames the same formula applies unchanged, so
    indices repeat (clamped uniform policy).
    """
    if total_frames < 1 or frames < 1:
        raise ArgumentError(
            f"total_frames and frames must be positive, got {total_frames}, {frames}"
        )
    return [(i * total_frames) // frames for i in range(frames)]


def _flat_tokens(features: FrameFeatures | np.ndarray) -> tuple[np.ndarray, int, int]:
    """Flatten (T, H, W, D) to (S, D); returns (matrix, T, tokens_per_frame)."""
    tensor = features.tensor if isinstance(features, FrameFeatures) else np.asarray(features)
    if tensor.ndim != 4:
        raise ArgumentError(f"expected (T, H, W, D) features, got shape {tensor.shape}")
    t, h, w, d = tensor.shape
    return tensor.reshape(t * h * w, d), t, h * w


def _mem_cap_bytes(mem_cap_mb: int | None) -> int:
    if mem_cap_mb is None:
        mem_cap_mb = int(os.environ.get(MEM_CAP_ENV, DEFAULT_MEM_CAP_MB))
    return mem_cap_mb * 1024 * 1024


def spatial_attention(
    features: FrameFeatures | np.ndarray, mem_cap_mb: int | None = None
) -> np.ndarray:
    """Dense token-token attention matrix, shape (S, S), float64.

    ``softmax_rows(F_flat @ F_flat.T / sqrt(D_f))``; every row sums to 1.
    Raises CapacityError when S x S would exceed the memory cap (set
    ``mem_cap_mb`` or the FRAMESCOPE_MEM_CAP_MB environment variable); the
    streaming scorer has no such limit.
    """
    flat, _, _ = _flat_tokens(features)
    s, d = flat.shape
    if s * s * 8 > _mem_cap_bytes(mem_cap_mb):
        raise CapacityError(
            f"dense attention needs {s}x{s} float64 "
            f"({s * s * 8 // (1024 * 1024)} MB) which exceeds the memory cap; "
            f"use frame_scores(..., method='streaming')"
        )
    logits = matmul(flat, flat.T).astype(np.float64) / math.sqrt(d)
    return softmax_rows(logits)


def frame_scores(
    features: FrameFeatures | np.ndarray,
    method: str = "streaming",
    mem_cap_mb: int | None = None,
) -> FrameScore:
    """Attention mass received per frame; dense and streaming paths agree to 1e-5.

    ``method='dense'`` materializes the full attention matrix (capacity
    limited); ``'streaming'`` walks fixed row blocks and never allocates
    S x S.
    """
    flat, t, tokens_per_frame = _flat_tokens(features)
    s, d = flat.shape
    if method == "dense":
        received = spatial_attention(features, mem_cap_mb=mem_cap_mb).sum(axis=0)
    elif method == "streaming":
        received = np.zeros(s, dtype=np.float64)
        for a in range(0, s, _STREAM_BLOCK_ROWS):
            logits = matmul(flat[a : a + _STREAM_BLOCK_ROWS], flat.T).astype(np.float64)
            received += softmax_rows(logits / math.sqrt(d)).sum(axis=0)
    else:
        raise ArgumentError(f"unknown scoring method {method!r}")
    return FrameScore(received.reshape(t, tokens_per_frame).sum(axis=1))


def top_k_frames(score: FrameScore | np.ndarray, k: int) -> KeyFrameSet:
    """Indices of the K highest-scoring frames, ascending.

    Ties break toward the smaller frame index; the returned order is
    temporal, not by score, so a downstream clip encoder sees a coherent
    sequence.
    """
    scores = score.scores if isinstance(score, FrameScore) else np.asarray(score, dtype=np.float64)
    t = scores.size
    if k < 1 or k > t:
        raise ArgumentError(f"k must satisfy 1 <= k <= {t}, got {k}")
    winners = np.argsort(-scores, kind="stable")[:k]
    return KeyFrameSet(tuple(int(i) for i in np.sort(winners)))
