"""Frame sampling, attention-based frame scoring, and top-K selection.

Scoring flattens all frame tokens into one (S, D_f) matrix, forms the
token-token attention matrix ``softmax_rows(F F^T / sqrt(D_f))``, and sums
the attention each token *receives* (column sums).  A frame's score is the
total received attention of its tokens.  Each attending token distributes
exactly one unit of mass, so the scores sum to S.

One blocked loop serves both scoring methods:

* ``dense`` takes all S rows as one block (bounded by a memory cap,
  FRAMESCOPE_MEM_CAP_MB; ``spatial_attention`` returns the full S x S
  matrix under the same cap).
* ``streaming`` accumulates column sums over fixed 256-row blocks, in
  block order, without ever holding S x S.

Attention logits and their exponentials are computed in the feature
dtype, in place in one buffer per block; row sums, normalisation and the
column accumulation run in float64, so mass conservation holds to ~1e-12
even at realistic S.
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


def _check_dense_capacity(s: int, mem_cap_mb: int | None) -> None:
    """Raise CapacityError when an S x S float64 matrix would exceed the memory cap.

    The cap is ``mem_cap_mb``, else FRAMESCOPE_MEM_CAP_MB, else 4096 MB; a
    cap that is not a non-negative integer raises ArgumentError naming its
    source.
    """
    if mem_cap_mb is None:
        raw = os.environ.get(MEM_CAP_ENV, str(DEFAULT_MEM_CAP_MB))
        bad = ArgumentError(f"{MEM_CAP_ENV} must be a non-negative integer, got {raw!r}")
        try:
            mem_cap_mb = int(raw)
        except ValueError:
            raise bad from None
        if mem_cap_mb < 0:
            raise bad
    elif mem_cap_mb < 0:
        raise ArgumentError(f"mem_cap_mb must be non-negative, got {mem_cap_mb}")
    if s * s * 8 > mem_cap_mb * 1024 * 1024:
        raise CapacityError(
            f"dense attention needs {s}x{s} float64 "
            f"({s * s * 8 // (1024 * 1024)} MB) which exceeds the memory cap; "
            f"use frame_scores(..., method='streaming')"
        )


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
    _check_dense_capacity(s, mem_cap_mb)
    logits = matmul(flat, flat.T).astype(np.float64) / math.sqrt(d)
    return softmax_rows(logits)


def frame_scores(
    features: FrameFeatures | np.ndarray,
    method: str = "streaming",
    mem_cap_mb: int | None = None,
) -> FrameScore:
    """Attention mass received per frame; dense and streaming paths agree to 1e-5.

    ``method='dense'`` scores all S rows as one block (capacity limited
    like ``spatial_attention``); ``'streaming'`` walks fixed 256-row blocks
    and never allocates S x S.  Each block's exponentials are computed in
    place in the feature dtype; row sums, normalisation and column sums
    run in float64.
    """
    flat, t, tokens_per_frame = _flat_tokens(features)
    s, d = flat.shape
    if method == "dense":
        _check_dense_capacity(s, mem_cap_mb)
        block = max(s, 1)
    elif method == "streaming":
        block = _STREAM_BLOCK_ROWS
    else:
        raise ArgumentError(f"unknown scoring method {method!r}")
    if flat.dtype.kind != "f":
        flat = flat.astype(np.float64)
    scale = flat.dtype.type(1.0 / math.sqrt(d))
    received = np.zeros(s, dtype=np.float64)
    for a in range(0, s, block):
        e = matmul(flat[a : a + block], flat.T)
        e -= e.max(axis=1, keepdims=True)
        e *= scale
        np.exp(e, out=e)
        received += (1.0 / e.sum(axis=1, dtype=np.float64)) @ e
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
