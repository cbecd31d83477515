"""Frame sampling, attention-based frame scoring, and top-K selection.

Scoring flattens all frame tokens into one (S, D_f) matrix, forms the
token-token attention matrix ``softmax_rows(F F^T / sqrt(D_f))``, and sums
the attention each token *receives* (column sums).  A frame's score is the
total received attention of its tokens.  Each attending token distributes
exactly one unit of mass, so the scores sum to S.

One scorer accumulates column sums without ever holding S x S
(``spatial_attention`` returns the full S x S matrix for callers that
want it).  The logit matrix is symmetric, so the scorer cuts the tokens
into frame-aligned blocks of at most 784 rows and forms each block pair
(i, j) with j >= i once, by one GEMM into one reused buffer: 62.5% of
the S^2 * D_f multiplies at 16 frames of 14 x 14 tokens.  Each block
serves the rows of i over the columns of j and, transposed, the rows of
j over the columns of i, so a row meets its columns a block at a time
and its softmax is normalised online, with a running max per row
(Milakov & Gimelshein 2018, the normaliser FlashAttention uses).

Attention logits and their exponentials are computed in the feature
dtype.  One product against a ones vector reduces each slice of
exponentials to per-frame partial sums, still in the feature dtype;
those are widened to float64 into an (S, T) table of partials, rescaled
there when a row's max rises, and each row is divided by the sum of its
own partials before the rows are added, so mass conservation holds to
~1e-12 even at realistic S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError
from .features import FrameFeatures
from .numerics import matmul, softmax_rows

_BLOCK_ROWS = 784  # row budget of a scorer block: four frames of 14 x 14 tokens
_SLICE_ROWS = 196  # row budget of a slice: 600 KB of float32 per 784-column block, fits L2


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
    if min(tensor.shape) < 1:
        raise ArgumentError(f"feature dims must be positive, got shape {tensor.shape}")
    t, h, w, d = tensor.shape
    return tensor.reshape(t * h * w, d), t, h * w


def spatial_attention(features: FrameFeatures | np.ndarray) -> np.ndarray:
    """Dense token-token attention matrix, shape (S, S), float64.

    ``softmax_rows(F_flat @ F_flat.T / sqrt(D_f))``; every row sums to 1.
    Allocates S x S float64 (78.7 MB at S = 3136); past what numpy can
    allocate, numpy's own MemoryError names the size.  ``frame_scores``
    never holds S x S.
    """
    flat, _, _ = _flat_tokens(features)
    d = flat.shape[1]
    logits = matmul(flat, flat.T).astype(np.float64) / math.sqrt(d)
    return softmax_rows(logits)


def _block_plan(frames: int, tokens_per_frame: int) -> list[tuple[int, int]]:
    """Frame ranges ``[f0, f1)`` of the scorer's blocks, in order.

    Each block holds as many whole frames as fit in ``_BLOCK_ROWS`` token
    rows, and at least one frame, so a frame larger than the budget is a
    block of its own.  ``pipeline.mac_report`` counts the scorer's GEMMs
    from this plan.
    """
    step = max(1, _BLOCK_ROWS // tokens_per_frame)
    return [(f, min(f + step, frames)) for f in range(0, frames, step)]


def frame_scores(features: FrameFeatures | np.ndarray) -> FrameScore:
    """Attention mass received per frame: the per-frame column sums of ``spatial_attention``.

    The logit matrix ``F F^T`` is symmetric, so only the blocks (i, j)
    with j >= i of ``_block_plan`` are formed, each by one GEMM into one
    reused buffer.  An off-diagonal block serves two sets of rows: the
    rows of i over the columns of j, and, transposed, the rows of j over
    the columns of i.  A row's softmax therefore sees its columns a block
    at a time, and is normalised online (Milakov & Gimelshein 2018): each
    row keeps a running max of its logits, in the feature dtype, and its
    per-frame partial sums ``P`` (S x T, float64); when the max rises, the
    row's partials are multiplied by ``exp((m_old - m_new) * scale)`` in
    float64.  A frame's score is ``sum_r P[r, f] / sum_f' P[r, f']``.

    Each block is walked in slices of whole frames of i.  The transposed
    side of a slice is exponentiated into a small slice buffer and reduced
    over each frame of i by a product with a ones vector; the row side is
    then exponentiated in place and reduced over each frame of j the same
    way (plain products, outside the MAC model, so ``count_macs`` sees
    only the block GEMMs).  Logits and exponentials stay in the feature dtype; the per-frame
    sums are widened to float64.  Memory is O(budget^2 + S * T): the
    block buffer, the slice buffer, the partials and the running max.
    """
    flat, t, per_frame = _flat_tokens(features)
    s, d = flat.shape
    if flat.dtype.kind != "f":
        flat = flat.astype(np.float64)
    scale = flat.dtype.type(1.0 / math.sqrt(d))
    plan = _block_plan(t, per_frame)
    widest = max(f1 - f0 for f0, f1 in plan) * per_frame
    step = max(1, _SLICE_ROWS // per_frame)  # frames per slice
    block = np.empty(widest * widest, dtype=flat.dtype)
    side = np.empty(step * per_frame * widest, dtype=flat.dtype)
    ones = np.ones(per_frame, dtype=flat.dtype)
    row_max = np.full(s, -np.inf, dtype=flat.dtype)
    partials = np.zeros((s, t), dtype=np.float64)

    def lift(rows: slice, tile_max: np.ndarray) -> np.ndarray:
        """Raise the running max of ``rows`` to cover a tile and rescale their partials."""
        old = row_max[rows]
        new = np.maximum(old, tile_max)
        partials[rows] *= np.exp((old.astype(np.float64) - new) * float(scale))[:, None]
        row_max[rows] = new
        return new

    for i, (f0, f1) in enumerate(plan):
        rows = slice(f0 * per_frame, f1 * per_frame)
        for g0, g1 in plan[i:]:
            cols = slice(g0 * per_frame, g1 * per_frame)
            n, m = (f1 - f0) * per_frame, (g1 - g0) * per_frame
            logits = matmul(flat[rows], flat[cols].T, out=block[: n * m].reshape(n, m))
            row_top = lift(rows, logits.max(axis=1))
            col_top = lift(cols, logits.max(axis=0)) if g0 != f0 else None
            for h0 in range(f0, f1, step):
                h1 = min(h0 + step, f1)
                lo, hi = (h0 - f0) * per_frame, (h1 - f0) * per_frame
                tile = logits[lo:hi]
                if col_top is not None:
                    # the rows of j over frames h0:h1, taken before the row side overwrites the tile
                    e = np.subtract(tile, col_top, out=side[: tile.size].reshape(tile.shape))
                    e *= scale
                    np.exp(e, out=e)
                    partials[cols, h0:h1] = (ones @ e.reshape(h1 - h0, per_frame, m)).T
                tile -= row_top[lo:hi, None]
                tile *= scale
                np.exp(tile, out=tile)
                sums = tile.reshape(-1, per_frame) @ ones
                partials[h0 * per_frame : h1 * per_frame, g0:g1] = sums.reshape(hi - lo, g1 - g0)
    partials /= partials.sum(axis=1, keepdims=True)
    return FrameScore(partials.sum(axis=0))


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
