"""Reference model of a framescope run, in the benchmark's own plain numpy.

Nothing here imports framescope.  The generators (splitmix64 features and
projector weights) are re-derived from their documented definitions, and
``Reference.problems`` compares one call's outputs with this reference:

* key-frames: exact, except that when reference scores at the top-K
  boundary lie within ``SCORE_TOL`` of each other either choice is
  accepted;
* token budget and output shape: exact;
* fused tokens: within ``TOKEN_ATOL + TOKEN_RTOL * |ref|`` elementwise of a
  float64 reference computed from the same float32 inputs and weights.

The oracle runs in the benchmark's parent process, never in the timed and
memory-measured worker.
"""

from __future__ import annotations

import math
import os

import numpy as np

from workloads import GAMMA, MASK64, MODEL_SEED, MVGF, Workload, mix64, mvgf_image, mvgf_video, video_seeds

U64 = np.uint64

# Frame scores are sums of received attention mass, about H*W per frame.
# Logits are formed in float32 (by the program and by the reference), so
# scores carry float32 rounding of about 1e-5; the tolerance is 100x that.
SCORE_TOL = 1e-3
# The program projects in float32 (observed error about 2e-7 on values
# below 0.5); the reference is float64.
TOKEN_ATOL = 1e-5
TOKEN_RTOL = 1e-4

_GELU_C = math.sqrt(2.0 / math.pi)


def mix64_array(x: np.ndarray) -> np.ndarray:
    """splitmix64 over a uint64 array (arithmetic wraps modulo 2**64)."""
    with np.errstate(over="ignore"):
        z = x.astype(U64) + U64(GAMMA)
        z = (z ^ (z >> U64(30))) * U64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> U64(27))) * U64(0x94D049BB133111EB)
    return z ^ (z >> U64(31))


def _unit(words: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Top 53 bits onto [-1, 1), times scale, rounded to float32."""
    u = (words >> U64(11)).astype(np.float64) * (2.0 ** -53)
    return ((2.0 * u - 1.0) * scale).astype(np.float32)


def synth_image(seed: int, frames: int, grid, depth: int) -> np.ndarray:
    """Image-encoder stand-in: element i is mix64(seed ^ i) mapped onto [-1, 1)."""
    h, w = grid
    idx = np.arange(frames * h * w * depth, dtype=U64) ^ U64(seed & MASK64)
    return _unit(mix64_array(idx)).reshape(frames, h, w, depth)


def synth_video(seed: int, indices, grid, depth: int) -> np.ndarray:
    """Video-encoder stand-in: slot j streams mix64(seed ^ mix64(index_j) ^ i)."""
    h, w = grid
    elem = np.arange(h * w * depth, dtype=U64)
    return np.stack(
        [_unit(mix64_array(elem ^ U64(seed & MASK64) ^ U64(mix64(i)))).reshape(h, w, depth) for i in indices]
    )


def projector_weights(seed: int, stream: int, c_in: int, c_out: int) -> dict:
    """Fresh et_proj weights of one branch, as float64 copies of the float32 values.

    FFN weights stream mix64 values scaled by 1/sqrt(fan_in); biases and the
    positional encoder start at zero.
    """
    branch_seed = mix64((seed & MASK64) ^ mix64(stream))

    def weights(role: int, rows: int, cols: int) -> np.ndarray:
        idx = np.arange(rows * cols, dtype=U64) ^ U64(branch_seed) ^ U64(mix64(role))
        return _unit(mix64_array(idx), 1.0 / math.sqrt(rows)).reshape(rows, cols).astype(np.float64)

    return {
        "w1": weights(1, c_in, c_out),
        "b1": np.zeros(c_out),
        "w2": weights(2, c_out, c_out),
        "b2": np.zeros(c_out),
        "kernel": np.zeros((3, 3, c_out)),
        "kbias": np.zeros(c_out),
    }


def frame_scores(feats: np.ndarray, block: int = 512) -> np.ndarray:
    """Attention mass received per frame: column sums of softmax(F F^T / sqrt(D)).

    Logits in float32, softmax and sums in float64, over row blocks.
    """
    t, h, w, d = feats.shape
    flat = np.ascontiguousarray(feats.reshape(t * h * w, d), dtype=np.float32)
    received = np.zeros(flat.shape[0])
    for a in range(0, flat.shape[0], block):
        p = (flat[a : a + block] @ flat.T).astype(np.float64)
        p *= 1.0 / math.sqrt(d)
        p -= p.max(axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=1, keepdims=True)
        received += p.sum(axis=0)
    return received.reshape(t, h * w).sum(axis=1)


def _pool_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Adaptive-pool averaging weights along one axis, shape (n_out, n_in)."""
    m = np.zeros((n_out, n_in))
    for i in range(n_out):
        lo, hi = (i * n_in) // n_out, -((-(i + 1) * n_in) // n_out)
        m[i, lo:hi] = 1.0 / (hi - lo)
    return m


def project(feats: np.ndarray, wts: dict, grid_out) -> np.ndarray:
    """et_proj in float64: FFN, adaptive average pool, depthwise 3x3 conv with skip.

    feats (F, H, W, C_in) -> tokens (F * Hr * Wr, C_out), frame-major, grid
    cells row-major.  Pooling weights of each cell sum to 1 and the second
    FFN layer is affine, so the reference pools before that layer, which is
    the same function in exact arithmetic.
    """
    f, h, w, c_in = feats.shape
    hr, wr = grid_out
    hid = feats.reshape(-1, c_in).astype(np.float64) @ wts["w1"] + wts["b1"]
    hid = 0.5 * hid * (1.0 + np.tanh(_GELU_C * (hid + 0.044715 * hid * hid * hid)))
    hid = np.matmul(_pool_matrix(h, hr), hid.reshape(f, h, -1)).reshape(f, hr, w, -1)
    hid = np.matmul(_pool_matrix(w, wr), hid).reshape(f * hr * wr, -1)
    pooled = (hid @ wts["w2"] + wts["b2"]).reshape(f, hr, wr, -1)
    padded = np.zeros((f, hr + 2, wr + 2, pooled.shape[-1]))
    padded[:, 1:-1, 1:-1] = pooled
    out = pooled + wts["kbias"]
    for u in range(3):
        for v in range(3):
            out += wts["kernel"][u, v] * padded[:, u : u + hr, v : v + wr]
    return out.reshape(f * hr * wr, -1)


def keyframe_problem(scores: np.ndarray, chosen, k: int) -> str | None:
    """None when ``chosen`` is the top-K of ``scores`` up to ties within SCORE_TOL."""
    chosen = list(chosen)
    if len(chosen) != k or any(b <= a for a, b in zip(chosen, chosen[1:])):
        return f"key-frames {chosen} are not {k} strictly increasing indices"
    if chosen[0] < 0 or chosen[-1] >= scores.size:
        return f"key-frames {chosen} out of range for {scores.size} frames"
    mask = np.zeros(scores.size, dtype=bool)
    mask[chosen] = True
    if k < scores.size and scores[mask].min() < scores[~mask].max() - SCORE_TOL:
        best = sorted(np.argsort(-scores, kind="stable")[:k].tolist())
        return f"key-frames {chosen} differ from reference top-{k} {best}"
    return None


def token_problem(tokens: np.ndarray, ref: np.ndarray) -> str | None:
    """None when every token element is within tolerance of the float64 reference."""
    if tokens.shape != ref.shape:
        return f"token shape {tokens.shape} != reference {ref.shape}"
    excess = np.abs(tokens - ref) - (TOKEN_ATOL + TOKEN_RTOL * np.abs(ref))
    bad = int(np.count_nonzero(~(excess <= 0)))  # NaN counts as bad
    if bad:
        return f"{bad} token elements outside tolerance (worst excess {np.nanmax(excess):.3g})"
    return None


class Reference:
    """Float64 reference outputs of one workload; weights are built once."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.w = w
        self.seed = seed
        self.image_wts = projector_weights(MODEL_SEED, 1, w.image_depth, w.embed_width)
        self.video_wts = projector_weights(MODEL_SEED, 2, w.video_depth, w.embed_width)

    def image_features(self, video_id: int) -> np.ndarray:
        w = self.w
        if w.source == MVGF:
            image = mvgf_image(w, self.seed, video_id)
            picks = [(i * image.shape[0]) // w.frames for i in range(w.frames)]
            return image[picks]
        return synth_image(video_seeds(self.seed, video_id)[0], w.frames, w.image_grid, w.image_depth)

    def video_features(self, video_id: int, keyframes) -> np.ndarray:
        w = self.w
        if w.source == MVGF:
            return mvgf_video(w, self.seed, video_id)
        return synth_video(video_seeds(self.seed, video_id)[1], keyframes, w.video_grid, w.video_depth)

    def problems(self, out: dict, tokens: np.ndarray | None) -> list[str]:
        """Every way one call's outputs differ from the reference; empty when correct."""
        w = self.w
        if out.get("error"):
            return [f"call failed: {out['error']}"]
        found = []
        budget = w.token_budget()
        if out["budget"] != budget:
            found.append(f"budget {out['budget']} != {budget}")
        shape = [1, budget["total"], w.embed_width]
        if tokens is None or list(tokens.shape) != shape:
            found.append(f"token shape {None if tokens is None else list(tokens.shape)} != {shape}")
            return found
        image = self.image_features(out["video"])
        scores = frame_scores(image)
        bad = keyframe_problem(scores, out["keyframes"], w.keyframes)
        if bad:
            return found + [bad]
        blocks = []
        if w.has_image_branch:
            blocks.append(project(image, self.image_wts, w.image_grid_out))
        video = self.video_features(out["video"], out["keyframes"])
        blocks.append(project(video, self.video_wts, w.video_grid_out))
        bad = token_problem(tokens[0], np.concatenate(blocks))
        return found + ([bad] if bad else [])


def verify_calls(w: Workload, seed: int, calls: list[dict], outdir: str) -> dict[int, list[str]]:
    """Problems per call index, for every call whose outputs are wrong.

    Each call's token file is read, checked and deleted.
    """
    ref = Reference(w, seed)
    wrong = {}
    for i, out in enumerate(calls):
        tokens = None
        if out.get("tokens"):
            path = os.path.join(outdir, out["tokens"])
            tokens = np.load(path)
            os.remove(path)
        found = ref.problems(out, tokens)
        if found:
            wrong[i] = found
    return wrong
