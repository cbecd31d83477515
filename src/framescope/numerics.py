"""Dense tensor kernels with analytic backward passes.

Tensors are plain numpy arrays of dtype float32 or float64.  float32 is
the default compute dtype; float64 is used for gradient checking.  The
spatial kernels and their gradients take and return channel-last
(..., H, W, C) tensors, the layout of the features and the FFN output,
so a token tensor (B, H*W, C) reshapes into them without a copy.  Every
kernel is a pure function of its inputs and is deterministic
bit-for-bit: identical inputs give identical outputs across runs and
processes, because all reductions happen in a fixed order.

MAC accounting
--------------
The cost model counts multiplications only (additions are free).  Kernels
report their counts to any active ``count_macs()`` context:

* ``matmul``  (m, k) x (k, n)            -> m * n * k
* ``linear``  tokens x C_in -> C_out     -> tokens * C_in * C_out
* ``adaptive_avg_pool2d`` Hr x Wr x C    -> Hr * Wr * C   (one division
  by the region size per output element)
* ``depthwise_conv3x3``  H x W x C       -> 9 * H * W * C
* pool and conv accept leading batch axes; their counts scale with the batch

Elementwise work (softmax exponentials, GELU, attention-logit scaling)
and all backward passes are deliberately *not* counted; the counter
models forward pipeline compute and must stay in exact agreement with
the analytic report in :mod:`framescope.pipeline`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UnsupportedUpsampleError

DEFAULT_DTYPE = np.float32

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_CHUNK = 1 << 16  # elements gelu evaluates per pass


# ---------------------------------------------------------------------------
# MAC instrumentation
# ---------------------------------------------------------------------------

class MacCounter:
    """Accumulates multiply counts while active; see ``count_macs()``."""

    def __init__(self) -> None:
        self.total = 0

    def __enter__(self) -> "MacCounter":
        _active_counters.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _active_counters.remove(self)


_active_counters: list[MacCounter] = []


def count_macs() -> MacCounter:
    """Context manager that counts forward-pass multiplies of the kernels."""
    return MacCounter()


def _add_macs(n: int) -> None:
    for c in _active_counters:
        c.total += n


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass
class LinearParams:
    """Weights of one affine map: ``y = x @ weight + bias``.

    weight: (C_in, C_out), bias: (C_out,); dtypes must match.
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise ShapeError(
                f"linear params need 2-d weight and 1-d bias, got "
                f"{self.weight.shape} and {self.bias.shape}"
            )
        if self.weight.shape[1] != self.bias.shape[0]:
            raise ShapeError(
                f"weight {self.weight.shape} and bias {self.bias.shape} disagree "
                f"on output width"
            )
        if self.weight.dtype != self.bias.dtype:
            raise ShapeError(
                f"weight dtype {self.weight.dtype} != bias dtype {self.bias.dtype}"
            )

    @property
    def c_in(self) -> int:
        return self.weight.shape[0]

    @property
    def c_out(self) -> int:
        return self.weight.shape[1]


@dataclass
class ConvParams:
    """Depthwise 3x3 filter bank: kernel (C, 3, 3), bias (C,)."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        if self.kernel.ndim != 3 or self.kernel.shape[1:] != (3, 3):
            raise ShapeError(
                f"depthwise kernel must be (C, 3, 3), got {self.kernel.shape}"
            )
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError(
                f"conv bias {self.bias.shape} does not match kernel channels "
                f"{self.kernel.shape[0]}"
            )
        if self.kernel.dtype != self.bias.dtype:
            raise ShapeError(
                f"kernel dtype {self.kernel.dtype} != bias dtype {self.bias.dtype}"
            )

    @property
    def channels(self) -> int:
        return self.kernel.shape[0]


# ---------------------------------------------------------------------------
# Forward kernels
# ---------------------------------------------------------------------------

def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Matrix product of a (m, k) and b (k, n), written into ``out`` if given.

    Counts m*n*k multiplies whether or not ``out`` is given, and returns
    ``out`` itself when it is, with the same bits as ``a @ b``.  Raises
    ShapeError naming both shapes on an inner-dimension mismatch, or
    naming ``out``'s shape and the product's when they differ.
    """
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    if out is not None and out.shape != (a.shape[0], b.shape[1]):
        raise ShapeError(
            f"matmul out has shape {out.shape}, but the product is {(a.shape[0], b.shape[1])}"
        )
    _add_macs(a.shape[0] * b.shape[1] * a.shape[1])
    return np.matmul(a, b, out=out)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-d matrix.

    The row maximum is subtracted before exponentiation (mandatory for
    stability), so shifting a row by a constant leaves its output unchanged
    and every output row sums to 1 within dtype tolerance.
    """
    if m.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-d matrix, got {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def gelu(x: np.ndarray) -> np.ndarray:
    """GELU activation, tanh approximation.

    Exactly: ``0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x**3)))``,
    with that expression's operations in that order, evaluated in place in
    the output a cache-sized chunk at a time; x is left unchanged.
    """
    dtype = np.result_type(x, 0.5)
    out = np.empty(x.shape, dtype)
    flat_out, flat_x = out.reshape(-1), x.reshape(-1)
    half = np.empty(min(_GELU_CHUNK, flat_out.size), dtype)
    for i in range(0, flat_out.size, _GELU_CHUNK):
        o, xs = flat_out[i : i + _GELU_CHUNK], flat_x[i : i + _GELU_CHUNK]
        np.multiply(_GELU_A, xs, out=o)
        o *= xs
        o *= xs
        o += xs
        o *= _GELU_C
        np.tanh(o, out=o)
        o += 1.0
        h = half[: o.size]
        np.multiply(0.5, xs, out=h)
        o *= h
    return out


def linear(x: np.ndarray, p: LinearParams) -> np.ndarray:
    """Affine map over the last axis: (..., C_in) -> (..., C_out)."""
    if x.shape[-1] != p.c_in:
        raise ShapeError(
            f"linear input width {x.shape[-1]} does not match weight "
            f"{p.weight.shape}"
        )
    flat = x.reshape(-1, p.c_in)
    out = matmul(flat, p.weight)
    out += p.bias
    return out.reshape(*x.shape[:-1], p.c_out)


def ffn_forward(x: np.ndarray, p1: LinearParams, p2: LinearParams) -> np.ndarray:
    """Two-layer feed-forward network applied independently per token.

    x: (B, N, C_in); p1 maps C_in -> C_hidden, p2 maps C_hidden -> C_out.
    Computes ``linear -> gelu -> linear``.
    """
    if x.ndim != 3:
        raise ShapeError(f"ffn_forward needs (B, N, C_in), got {x.shape}")
    if p1.c_out != p2.c_in:
        raise ShapeError(
            f"ffn hidden widths disagree: first layer {p1.weight.shape}, "
            f"second layer {p2.weight.shape}"
        )
    return linear(gelu(linear(x, p1)), p2)


@functools.lru_cache(maxsize=64)
def _sum_matrix(n: int, r: int, dtype: np.dtype) -> np.ndarray:
    """(r, n) 0/1 matrix whose row i sums region [floor(i*n/r), ceil((i+1)*n/r))."""
    if not 1 <= r <= n:
        raise UnsupportedUpsampleError(f"cannot pool an axis of {n} cells to {r}; need 1..{n}")
    i = np.arange(r)[:, None]
    lo, hi = (i * n) // r, -((-(i + 1) * n) // r)
    cols = np.arange(n)
    m = ((cols >= lo) & (cols < hi)).astype(dtype)
    m.setflags(write=False)
    return m


def _pool_operators(
    h: int, w: int, hr: int, wr: int, dtype: np.dtype
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row sums ``S_h`` (hr, h), column sums ``S_w`` (wr, w) and the (hr, wr, 1) region sizes."""
    s_h, s_w = _sum_matrix(h, hr, dtype), _sum_matrix(w, wr, dtype)
    return s_h, s_w, np.outer(s_h.sum(axis=1), s_w.sum(axis=1))[:, :, None]


def adaptive_avg_pool2d(x: np.ndarray, hr: int, wr: int) -> np.ndarray:
    """Adaptive average pooling of (..., H, W, C) down to (..., hr, wr, C).

    Output cell (i, j) averages the input region
    ``rows [floor(i*H/hr), ceil((i+1)*H/hr)) x cols [floor(j*W/wr), ceil((j+1)*W/wr))``.
    Regions may overlap when hr does not divide H.  With hr == H and
    wr == W this is the identity; upsampling is not supported.  Two 0/1
    region matrices do the sums: ``S_h`` sums rows as one product over
    (..., H, W*C), ``S_w`` sums columns over (..., hr, W, C), and each
    cell is then divided once by its region size, so a subnormal constant
    pools to itself.
    """
    if x.ndim < 3:
        raise ShapeError(f"adaptive_avg_pool2d needs (..., H, W, C), got {x.shape}")
    *batch, h, w, c = x.shape
    s_h, s_w, sizes = _pool_operators(h, w, hr, wr, x.dtype)
    _add_macs(math.prod(batch) * hr * wr * c)
    rows = s_h @ x.reshape(*batch, h, w * c)
    out = s_w @ rows.reshape(*batch, hr, w, c)
    out /= sizes
    return out


# Output and input slices along one axis for tap offset u: output cell i
# reads input cell i + u - 1.  Taps that fall in the zero border are
# skipped: with a finite kernel their products are +-0, which leave the sum
# unchanged.
_TAP_SLICES = (
    (slice(1, None), slice(None, -1)),
    (slice(None), slice(None)),
    (slice(None, -1), slice(1, None)),
)


def depthwise_conv3x3(x: np.ndarray, p: ConvParams) -> np.ndarray:
    """Per-channel 3x3 cross-correlation of (..., H, W, C), zero padding 1, stride 1, plus bias.

    The output has the input's shape.  One frame at a time, so a frame's
    accumulator and product buffer stay in cache: the nine taps are
    accumulated in fixed scan order into the frame's zero-initialised
    output, then the bias is added.
    """
    if x.ndim < 3:
        raise ShapeError(f"depthwise_conv3x3 needs (..., H, W, C), got {x.shape}")
    *batch, h, w, c = x.shape
    if p.channels != c:
        raise ShapeError(
            f"input has {c} channels but kernel is {p.kernel.shape}"
        )
    taps = np.ascontiguousarray(np.moveaxis(p.kernel, 0, -1))  # (3, 3, C), like the tensors
    out = np.empty(x.shape, dtype=x.dtype)
    prod = np.empty((h, w, c), dtype=np.result_type(x, p.kernel))
    for frame in np.ndindex(*batch):
        src, acc = x[frame], out[frame]
        acc.fill(0)
        for u, (out_r, in_r) in enumerate(_TAP_SLICES):
            for v, (out_c, in_c) in enumerate(_TAP_SLICES):
                tap = prod[out_r, out_c]
                np.multiply(taps[u, v], src[in_r, in_c], out=tap)
                acc[out_r, out_c] += tap
        acc += p.bias
    _add_macs(9 * math.prod(batch) * h * w * c)
    return out


# ---------------------------------------------------------------------------
# Backward kernels (not MAC-counted; the cost model is forward-only)
# ---------------------------------------------------------------------------

def matmul_grad(
    a: np.ndarray, b: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of ``matmul(a, b)`` w.r.t. a and b given upstream g."""
    if g.shape != (a.shape[0], b.shape[1]):
        raise ShapeError(
            f"upstream gradient {g.shape} does not match matmul output "
            f"({a.shape[0]}, {b.shape[1]})"
        )
    return g @ b.T, a.T @ g


def gelu_grad(x: np.ndarray) -> np.ndarray:
    """Derivative of the tanh-approximation GELU at x."""
    inner = _GELU_C * (x + _GELU_A * x * x * x)
    t = np.tanh(inner)
    return 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)


def linear_grad(
    x: np.ndarray, p: LinearParams, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``linear(x, p)``: returns (dx, dweight, dbias)."""
    if g.shape != (*x.shape[:-1], p.c_out):
        raise ShapeError(
            f"upstream gradient {g.shape} does not match linear output "
            f"{(*x.shape[:-1], p.c_out)}"
        )
    gf = g.reshape(-1, p.c_out)
    xf = x.reshape(-1, p.c_in)
    dx = (gf @ p.weight.T).reshape(x.shape)
    return dx, xf.T @ gf, gf.sum(axis=0)


def ffn_grad(
    x: np.ndarray, p1: LinearParams, p2: LinearParams, g: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Gradients of ``ffn_forward``: (dx, (dW1, db1), (dW2, db2))."""
    h1 = linear(x, p1)
    a = gelu(h1)
    da, dw2, db2 = linear_grad(a, p2, g)
    dh1 = da * gelu_grad(h1)
    dx, dw1, db1 = linear_grad(x, p1, dh1)
    return dx, (dw1, db1), (dw2, db2)


def pool_grad(in_shape: tuple[int, ...], g: np.ndarray) -> np.ndarray:
    """Gradient of ``adaptive_avg_pool2d`` w.r.t. its (..., H, W, C) input.

    Each input cell collects ``g[..., i, j, c] / region_size`` from every
    output region that covers it (regions overlap for non-divisible grids):
    g is divided once by the region sizes, then spread back over the
    columns by ``S_w^T`` and over the rows by ``S_h^T``.
    """
    if len(in_shape) < 3:
        raise ShapeError(f"pool_grad needs an (..., H, W, C) input shape, got {tuple(in_shape)}")
    *lead, h, w, c = in_shape
    if g.ndim != len(in_shape) or g.shape[:-3] != tuple(lead) or g.shape[-1] != c:
        raise ShapeError(f"gradient {g.shape} does not match input {tuple(in_shape)}")
    hr, wr = g.shape[-3:-1]
    s_h, s_w, sizes = _pool_operators(h, w, hr, wr, g.dtype)
    cols = s_w.T @ (g / sizes)
    return (s_h.T @ cols.reshape(*lead, hr, w * c)).reshape(*lead, h, w, c)


def conv_grad(
    x: np.ndarray, p: ConvParams, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``depthwise_conv3x3``: returns (dx, dkernel, dbias).

    Walks the forward's tap slices one frame at a time, so border taps
    are skipped, not multiplied by padding; dkernel and dbias sum the
    frames in order.
    """
    if x.ndim < 3:
        raise ShapeError(f"conv_grad needs (..., H, W, C), got {x.shape}")
    if g.shape != x.shape:
        raise ShapeError(f"upstream gradient {g.shape} does not match input {x.shape}")
    *batch, _, _, c = x.shape
    if p.channels != c:
        raise ShapeError(f"input has {c} channels but kernel is {p.kernel.shape}")
    dx = np.zeros(x.shape, dtype=x.dtype)
    dk = np.zeros_like(p.kernel)
    db = np.zeros(c, dtype=g.dtype)
    for frame in np.ndindex(*batch):
        src, grad, acc = x[frame], g[frame], dx[frame]
        for u, (out_r, in_r) in enumerate(_TAP_SLICES):
            for v, (out_c, in_c) in enumerate(_TAP_SLICES):
                tap = grad[out_r, out_c]
                dk[:, u, v] += (tap * src[in_r, in_c]).sum(axis=(0, 1))
                acc[in_r, in_c] += p.kernel[:, u, v] * tap
        db += grad.sum(axis=(0, 1))
    return dx, dk, db
