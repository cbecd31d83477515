"""Dense tensor kernels with analytic backward passes.

Tensors are plain numpy arrays of dtype float32 or float64.  float32 is
the default compute dtype; float64 is used for gradient checking.  The
spatial kernels take and return a logical (..., C, H, W) shape but work
channel-last (..., H, W, C) in memory: an input whose memory is already
channel-last is read without a copy, and the result may be a
non-contiguous channel-last view.  Callers rely on shapes and values,
never on strides.  Every kernel is a pure function of its inputs and is
deterministic bit-for-bit: identical inputs give identical outputs across
runs and processes, because all reductions happen in a fixed order.

MAC accounting
--------------
The cost model counts multiplications only (additions are free).  Kernels
report their counts to any active ``count_macs()`` context:

* ``matmul``  (m, k) x (k, n)            -> m * n * k
* ``linear``  tokens x C_in -> C_out     -> tokens * C_in * C_out
* ``adaptive_avg_pool2d`` C x Hr x Wr    -> C * Hr * Wr   (one division
  by the region size per output element)
* ``depthwise_conv3x3``  C x H x W       -> 9 * C * H * W
* pool and conv accept leading batch axes; their counts scale with the batch

Elementwise work (softmax exponentials, GELU, attention-logit scaling)
and all backward passes are deliberately *not* counted; the counter
models forward pipeline compute and must stay in exact agreement with
the analytic report in :mod:`framescope.pipeline`.
"""

from __future__ import annotations

import functools
import math
import threading
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
        with _counter_lock:
            _active_counters.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        with _counter_lock:
            _active_counters.remove(self)


_active_counters: list[MacCounter] = []
_counter_lock = threading.Lock()


def count_macs() -> MacCounter:
    """Context manager that counts forward-pass multiplies of the kernels."""
    return MacCounter()


def _add_macs(n: int) -> None:
    if _active_counters:
        with _counter_lock:
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


def _region_mask(n: int, r: int) -> np.ndarray:
    """(r, n) boolean mask whose row i marks region [floor(i*n/r), ceil((i+1)*n/r))."""
    if not 1 <= r <= n:
        raise UnsupportedUpsampleError(f"cannot pool an axis of {n} cells to {r}; need 1..{n}")
    i = np.arange(r)[:, None]
    lo, hi = (i * n) // r, -((-(i + 1) * n) // r)
    cols = np.arange(n)
    return (cols >= lo) & (cols < hi)


@functools.lru_cache(maxsize=64)
def _sum_matrix(n: int, r: int, dtype: np.dtype) -> np.ndarray:
    """(r, n) 0/1 matrix whose row i sums region i."""
    m = _region_mask(n, r).astype(dtype)
    m.setflags(write=False)
    return m


@functools.lru_cache(maxsize=64)
def _pool_matrix(n: int, r: int, dtype: np.dtype) -> np.ndarray:
    """(r, n) matrix whose row i averages region i (the pool's adjoint uses it)."""
    mask = _region_mask(n, r)
    m = (mask / mask.sum(axis=1, keepdims=True)).astype(dtype)
    m.setflags(write=False)
    return m


def adaptive_avg_pool2d(x: np.ndarray, hr: int, wr: int) -> np.ndarray:
    """Adaptive average pooling of (..., C, H, W) down to (..., C, hr, wr).

    Output cell (i, j) averages the input region
    ``rows [floor(i*H/hr), ceil((i+1)*H/hr)) x cols [floor(j*W/wr), ceil((j+1)*W/wr))``.
    Regions may overlap when hr does not divide H.  With hr == H and
    wr == W this is the identity; upsampling is not supported.  Computed
    channel-last with two 0/1 region matrices: ``S_h`` sums rows as one
    product over (..., H, W*C), ``S_w`` sums columns over (..., hr, W, C),
    and each cell is then divided once by its region size, so a subnormal
    constant pools to itself.  The result is a channel-last view, so an
    input already laid out as (..., H, W, C) in memory is read without a
    copy.
    """
    if x.ndim < 3:
        raise ShapeError(f"adaptive_avg_pool2d needs (..., C, H, W), got {x.shape}")
    *batch, c, h, w = x.shape
    s_h, s_w = _sum_matrix(h, hr, x.dtype), _sum_matrix(w, wr, x.dtype)
    _add_macs(math.prod(batch) * c * hr * wr)
    # Contiguous operands, so both layouts reach the same BLAS call and bits.
    xl = np.ascontiguousarray(np.moveaxis(x, -3, -1)).reshape(*batch, h, w * c)
    rows = s_h @ xl
    out = s_w @ rows.reshape(*batch, hr, w, c)
    out /= np.outer(s_h.sum(axis=1), s_w.sum(axis=1))[:, :, None]
    return np.moveaxis(out, -1, -3)


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
    """Per-channel 3x3 cross-correlation, zero padding 1, stride 1, plus bias.

    Output has the same (..., C, H, W) logical shape as the input and is a
    channel-last view.  One frame at a time, so a frame's accumulator and
    product buffer stay in cache: the nine taps are accumulated in fixed
    scan order into the frame's zero-initialised output, then the bias is
    added.
    """
    if x.ndim < 3:
        raise ShapeError(f"depthwise_conv3x3 needs (..., C, H, W), got {x.shape}")
    *batch, c, h, w = x.shape
    if p.channels != c:
        raise ShapeError(
            f"input has {c} channels but kernel is {p.kernel.shape}"
        )
    xl = np.moveaxis(x, -3, -1)
    taps = np.ascontiguousarray(np.moveaxis(p.kernel, 0, -1))  # (3, 3, C)
    out = np.empty(xl.shape, dtype=x.dtype)
    prod = np.empty((h, w, c), dtype=np.result_type(x, p.kernel))
    for frame in np.ndindex(*batch):
        src, acc = xl[frame], out[frame]
        acc.fill(0)
        for u, (out_r, in_r) in enumerate(_TAP_SLICES):
            for v, (out_c, in_c) in enumerate(_TAP_SLICES):
                tap = prod[out_r, out_c]
                np.multiply(taps[u, v], src[in_r, in_c], out=tap)
                acc[out_r, out_c] += tap
        acc += p.bias
    _add_macs(9 * math.prod(batch) * c * h * w)
    return np.moveaxis(out, -1, -3)


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
    """Gradient of ``adaptive_avg_pool2d`` w.r.t. its (..., C, H, W) input.

    Each input cell collects ``g[..., c, i, j] / region_size`` from every
    output region that covers it (regions overlap for non-divisible grids):
    ``P_h^T @ g @ P_w``.
    """
    *lead, h, w = in_shape
    if g.shape[:-2] != tuple(lead):
        raise ShapeError(f"gradient {g.shape} does not match input {tuple(in_shape)}")
    hr, wr = g.shape[-2:]
    return _pool_matrix(h, hr, g.dtype).T @ g @ _pool_matrix(w, wr, g.dtype)


def conv_grad(
    x: np.ndarray, p: ConvParams, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of ``depthwise_conv3x3``: returns (dx, dkernel, dbias).

    dkernel and dbias sum the batch entries in order.
    """
    if g.shape != x.shape:
        raise ShapeError(f"upstream gradient {g.shape} does not match input {x.shape}")
    c, h, w = x.shape[-3:]
    if p.channels != c:
        raise ShapeError(f"input has {c} channels but kernel is {p.kernel.shape}")

    def batch_sum(t: np.ndarray) -> np.ndarray:
        return t.sum(axis=(-2, -1)).reshape(-1, c).sum(axis=0)

    pad = np.zeros((*x.shape[:-2], h + 2, w + 2), dtype=x.dtype)
    pad[..., 1 : h + 1, 1 : w + 1] = x
    dk = np.empty_like(p.kernel)
    dpad = np.zeros_like(pad)
    for u in range(3):
        for v in range(3):
            dk[:, u, v] = batch_sum(pad[..., u : u + h, v : v + w] * g)
            dpad[..., u : u + h, v : v + w] += p.kernel[:, u, v][:, None, None] * g
    return dpad[..., 1 : h + 1, 1 : w + 1], dk, batch_sum(g)
