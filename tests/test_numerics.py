"""Forward kernels against independent oracles, plus determinism invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from framescope import numerics
from framescope.errors import ShapeError, UnsupportedUpsampleError
from framescope.numerics import (
    ConvParams,
    LinearParams,
    adaptive_avg_pool2d,
    conv_grad,
    count_macs,
    depthwise_conv3x3,
    ffn_forward,
    gelu,
    linear,
    matmul,
    pool_grad,
    softmax_rows,
)


def matmul_oracle(a, b):
    """Naive triple loop, float64 accumulation."""
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=np.float64)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for l in range(k):
                acc += float(a[i, l]) * float(b[l, j])
            out[i, j] = acc
    return out


def pool_oracle(x, hr, wr):
    """Brute-force region averaging with explicit floor/ceil bounds."""
    h, w, c = x.shape
    out = np.zeros((hr, wr, c), dtype=np.float64)
    for ch in range(c):
        for i in range(hr):
            r0, r1 = math.floor(i * h / hr), math.ceil((i + 1) * h / hr)
            for j in range(wr):
                c0, c1 = math.floor(j * w / wr), math.ceil((j + 1) * w / wr)
                vals = [float(x[r, cc, ch]) for r in range(r0, r1) for cc in range(c0, c1)]
                out[i, j, ch] = sum(vals) / len(vals)
    return out


def gelu_scalar(v):
    return 0.5 * v * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (v + 0.044715 * v**3)))


def ffn_oracle(x, p1, p2):
    """Per-token scalar-loop FFN."""
    b, n, _ = x.shape
    out = np.zeros((b, n, p2.weight.shape[1]), dtype=np.float64)
    for bi in range(b):
        for t in range(n):
            h = x[bi, t].astype(np.float64) @ p1.weight.astype(np.float64) + p1.bias
            h = np.array([gelu_scalar(v) for v in h])
            out[bi, t] = h @ p2.weight.astype(np.float64) + p2.bias
    return out


def conv_oracle(x, p):
    """Direct six-loop depthwise cross-correlation with zero padding."""
    h, w, c = x.shape
    out = np.zeros((h, w, c), dtype=np.float64)
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                acc = float(p.bias[ch])
                for u in range(3):
                    for v in range(3):
                        r, cc = i + u - 1, j + v - 1
                        if 0 <= r < h and 0 <= cc < w:
                            acc += float(p.kernel[ch, u, v]) * float(x[r, cc, ch])
                out[i, j, ch] = acc
    return out


class TestMatmul:
    def test_identity(self):
        a = np.array([[3.0, 4.0], [5.0, 6.0]], dtype=np.float32)
        assert np.array_equal(matmul(np.eye(2, dtype=np.float32), a), a)

    def test_dot_product(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(11.0)

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        assert np.allclose(matmul(a, b), matmul_oracle(a, b), atol=1e-6)

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_mac_count(self):
        with count_macs() as c:
            matmul(np.zeros((3, 4), dtype=np.float32), np.zeros((4, 5), dtype=np.float32))
        assert c.total == 3 * 5 * 4

    def test_out_is_returned_with_the_bits_of_the_product(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((7, 33)).astype(np.float32)
        b = rng.standard_normal((40, 33)).astype(np.float32).T
        buffer = np.full((9, 40), np.nan, dtype=np.float32)
        out = buffer[:7]
        assert matmul(a, b, out=out) is out
        assert np.array_equal(out, a @ b)
        assert np.isnan(buffer[7:]).all()

    def test_out_counts_the_same_macs(self):
        a, b = np.ones((3, 4)), np.ones((4, 5))
        with count_macs() as plain:
            matmul(a, b)
        with count_macs() as into:
            matmul(a, b, out=np.empty((3, 5)))
        assert into.total == plain.total == 3 * 5 * 4

    def test_mis_shaped_out_names_both_shapes(self):
        with count_macs() as c, pytest.raises(ShapeError, match=r"\(5, 3\).*\(3, 5\)"):
            matmul(np.ones((3, 4)), np.ones((4, 5)), out=np.empty((5, 3)))
        assert c.total == 0


class TestSoftmaxRows:
    def test_symmetry(self):
        out = softmax_rows(np.array([[0.0, 0.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_closed_form(self):
        out = softmax_rows(np.array([[math.log(2.0), 0.0]]))
        assert np.allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-20, 20, size=(4, 6))
        assert np.allclose(softmax_rows(x), softmax_rows(x + 7.0), atol=1e-12)

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-6), (np.float64, 1e-12)])
    def test_rows_sum_to_one(self, dtype, tol):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-20, 20, size=(5, 7)).astype(dtype)
            assert np.allclose(softmax_rows(x).sum(axis=1), 1.0, atol=tol)


class TestAdaptiveAvgPool:
    def test_constant_preserved(self):
        x = np.full((6, 5, 3), 2.5, dtype=np.float32)
        for hr, wr in [(1, 1), (2, 3), (6, 5)]:
            assert np.allclose(adaptive_avg_pool2d(x, hr, wr), 2.5)

    def test_four_by_four_example(self):
        x = np.arange(16, dtype=np.float32).reshape(4, 4, 1)
        out = adaptive_avg_pool2d(x, 2, 2)
        assert np.allclose(out[..., 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_matches_region_oracle_14_to_12(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((14, 14, 1)).astype(np.float32)
        assert np.allclose(adaptive_avg_pool2d(x, 12, 12), pool_oracle(x, 12, 12), atol=1e-6)

    def test_identity_when_same_size(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 7, 2)).astype(np.float32)
        assert np.array_equal(adaptive_avg_pool2d(x, 5, 7), x)

    def test_global_mean_preserved_when_divisible(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((12, 8, 2)).astype(np.float32)
        out = adaptive_avg_pool2d(x, 4, 4)
        assert out.mean() == pytest.approx(x.mean(), abs=1e-6)

    def test_upsample_rejected(self):
        with pytest.raises(UnsupportedUpsampleError):
            adaptive_avg_pool2d(np.zeros((4, 4, 1)), 5, 4)
        with pytest.raises(UnsupportedUpsampleError):
            adaptive_avg_pool2d(np.zeros((4, 4, 1)), 4, 6)


class TestFfnForward:
    def test_zero_params_give_zero_output(self):
        x = np.ones((1, 3, 4), dtype=np.float32)
        p1 = LinearParams(np.zeros((4, 5), dtype=np.float32), np.zeros(5, dtype=np.float32))
        p2 = LinearParams(np.zeros((5, 2), dtype=np.float32), np.zeros(2, dtype=np.float32))
        assert np.array_equal(ffn_forward(x, p1, p2), np.zeros((1, 3, 2)))

    def test_gelu_zero_fixed_point(self):
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_matches_per_token_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 4, 3)).astype(np.float32)
        p1 = LinearParams(
            rng.standard_normal((3, 5)).astype(np.float32),
            rng.standard_normal(5).astype(np.float32),
        )
        p2 = LinearParams(
            rng.standard_normal((5, 2)).astype(np.float32),
            rng.standard_normal(2).astype(np.float32),
        )
        assert np.allclose(ffn_forward(x, p1, p2), ffn_oracle(x, p1, p2), atol=1e-6)

    def test_hidden_width_mismatch(self):
        p1 = LinearParams(np.zeros((3, 5), dtype=np.float32), np.zeros(5, dtype=np.float32))
        p2 = LinearParams(np.zeros((4, 2), dtype=np.float32), np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError):
            ffn_forward(np.zeros((1, 2, 3), dtype=np.float32), p1, p2)

    def test_linear_input_width_mismatch(self):
        p = LinearParams(np.zeros((3, 2), dtype=np.float32), np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError):
            linear(np.zeros((1, 4), dtype=np.float32), p)


class TestDepthwiseConv:
    def test_zero_kernel_zero_output(self):
        x = np.ones((4, 4, 2), dtype=np.float32)
        p = ConvParams(np.zeros((2, 3, 3), dtype=np.float32), np.zeros(2, dtype=np.float32))
        assert np.array_equal(depthwise_conv3x3(x, p), np.zeros_like(x))

    def test_center_delta_is_identity(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 4, 3)).astype(np.float32)
        k = np.zeros((3, 3, 3), dtype=np.float32)
        k[:, 1, 1] = 1.0
        p = ConvParams(k, np.zeros(3, dtype=np.float32))
        assert np.allclose(depthwise_conv3x3(x, p), x)

    def test_matches_six_loop_oracle(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 5, 2)).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((2, 3, 3)).astype(np.float32),
            rng.standard_normal(2).astype(np.float32),
        )
        assert np.allclose(depthwise_conv3x3(x, p), conv_oracle(x, p), atol=1e-6)

    def test_channel_mismatch(self):
        p = ConvParams(np.zeros((2, 3, 3), dtype=np.float32), np.zeros(2, dtype=np.float32))
        with pytest.raises(ShapeError):
            depthwise_conv3x3(np.zeros((4, 4, 3), dtype=np.float32), p)

    def test_kernel_must_be_3x3(self):
        with pytest.raises(ShapeError):
            ConvParams(np.zeros((2, 5, 5), dtype=np.float32), np.zeros(2, dtype=np.float32))


class TestDeterminism:
    def test_forward_ops_bitwise_repeatable(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((8, 8, 3)).astype(np.float32)
        a = rng.standard_normal((6, 4)).astype(np.float32)
        b = rng.standard_normal((4, 5)).astype(np.float32)
        p = ConvParams(
            rng.standard_normal((3, 3, 3)).astype(np.float32),
            rng.standard_normal(3).astype(np.float32),
        )
        for _ in range(3):
            assert np.array_equal(matmul(a, b), matmul(a, b))
            assert np.array_equal(softmax_rows(a), softmax_rows(a))
            assert np.array_equal(adaptive_avg_pool2d(x, 5, 3), adaptive_avg_pool2d(x, 5, 3))
            assert np.array_equal(depthwise_conv3x3(x, p), depthwise_conv3x3(x, p))

    def test_counter_covers_pool_and_conv(self):
        x = np.zeros((6, 6, 3), dtype=np.float32)
        p = ConvParams(np.zeros((3, 3, 3), dtype=np.float32), np.zeros(3, dtype=np.float32))
        with count_macs() as c:
            adaptive_avg_pool2d(x, 2, 2)
            depthwise_conv3x3(x, p)
        assert c.total == 3 * 2 * 2 + 9 * 3 * 6 * 6


def batched_case(seed):
    """Random (F, H, W, C) input, pooling target and float64 conv params.

    Seed 0 pools to one row (hr = 1), seed 1 to one column (wr = 1).
    """
    rng = np.random.default_rng(100 + seed)
    f, c = int(rng.integers(2, 6)), int(rng.integers(1, 5))
    h, w = int(rng.integers(1, 15)), int(rng.integers(1, 15))
    hr, wr = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    if seed == 0:
        hr = 1
    if seed == 1:
        wr = 1
    x = rng.standard_normal((f, h, w, c))
    p = ConvParams(rng.standard_normal((c, 3, 3)), rng.standard_normal(c))
    return rng, x, hr, wr, p


SEEDS = range(8)


class TestBatchedKernels:
    """Leading batch axes behave like stacked single-frame calls."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_matches_stacked_frames(self, seed):
        _, x, hr, wr, _ = batched_case(seed)
        x = x.astype(np.float32)
        stacked = np.stack([adaptive_avg_pool2d(frame, hr, wr) for frame in x])
        assert np.allclose(adaptive_avg_pool2d(x, hr, wr), stacked, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_grad_matches_stacked_frames(self, seed):
        rng, x, hr, wr, _ = batched_case(seed)
        g = rng.standard_normal((x.shape[0], hr, wr, x.shape[-1])).astype(np.float32)
        stacked = np.stack([pool_grad(x.shape[1:], gf) for gf in g])
        assert np.allclose(pool_grad(x.shape, g), stacked, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_matches_stacked_frames_bitwise(self, seed):
        _, x, _, _, p = batched_case(seed)
        stacked = np.stack([depthwise_conv3x3(frame, p) for frame in x])
        assert np.array_equal(depthwise_conv3x3(x, p), stacked)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_grad_matches_stacked_frames_bitwise(self, seed):
        rng, x, _, _, p = batched_case(seed)
        g = rng.standard_normal(x.shape)
        dx, dk, db = conv_grad(x, p, g)
        frames = [conv_grad(xf, p, gf) for xf, gf in zip(x, g)]
        assert np.array_equal(dx, np.stack([fr[0] for fr in frames]))
        assert np.array_equal(dk, sum(fr[1] for fr in frames))  # frame order
        assert np.array_equal(db, sum(fr[2] for fr in frames))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mac_counts_scale_with_batch(self, seed):
        _, x, hr, wr, p = batched_case(seed)
        for kernel in (lambda t: adaptive_avg_pool2d(t, hr, wr), lambda t: depthwise_conv3x3(t, p)):
            with count_macs() as one:
                kernel(x[0])
            with count_macs() as batch:
                kernel(x)
            assert batch.total == x.shape[0] * one.total > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pool_adjointness(self, seed):
        rng, x, hr, wr, _ = batched_case(seed)
        g = rng.standard_normal((x.shape[0], hr, wr, x.shape[-1]))
        lhs = np.vdot(adaptive_avg_pool2d(x, hr, wr), g)
        rhs = np.vdot(x, pool_grad(x.shape, g))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv_adjointness(self, seed):
        rng, x, _, _, p = batched_case(seed)
        linear_part = ConvParams(p.kernel, np.zeros_like(p.bias))
        g = rng.standard_normal(x.shape)
        lhs = np.vdot(depthwise_conv3x3(x, linear_part), g)
        rhs = np.vdot(x, conv_grad(x, linear_part, g)[0])
        assert abs(lhs - rhs) < 1e-10

    def test_batch_axes_may_be_nested(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 6, 5, 4)).astype(np.float32)
        flat = adaptive_avg_pool2d(x.reshape(6, 6, 5, 4), 4, 3)
        assert np.array_equal(adaptive_avg_pool2d(x, 4, 3), flat.reshape(2, 3, 4, 3, 4))

    def test_conv_two_batch_axes_match_stacked_frames_bitwise(self):
        # the conv walks the batch a frame at a time
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 6, 5, 4)).astype(np.float32)
        p = ConvParams(*(rng.standard_normal(s).astype(np.float32) for s in ((4, 3, 3), (4,))))
        stacked = np.stack([np.stack([depthwise_conv3x3(frame, p) for frame in row]) for row in x])
        assert np.array_equal(depthwise_conv3x3(x, p), stacked)

    def test_pool_grad_shape_mismatch(self):
        with pytest.raises(ShapeError):
            pool_grad((2, 6, 6, 3), np.zeros((2, 3, 3, 4)))

    def test_missing_channel_axis_rejected(self):
        p = ConvParams(np.zeros((1, 3, 3)), np.zeros(1))
        with pytest.raises(ShapeError):
            adaptive_avg_pool2d(np.zeros((4, 4)), 2, 2)
        with pytest.raises(ShapeError):
            depthwise_conv3x3(np.zeros((4, 4)), p)
        with pytest.raises(ShapeError, match=r"\(4, 4\)"):
            conv_grad(np.zeros((4, 4)), p, np.zeros((4, 4)))
        with pytest.raises(ShapeError, match=r"\(4, 4\)"):
            pool_grad((4, 4), np.zeros((2, 2)))


def conv_reference(x, p):
    """The nine-tap loop over a zero-padded channel-last copy.

    Bitwise reference for ``depthwise_conv3x3``: same product and
    accumulation order, with the border taps multiplying explicit zeros.
    """
    *batch, h, w, c = x.shape
    pad = np.zeros((*batch, h + 2, w + 2, c), dtype=x.dtype)
    pad[..., 1 : h + 1, 1 : w + 1, :] = x
    out = np.zeros(x.shape, dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            out += p.kernel[:, u, v] * pad[..., u : u + h, v : v + w, :]
    out += p.bias
    return out


def gelu_reference(x):
    """The one-line tanh GELU expression that ``gelu`` evaluates in place."""
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


GEOMETRY = dict(
    seed=st.integers(0, 2**32 - 1),
    f=st.integers(1, 3),
    c=st.integers(1, 6),
    h=st.integers(1, 9),
    w=st.integers(1, 9),
    data=st.data(),
)


class TestOperatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]), **GEOMETRY)
    # data=None pools to one cell; H = 1 or W = 1 leaves one tap row or column
    @example(dtype=np.float32, seed=1, f=2, c=3, h=1, w=5, data=None)
    @example(dtype=np.float32, seed=2, f=2, c=3, h=6, w=1, data=None)
    @example(dtype=np.float64, seed=3, f=1, c=2, h=3, w=1, data=None)
    def test_kernels_match_references(self, dtype, seed, f, c, h, w, data):
        hr = data.draw(st.integers(1, h)) if data else 1
        wr = data.draw(st.integers(1, w)) if data else 1
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((f, h, w, c)).astype(dtype)
        p = ConvParams(
            rng.standard_normal((c, 3, 3)).astype(dtype), rng.standard_normal(c).astype(dtype)
        )

        conv = depthwise_conv3x3(x, p)
        assert conv.shape == (f, h, w, c)
        assert np.array_equal(conv, conv_reference(x, p))

        pooled = adaptive_avg_pool2d(x, hr, wr)
        assert pooled.shape == (f, hr, wr, c)
        oracle = np.stack([pool_oracle(frame, hr, wr) for frame in x])
        assert np.allclose(pooled, oracle, rtol=0, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(**GEOMETRY)
    def test_conv_adjointness(self, seed, f, c, h, w, data):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((f, h, w, c))
        g = rng.standard_normal((f, h, w, c))
        p = ConvParams(rng.standard_normal((c, 3, 3)), np.zeros(c))
        lhs = np.vdot(depthwise_conv3x3(x, p), g)
        rhs = np.vdot(x, conv_grad(x, p, g)[0])
        assert abs(lhs - rhs) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(value=st.floats(-1e6, 1e6), **GEOMETRY)
    def test_constant_pools_to_itself(self, value, seed, f, c, h, w, data):
        hr, wr = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
        x = np.full((f, h, w, c), value)
        assert np.allclose(adaptive_avg_pool2d(x, hr, wr), value, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("value", [5e-324, 1e-310])
    @pytest.mark.parametrize("h,w,hr,wr", [(1, 2, 1, 1), (3, 3, 2, 2), (5, 7, 3, 2)])
    def test_subnormal_constant_pools_to_itself(self, value, h, w, hr, wr):
        # summing before the one division keeps the subnormal from rounding to 0
        x = np.full((1, h, w, 2), value)
        assert np.array_equal(adaptive_avg_pool2d(x, hr, wr), np.full((1, hr, wr, 2), value))


class TestGeluInPlace:
    @settings(max_examples=200, deadline=None)
    @given(
        x=st.sampled_from([np.float32, np.float64]).flatmap(
            lambda dtype: hnp.arrays(
                dtype,
                hnp.array_shapes(min_dims=1, max_dims=3, max_side=12),
                elements=st.floats(width=np.finfo(dtype).bits, allow_nan=False),
            )
        )
    )
    def test_matches_one_line_expression(self, x):
        with np.errstate(all="ignore"):
            expected = gelu_reference(x)
            assert np.array_equal(gelu(x), expected, equal_nan=True)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_across_chunks_and_strides(self, dtype):
        rng = np.random.default_rng(12)
        n = 3 * numerics._GELU_CHUNK + 17
        x = (rng.standard_normal(n) * rng.choice([1e-42, 1e-3, 1.0, 30.0], n)).astype(dtype)
        assert np.array_equal(gelu(x), gelu_reference(x))
        strided = x[: 2 * (n // 2)].reshape(-1, 2).T
        assert np.array_equal(gelu(strided), gelu_reference(strided))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_input_unchanged(self, dtype):
        x = np.random.default_rng(13).standard_normal((5, 7)).astype(dtype)
        before = x.copy()
        gelu(x)
        assert np.array_equal(x, before)
