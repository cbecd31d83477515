"""Finite-difference verification of the analytic backward passes.

For each operation we take the scalar loss ``L = sum(output**2)`` (so the
upstream gradient is ``2 * output``), compute analytic parameter and input
gradients, and compare every element against central differences
``(L(p + h) - L(p - h)) / (2h)`` at float64 with h = 1e-4.  The relative
error metric is ``max |a - n| / max(1e-12, |a| + |n|)``.
"""

from __future__ import annotations

import numpy as np

from . import numerics, projector
from .errors import ArgumentError

DEFAULT_H = 1e-4
DEFAULT_TOL = 1e-4


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-12, np.abs(analytic) + np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def numerical_grad(loss_fn, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """Central-difference gradient of loss_fn w.r.t. each array, elementwise.

    Arrays are perturbed in place and restored; loss_fn takes no arguments
    and must read the same array objects.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + DEFAULT_H
            lp = loss_fn()
            flat[i] = old - DEFAULT_H
            lm = loss_fn()
            flat[i] = old
            gflat[i] = (lp - lm) / (2.0 * DEFAULT_H)
        grads.append(g)
    return grads


def _uniform(rng: np.random.Generator, shape, scale=1.0) -> np.ndarray:
    return rng.uniform(-scale, scale, size=shape).astype(np.float64)


def _case_matmul(rng):
    a = _uniform(rng, (3, 4))
    b = _uniform(rng, (4, 2))

    def loss():
        return float(np.sum(numerics.matmul(a, b) ** 2))

    def analytic():
        y = numerics.matmul(a, b)
        return list(numerics.matmul_grad(a, b, 2.0 * y))

    return loss, analytic, [a, b]


def _case_linear(rng):
    x = _uniform(rng, (2, 5, 3))
    p = numerics.LinearParams(_uniform(rng, (3, 4)), _uniform(rng, (4,)))

    def loss():
        return float(np.sum(numerics.linear(x, p) ** 2))

    def analytic():
        y = numerics.linear(x, p)
        dx, dw, db = numerics.linear_grad(x, p, 2.0 * y)
        return [dx, dw, db]

    return loss, analytic, [x, p.weight, p.bias]


def _case_ffn(rng):
    x = _uniform(rng, (1, 4, 3))
    p1 = numerics.LinearParams(_uniform(rng, (3, 5)), _uniform(rng, (5,)))
    p2 = numerics.LinearParams(_uniform(rng, (5, 2)), _uniform(rng, (2,)))

    def loss():
        return float(np.sum(numerics.ffn_forward(x, p1, p2) ** 2))

    def analytic():
        y = numerics.ffn_forward(x, p1, p2)
        dx, (dw1, db1), (dw2, db2) = numerics.ffn_grad(x, p1, p2, 2.0 * y)
        return [dx, dw1, db1, dw2, db2]

    return loss, analytic, [x, p1.weight, p1.bias, p2.weight, p2.bias]


def _case_pool(rng):
    # 5 -> 3 regions overlap, exercising the general backward; batch of 2
    x = _uniform(rng, (2, 2, 5, 5))

    def loss():
        return float(np.sum(numerics.adaptive_avg_pool2d(x, 3, 3) ** 2))

    def analytic():
        y = numerics.adaptive_avg_pool2d(x, 3, 3)
        return [numerics.pool_grad(x.shape, 2.0 * y)]

    return loss, analytic, [x]


def _case_conv(rng):
    x = _uniform(rng, (2, 2, 4, 4))  # batch of 2: dk and db sum over it
    p = numerics.ConvParams(_uniform(rng, (2, 3, 3)), _uniform(rng, (2,)))

    def loss():
        return float(np.sum(numerics.depthwise_conv3x3(x, p) ** 2))

    def analytic():
        y = numerics.depthwise_conv3x3(x, p)
        dx, dk, db = numerics.conv_grad(x, p, 2.0 * y)
        return [dx, dk, db]

    return loss, analytic, [x, p.kernel, p.bias]


def _projector_case(rng, kind):
    cfg = projector.ProjectorConfig(
        kind=kind,
        c_in=3,
        c_out=2,
        grid_in=(3, 3),
        grid_out=(2, 2) if kind == projector.ET_PROJ else (3, 3),
        c_hidden=4,
    )
    params = projector.init_projector_params(cfg, seed=int(rng.integers(2**32)))
    # float64 parameters with nonzero biases and positional encoder for a meaningful check
    for role, array in params.items():
        if role.endswith(".weight"):
            params[role] = array.astype(np.float64)
        else:
            params[role] = _uniform(rng, array.shape, 0.5 if role.endswith(".kernel") else 0.1)
    x = _uniform(rng, (2, cfg.tokens_in, cfg.c_in))

    def loss():
        return float(np.sum(projector.projector_forward(x, cfg, params) ** 2))

    def analytic():
        y = projector.projector_forward(x, cfg, params)
        dx, grads = projector.projector_backward(x, cfg, params, 2.0 * y)
        return [dx, *grads.values()]

    return loss, analytic, [x, *params.values()]


_CASES = {
    "matmul": _case_matmul,
    "linear": _case_linear,
    "ffn": _case_ffn,
    "pool": _case_pool,
    "conv": _case_conv,
    "et_proj": lambda rng: _projector_case(rng, projector.ET_PROJ),
    "mlp_proj": lambda rng: _projector_case(rng, projector.MLP_PROJ),
}

CHECKED_OPS = tuple(_CASES)


def check_op(op: str, seeds: int = 10, fault: bool = False) -> dict:
    """Run one op's gradient check over several seeds; returns a result row.

    ``fault=True`` perturbs the analytic gradients (negative control: the
    check must then fail).
    """
    if op not in _CASES:
        raise ArgumentError(f"unknown op {op!r}; choose from {sorted(_CASES)}")
    if seeds < 1:
        raise ArgumentError(f"seeds must be >= 1, got {seeds}")
    worst = 0.0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        loss, analytic, arrays = _CASES[op](rng)
        ana = analytic()
        if fault:
            ana = [a + 0.05 * (np.abs(a) + 1.0) for a in ana]
        num = numerical_grad(loss, arrays)
        for a, n in zip(ana, num):
            worst = max(worst, relative_error(a, n))
    return {"op": op, "trials": seeds, "max_rel_err": worst, "passed": bool(worst < DEFAULT_TOL)}


def run_gradient_checks(
    seeds: int = 10, ops: "list[str] | None" = None, fault_op: str | None = None
) -> list[dict]:
    """Gradient-check every op (or the given subset); one result row per op."""
    rows = []
    for op in ops or CHECKED_OPS:
        rows.append(check_op(op, seeds=seeds, fault=(op == fault_op)))
    return rows
