"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance and time limit is pinned here.
"""

import itertools
import json
import struct
import time
from contextlib import contextmanager

import numpy as np
import pytest

from framescope import gradcheck
from framescope.cli import main as cli_main
from framescope.errors import BadMagicError, DimensionOverflowError, TruncatedPayloadError
from framescope.features import (
    EncoderSpec,
    FrameFeatures,
    read_features,
    synth_image_features,
    write_features,
)
from framescope.numerics import LinearParams, adaptive_avg_pool2d, count_macs, ffn_forward
from framescope.pipeline import (
    IMAGE_ONLY,
    NO_SELECTION,
    default_config,
    mac_report,
    make_config,
    run_pipeline,
    stage_plan,
    token_budget,
)
from framescope.projector import (
    ET_PROJ,
    init_projector_params,
    project_branch,
    projector_forward,
)
from framescope.projector import ProjectorConfig
from framescope.selection import frame_scores, spatial_attention, top_k_frames


@contextmanager
def criterion(number, name, limit_s):
    """Prints one pass/fail line per criterion and enforces its time limit."""
    start = time.perf_counter()
    outcome = {"ok": False}
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if outcome["ok"] and elapsed < limit_s else "FAIL"
        print(f"[acceptance] {number:2d} {name}: {status} ({elapsed:.2f}s / limit {limit_s}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s ({elapsed:.2f}s)"


def test_01_token_budget_reproduction():
    with criterion(1, "token budget reproduction", 1.0):
        b = token_budget(default_config())
        assert (b.image_tokens, b.video_tokens, b.total) == (2304, 392, 2696)
        mlp32 = make_config(frames=32, projector_kind="mlp_proj", branch_mode=IMAGE_ONLY)
        assert token_budget(mlp32).total == 6272


def test_02_selection_oracle_equivalence():
    with criterion(2, "top-K equals stable-sort oracle", 10.0):
        values = (0.5, 1.25, 2.0, 3.5, 7.0, 9.0, 11.0, 13.5)
        for perm in itertools.permutations(values):
            order = sorted(range(8), key=lambda i: (-perm[i], i))
            scores = np.array(perm)
            for k in range(1, 9):
                assert list(top_k_frames(scores, k).indices) == sorted(order[:k])
        rng = np.random.default_rng(0)
        for _ in range(1000):
            scores = rng.uniform(0.0, 10.0, size=16)
            k = int(rng.integers(1, 17))
            order = sorted(range(16), key=lambda i: (-scores[i], i))
            assert list(top_k_frames(scores, k).indices) == sorted(order[:k])


def test_03_scoring_correctness():
    with criterion(3, "streaming scoring vs dense + conservation", 30.0):
        rng = np.random.default_rng(1)
        for trial in range(50):
            t = int(rng.integers(1, 9))
            g = int(rng.integers(1, 9))
            d = int(rng.integers(1, 33))
            feats = synth_image_features(trial, t, EncoderSpec("synthetic-image", (g, g), d))
            dense = spatial_attention(feats).sum(axis=0).reshape(t, g * g).sum(axis=1)
            stream = frame_scores(feats).scores
            assert np.max(np.abs(dense - stream)) < 1e-5
            s = t * g * g
            assert abs(stream.sum() - s) < 1e-4
            assert abs(dense.sum() - s) < 1e-4


def test_04_permutation_equivariance():
    with criterion(4, "permutation equivariance of scores and selection", 10.0):
        rng = np.random.default_rng(2)
        for trial in range(20):
            t = int(rng.integers(2, 9))
            feats = synth_image_features(trial, t, EncoderSpec("synthetic-image", (3, 3), 8))
            perm = rng.permutation(t)
            permuted = FrameFeatures(feats.tensor[perm])
            base = frame_scores(feats)
            moved = frame_scores(permuted)
            assert np.max(np.abs(moved.scores - base.scores[perm])) < 1e-6
            k = max(1, t // 2)
            kf_base = set(top_k_frames(base, k).indices)
            kf_moved = top_k_frames(moved, k).indices
            assert {int(perm[i]) for i in kf_moved} == kf_base


def test_05_et_proj_structural_checks():
    with criterion(5, "reducing projector shape law, zero-conv identity, pool oracle", 10.0):
        rng = np.random.default_rng(3)
        # shape law across a randomized config sweep
        for trial in range(10):
            h, w = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            hr, wr = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
            frames = int(rng.integers(1, 4))
            cfg = ProjectorConfig(ET_PROJ, 4, 3, (h, w), (hr, wr))
            params = init_projector_params(cfg, trial)
            feats = synth_image_features(trial, frames, EncoderSpec("e", (h, w), 4))
            seq = project_branch(feats, cfg, params, "image")
            assert seq.tokens.shape == (1, frames * hr * wr, 3)
        # zero positional encoder: output is exactly the pooled FFN output
        cfg = ProjectorConfig(ET_PROJ, 6, 5, (4, 4), (2, 2), c_hidden=7)
        params = init_projector_params(cfg, 9)  # posenc starts at zero
        x = rng.standard_normal((1, 16, 6)).astype(np.float32)
        out = projector_forward(x, cfg, params)
        y = ffn_forward(
            x,
            LinearParams(params["ffn1.weight"], params["ffn1.bias"]),
            LinearParams(params["ffn2.weight"], params["ffn2.bias"]),
        )
        pooled = adaptive_avg_pool2d(y[0].reshape(4, 4, 5).transpose(2, 0, 1), 2, 2)
        assert np.array_equal(out[0], pooled.transpose(1, 2, 0).reshape(4, 5))
        # adaptive pooling against the brute-force region oracle at 14x14 -> 12x12
        x = rng.standard_normal((3, 14, 14)).astype(np.float32)
        got = adaptive_avg_pool2d(x, 12, 12)
        for c in range(3):
            for i in range(12):
                r0, r1 = (i * 14) // 12, -((-(i + 1) * 14) // 12)
                for j in range(12):
                    c0, c1 = (j * 14) // 12, -((-(j + 1) * 14) // 12)
                    region = [float(x[c, r, cc]) for r in range(r0, r1) for cc in range(c0, c1)]
                    assert abs(got[c, i, j] - sum(region) / len(region)) < 1e-6


def test_06_gradient_checks():
    with criterion(6, "analytic gradients vs central differences", 60.0):
        rows = gradcheck.run_gradient_checks(
            seeds=10, ops=["linear", "ffn", "pool", "conv", "et_proj", "mlp_proj"]
        )
        for row in rows:
            assert row["passed"], f"{row['op']} max rel err {row['max_rel_err']:.2e}"
            assert row["max_rel_err"] < 1e-4


def test_07_efficiency_law():
    with criterion(7, "selection halves video tokens and MACs", 10.0):
        half = make_config()  # K = T/2 = 8
        full = make_config(frame_selection=NO_SELECTION)  # K = T = 16
        assert token_budget(half).video_tokens * 2 == token_budget(full).video_tokens
        assert mac_report(half).video_projection * 2 == mac_report(full).video_projection
        # instrumented multiply counter agrees on small configs
        small = dict(
            frames=4, image_grid=(4, 4), image_depth=8, image_grid_out=(3, 3),
            video_grid=(4, 4), video_depth=6, video_grid_out=(2, 2), embed_width=5, seed=0,
        )
        counted = {}
        for label, kw in (("half", {}), ("full", {"frame_selection": NO_SELECTION})):
            cfg = make_config(**small, **kw)
            with count_macs() as c:
                run_pipeline(cfg)
            assert c.total == mac_report(cfg).total
            counted[label] = mac_report(cfg).video_projection
        assert counted["half"] * 2 == counted["full"]


def test_08_determinism(capsys):
    with criterion(8, "identical digests across runs and the CLI", 30.0):
        cfg = default_config()
        digests = [run_pipeline(cfg).digest for _ in range(3)]
        code = cli_main(["run"])
        assert code == 0
        digests.append(json.loads(capsys.readouterr().out)["digest"])
        assert len(set(digests)) == 1, digests


def test_09_stage_plan_fidelity():
    with criterion(9, "training-stage trainability matrix", 1.0):
        for stage in (1, 2, 3):
            plan = stage_plan(stage)
            assert {"image_encoder", "video_encoder"} <= plan.frozen
            assert not (plan.trainable & plan.frozen)
        assert stage_plan(1).trainable == {"image_projector"}
        assert stage_plan(2).trainable == {"video_projector"}
        assert stage_plan(3).trainable == {"image_projector", "video_projector", "slm_adapter"}
        assert "slm" in stage_plan(1).frozen and "slm" in stage_plan(2).frozen
        assert "slm_adapter" not in stage_plan(1).trainable
        assert "slm_adapter" not in stage_plan(2).trainable


def test_10_format_round_trip(tmp_path):
    with criterion(10, "MVGF round-trip and named corruption errors", 10.0):
        rng = np.random.default_rng(4)
        for i in range(100):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(d) for d in rng.integers(1, 6, size=rank))
            dtype = np.float32 if i % 2 == 0 else np.float64
            t = rng.standard_normal(shape).astype(dtype)
            path = tmp_path / f"t{i}.mvgf"
            write_features(path, t)
            back = read_features(path)
            assert back.shape == t.shape and back.dtype == t.dtype
            assert back.tobytes() == t.tobytes()
        bad_magic = tmp_path / "magic.mvgf"
        bad_magic.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(BadMagicError):
            read_features(bad_magic)
        trunc = tmp_path / "trunc.mvgf"
        trunc.write_bytes(
            b"MVGF" + struct.pack("<I", 1) + struct.pack("<BB", 1, 2)
            + struct.pack("<2Q", 2, 2) + struct.pack("<3f", 1, 2, 3)
        )
        with pytest.raises(TruncatedPayloadError):
            read_features(trunc)
        huge = tmp_path / "huge.mvgf"
        huge.write_bytes(
            b"MVGF" + struct.pack("<I", 1) + struct.pack("<BB", 1, 2)
            + struct.pack("<2Q", 2**40, 2**40)
        )
        with pytest.raises(DimensionOverflowError):
            read_features(huge)
