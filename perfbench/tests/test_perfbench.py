"""Tests of the benchmark itself: its oracle, its tail rule and its tracing.

    python3 -m pytest perfbench/tests -q
"""

import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import framescope  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from run import tail  # noqa: E402
from workloads import MVGF, SYNTHETIC, Workload  # noqa: E402


def tiny(source=SYNTHETIC) -> Workload:
    return Workload(
        "tiny",
        frames=6,
        keyframes=3,
        branch_mode="dual",
        source=source,
        image_grid=(4, 4),
        image_depth=16,
        image_grid_out=(3, 3),
        video_grid=(4, 4),
        video_depth=8,
        video_grid_out=(2, 2),
        embed_width=12,
        file_frames=(2, 9),
    )


def one_call(w: Workload, seed: int, video_id: int, run_dir: str) -> dict:
    cfg = framescope.make_config(**w.config_kwargs())
    result = framescope.run_pipeline(cfg, worker.make_source(framescope, w, seed, video_id, run_dir))
    return worker.record(result, video_id, run_dir)


@pytest.mark.parametrize("source", [SYNTHETIC, MVGF])
def test_correct_outputs_pass(tmp_path, source):
    w = tiny(source)
    calls = [one_call(w, 5, v, str(tmp_path)) for v in range(3)]
    assert oracle.verify_calls(w, 5, calls, str(tmp_path)) == {}


def test_perturbed_token_fails(tmp_path):
    w = tiny()
    calls = [one_call(w, 5, v, str(tmp_path)) for v in range(2)]
    path = os.path.join(tmp_path, calls[1]["tokens"])
    tokens = np.load(path)
    tokens[0, 7, 4] += 1e-3
    np.save(path, tokens)
    wrong = oracle.verify_calls(w, 5, calls, str(tmp_path))
    assert list(wrong) == [1]
    assert "outside tolerance" in wrong[1][0]


def test_wrong_keyframe_fails(tmp_path):
    w = tiny()
    call = one_call(w, 5, 1, str(tmp_path))
    scores = oracle.frame_scores(oracle.Reference(w, 5).image_features(1))
    worst = sorted(np.argsort(scores)[: w.keyframes].tolist())
    assert worst != call["keyframes"]
    call["keyframes"] = worst
    wrong = oracle.verify_calls(w, 5, [call], str(tmp_path))
    assert "differ from reference" in wrong[0][0]


def test_keyframe_ties_accept_either_choice():
    scores = np.array([3.0, 1.0, 2.0, 2.0 + oracle.SCORE_TOL / 2])
    assert oracle.keyframe_problem(scores, [0, 3], 2) is None
    assert oracle.keyframe_problem(scores, [0, 2], 2) is None
    assert oracle.keyframe_problem(scores, [0, 1], 2) is not None
    assert oracle.keyframe_problem(scores, [3, 0], 2) is not None


@pytest.mark.parametrize(
    "n, rank, pct",
    [(20, 9, 50.0), (35, 24, 100 * 25 / 35), (100, 89, 90.0), (1000, 989, 99.0)],
)
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, rank, pct):
    samples = [float(i) for i in range(n)][::-1]
    value, got = tail(samples)
    assert value == rank and got == pytest.approx(pct)
    assert sum(s > value for s in samples) == 10


def test_tail_rule_falls_back_to_median_below_twenty():
    assert tail([float(i) for i in range(19)]) == (9.0, 50.0)


def _originals():
    return {(m, a): getattr(__import__(m, fromlist=[a]), a) for m, a, _ in tracing.TARGETS}


def _loop(tmp_path, trace: bool, seconds: float) -> tuple[list[bool], dict]:
    """Run the worker loop on the tiny workload: (per timed call, were all targets unwrapped?; loop output)."""
    originals = _originals()
    seen = []

    def run_pipeline(cfg, source):
        seen.append(all(getattr(__import__(m, fromlist=[a]), a) is f for (m, a), f in originals.items()))
        return framescope.run_pipeline(cfg, source)

    fs = types.SimpleNamespace(**{**vars(framescope), "run_pipeline": run_pipeline})
    w = tiny()
    cfg = framescope.make_config(**w.config_kwargs())
    out = worker.run_loop(fs, w, cfg, 5, seconds, trace, str(tmp_path))
    assert _originals() == originals  # restored after the loop either way
    return seen[:-1], out  # the last call is the untimed re-run


def test_untraced_run_installs_no_wrappers(tmp_path):
    seen, out = _loop(tmp_path, trace=False, seconds=0.3)
    assert seen and all(seen)
    assert out["spans"] == []


def test_traced_run_wraps_every_second_call(tmp_path):
    seen, out = _loop(tmp_path, trace=True, seconds=0.3)
    assert len(seen) >= 2
    assert seen == [video % 2 == 1 for video in range(1, len(seen) + 1)]
    names = {s["name"] for s in out["spans"]}
    assert {"pipeline.run", "selection.score", "projector.image", "projector.video", "numerics.pool"} <= names
    traced = [c for c in out["calls"] if c["traced"]]
    assert all(c["counted_macs"] == out["macs"]["total"] for c in traced)
    metrics = tracing.layer_metrics(out["spans"], out["calls"], out["macs"])
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["numerics.macs"] == out["macs"]["total"]


def test_removed_target_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(framescope.selection, "softmax_rows")
    present, absent = tracing.resolve_targets()
    assert absent == ["framescope.selection.softmax_rows"]
    assert len(present) == len(tracing.TARGETS) - 1


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "parent": -1, "start": 0, "end": 100},
        {"id": 1, "parent": 0, "start": 10, "end": 30},
        {"id": 2, "parent": 1, "start": 12, "end": 20},
        {"id": 3, "parent": 0, "start": 50, "end": 90},
    ]
    assert tracing.self_time_ns(spans, spans[0]) == 40
    assert tracing.self_time_ns(spans, spans[1]) == 12
