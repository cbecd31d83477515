"""Outside-in spans: wrappers around the module attributes the pipeline calls through.

The traced worker installs a wrapper on each attribute in ``TARGETS`` just
before a traced call and restores the original right after it, so untraced
calls run the program untouched.  Each span records its name, start and end
(``perf_counter_ns``), parent span and video id; spans stay in memory and
are written out when the run ends.  A target that the program no longer has
is reported as absent and otherwise skipped.

``layer_metrics`` reduces the spans of a run to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import tracemalloc
from time import perf_counter_ns

# (module, attribute, span name); "projector.{branch}" takes the branch argument.
TARGETS = (
    ("framescope.features", "synth_image_features", "features.synth_image"),
    ("framescope.features", "synth_video_features", "features.synth_video"),
    ("framescope.pipeline", "read_features", "features.read"),
    ("framescope.pipeline", "frame_scores", "selection.score"),
    ("framescope.pipeline", "top_k_frames", "selection.topk"),
    ("framescope.pipeline", "init_projector_params", "projector.init"),
    ("framescope.pipeline", "project_branch", "projector.{branch}"),
    ("framescope.selection", "matmul", "numerics.scoring_matmul"),
    ("framescope.selection", "softmax_rows", "numerics.softmax"),
    ("framescope.numerics", "matmul", "numerics.ffn_matmul"),
    ("framescope.numerics", "gelu", "numerics.gelu"),
    ("framescope.projector", "adaptive_avg_pool2d", "numerics.pool"),
    ("framescope.projector", "depthwise_conv3x3", "numerics.conv"),
)
RUN_SPAN = "pipeline.run"


class Recorder:
    """In-memory span list; spans nest through a stack (one thread)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.video = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append({"id": index, "name": name, "video": self.video, "parent": parent})
        self._stack.append(index)
        self.spans[index]["start"] = perf_counter_ns()
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter_ns()
        self._stack.pop()


def _wrap(rec: Recorder, fn, name: str):
    if name == "projector.{branch}":
        def span_name(args, kwargs):
            return "projector." + str(kwargs.get("branch", args[3] if len(args) > 3 else "unknown"))
    else:
        def span_name(args, kwargs):
            return name

    measure_alloc = name == "selection.score"
    count_bytes = name == "features.read"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.open(span_name(args, kwargs))
        if measure_alloc:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        finally:
            if measure_alloc:
                rec.spans[index]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            rec.close(index)
        if count_bytes:
            rec.spans[index]["bytes"] = int(getattr(result, "nbytes", 0))
        return result

    return wrapper


def resolve_targets() -> tuple[list[tuple], list[str]]:
    """(present, absent): present entries are (module, attribute, span name)."""
    present, absent = [], []
    for module_name, attr, name in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is None or not callable(getattr(module, attr, None)):
            absent.append(f"{module_name}.{attr}")
        else:
            present.append((module, attr, name))
    return present, absent


class Wrappers:
    """Installs span wrappers on the present targets and restores the originals."""

    def __init__(self, rec: Recorder, present: list[tuple]) -> None:
        self.rec = rec
        self.present = present
        self._saved: list[tuple] = []

    def __enter__(self) -> "Wrappers":
        for module, attr, name in self.present:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, _wrap(self.rec, original, name))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_time_ns(spans: list[dict], span: dict) -> int:
    """Duration of a span minus the part of it that its direct children cover."""
    covered, reach = 0, span["start"]
    children = sorted((s["start"], s["end"]) for s in spans if s["parent"] == span["id"])
    for start, end in children:
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            covered += end - start
            reach = end
    return span["end"] - span["start"] - covered


# Per-layer metrics: name -> (unit, better).
LAYER_METRICS = {
    "features.synth_image_ms": ("ms", "lower"),
    "features.synth_video_ms": ("ms", "lower"),
    "features.read_ms": ("ms", "lower"),
    "features.read_mb_per_s": ("MB/s", "higher"),
    "selection.score_ms": ("ms", "lower"),
    "selection.score_gmac_per_s": ("GMAC/s", "higher"),
    "selection.score_peak_alloc_mb": ("MB", "lower"),
    "projector.init_ms": ("ms", "lower"),
    "projector.image_ms": ("ms", "lower"),
    "projector.video_ms": ("ms", "lower"),
    "projector.image_gmac_per_s": ("GMAC/s", "higher"),
    "projector.video_gmac_per_s": ("GMAC/s", "higher"),
    "numerics.scoring_matmul_ms": ("ms", "lower"),
    "numerics.softmax_ms": ("ms", "lower"),
    "numerics.ffn_matmul_ms": ("ms", "lower"),
    "numerics.gelu_ms": ("ms", "lower"),
    "numerics.pool_ms": ("ms", "lower"),
    "numerics.conv_ms": ("ms", "lower"),
    "numerics.matmul_calls": ("count", "lower"),
    "numerics.pool_calls": ("count", "lower"),
    "numerics.conv_calls": ("count", "lower"),
    "numerics.macs": ("count", "lower"),
    "pipeline.run_ms": ("ms", "lower"),
    "pipeline.self_ms": ("ms", "lower"),
    "pipeline.unreported_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

# Span names whose total time per video gives a *_ms metric.
_TIMED = {
    "features.synth_image_ms": "features.synth_image",
    "features.synth_video_ms": "features.synth_video",
    "features.read_ms": "features.read",
    "selection.score_ms": "selection.score",
    "projector.init_ms": "projector.init",
    "projector.image_ms": "projector.image",
    "projector.video_ms": "projector.video",
    "numerics.scoring_matmul_ms": "numerics.scoring_matmul",
    "numerics.softmax_ms": "numerics.softmax",
    "numerics.ffn_matmul_ms": "numerics.ffn_matmul",
    "numerics.gelu_ms": "numerics.gelu",
    "numerics.pool_ms": "numerics.pool",
    "numerics.conv_ms": "numerics.conv",
    "pipeline.run_ms": RUN_SPAN,
}


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def video_metrics(spans: list[dict], call: dict, macs: dict) -> dict:
    """Per-layer values of one traced video (all spans belong to it)."""
    total_ns: dict[str, int] = {}
    count: dict[str, int] = {}
    for s in spans:
        total_ns[s["name"]] = total_ns.get(s["name"], 0) + s["end"] - s["start"]
        count[s["name"]] = count.get(s["name"], 0) + 1
    ms = {metric: total_ns.get(span, 0) / 1e6 for metric, span in _TIMED.items()}
    run = next(s for s in spans if s["name"] == RUN_SPAN)
    read_bytes = sum(s.get("bytes", 0) for s in spans)
    peak = max((s.get("peak_alloc", 0) for s in spans), default=0)
    return {
        **ms,
        "features.read_mb_per_s": _rate(read_bytes / 1e6, ms["features.read_ms"] / 1e3),
        "selection.score_gmac_per_s": _rate(macs["scoring"] / 1e9, ms["selection.score_ms"] / 1e3),
        "selection.score_peak_alloc_mb": peak / 1e6,
        "projector.image_gmac_per_s": _rate(macs["image_projection"] / 1e9, ms["projector.image_ms"] / 1e3),
        "projector.video_gmac_per_s": _rate(macs["video_projection"] / 1e9, ms["projector.video_ms"] / 1e3),
        "numerics.matmul_calls": count.get("numerics.scoring_matmul", 0) + count.get("numerics.ffn_matmul", 0),
        "numerics.pool_calls": count.get("numerics.pool", 0),
        "numerics.conv_calls": count.get("numerics.conv", 0),
        "numerics.macs": call.get("counted_macs") or 0,
        "pipeline.self_ms": self_time_ns(spans, run) / 1e6,
        "pipeline.unreported_ms": ms["pipeline.run_ms"] - sum(call["durations_ms"].values()),
    }


def layer_metrics(spans: list[dict], calls: list[dict], macs: dict) -> dict:
    """Median over traced videos of each per-layer metric, plus the tracing overhead.

    ``trace.overhead_pct`` compares the median latency of traced calls with
    that of the untraced calls interleaved with them in the same run.
    """
    by_video: dict[int, list[dict]] = {}
    for s in spans:
        by_video.setdefault(s["video"], []).append(s)
    per_video = []
    for call in calls:
        if call.get("traced") and call["video"] in by_video and not call.get("error"):
            per_video.append(video_metrics(by_video[call["video"]], call, macs))
    out = {
        name: statistics.median(v[name] for v in per_video) if per_video else 0.0
        for name in LAYER_METRICS
        if name != "trace.overhead_pct"
    }
    traced = [c["latency_s"] for c in calls if c.get("timed") and c.get("traced")]
    plain = [c["latency_s"] for c in calls if c.get("timed") and not c.get("traced")]
    overhead = 0.0
    if traced and plain:
        overhead = (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0
    out["trace.overhead_pct"] = overhead
    return out
