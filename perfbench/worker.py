"""The timed process: set up framescope, then run one closed loop of videos.

    python3 perfbench/worker.py --workload NAME --seed N --run-dir DIR --setup-only
    python3 perfbench/worker.py --workload NAME --seed N --run-dir DIR --seconds S --trace 0|1

Set-up is timed from before ``import framescope`` (which imports numpy)
through building the config and the first call, on the warm-up video (id 0).
``--setup-only`` stops there and prints ``{"setup_s", "digest"}``.

Otherwise the worker runs videos 1, 2, ... back to back, one client, until
``--seconds`` have passed, then runs the warm-up video once more, untimed, so
that the repeated input can be compared with its verified digest.  Each
call's fused tokens go to ``DIR/v<id>.npy`` between calls; everything else,
and the spans of a traced run, goes to ``DIR/results.json`` and
``DIR/spans.json``.  With ``--trace 1`` every second video is traced, so the
untraced ones in between measure what tracing costs.

The oracle never runs here: this process is the one whose time and memory
are measured.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
import time

import tracing

# numpy, and the workloads module that imports it, are imported inside
# functions, so that set-up timing starts before numpy is loaded.

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_framescope():
    sys.path.insert(0, SRC)
    import framescope

    if not os.path.abspath(framescope.__file__).startswith(SRC + os.sep):
        raise ImportError(f"framescope resolved to {framescope.__file__}, not under {SRC}")
    return framescope


class SyntheticVideo:
    """Benchmark-owned source: one video's features from its own seeds.

    Calls the generators through the ``framescope.features`` module
    attributes, where the traced run wraps them.
    """

    def __init__(self, features_module, image_seed: int, video_seed: int) -> None:
        self.features = features_module
        self.image_seed = image_seed
        self.video_seed = video_seed

    def image_features(self, cfg):
        return self.features.synth_image_features(self.image_seed, cfg.frames, cfg.image_encoder)

    def video_features(self, cfg, indices):
        return self.features.synth_video_features(self.video_seed, indices, cfg.video_encoder)


def input_paths(run_dir: str, video_id: int) -> tuple[str, str]:
    return (os.path.join(run_dir, f"in{video_id}_image.mvgf"), os.path.join(run_dir, f"in{video_id}_video.mvgf"))


def write_inputs(w, seed: int, video_id: int, run_dir: str) -> None:
    """Write the MVGF input files of one video of an MVGF workload."""
    import workloads

    image_path, video_path = input_paths(run_dir, video_id)
    workloads.write_mvgf(image_path, workloads.mvgf_image(w, seed, video_id))
    workloads.write_mvgf(video_path, workloads.mvgf_video(w, seed, video_id))


def make_source(fs, w, seed: int, video_id: int, run_dir: str, write: bool = True):
    """The feature source of one video; for an MVGF workload, ``write`` first writes its files."""
    import workloads

    if w.source == workloads.MVGF:
        if write:
            write_inputs(w, seed, video_id, run_dir)
        return fs.FileSource(*input_paths(run_dir, video_id))
    return SyntheticVideo(fs.features, *workloads.video_seeds(seed, video_id))


def digest(tokens) -> str:
    return hashlib.blake2b(repr(tokens.shape).encode() + tokens.tobytes(), digest_size=16).hexdigest()


def blas_info() -> dict:
    """BLAS name, version and thread count of the loaded numpy."""
    import numpy as np

    dep = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info = {"blas": f"{dep.get('name', 'unknown')} {dep.get('version', '')}".strip(), "blas_threads": None}
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["blas_threads"] = fn()
                return info
    return info


def setup(w_name: str, seed: int, run_dir: str):
    """Import, config build and the warm-up call; returns (fs, w, cfg, result, seconds)."""
    t0 = time.perf_counter()
    fs = _import_framescope()
    import workloads

    w = workloads.WORKLOADS[w_name]
    cfg = fs.make_config(**w.config_kwargs())
    # the parent wrote the warm-up inputs before this process started
    result = fs.run_pipeline(cfg, make_source(fs, w, seed, 0, run_dir, write=False))
    return fs, w, cfg, result, time.perf_counter() - t0


def record(result, video_id: int, run_dir: str) -> dict:
    import numpy as np

    tokens = result.tokens.tokens
    name = f"v{video_id}.npy"
    np.save(os.path.join(run_dir, name), tokens)
    return {
        "video": video_id,
        "keyframes": list(result.keyframes.indices),
        "budget": result.budget.to_dict(),
        "shape": list(tokens.shape),
        "digest": digest(tokens),
        "durations_ms": dict(result.durations_ms),
        "tokens": name,
    }


def run_loop(fs, w, cfg, seed: int, seconds: float, trace: bool, run_dir: str) -> dict:
    import workloads

    rec = tracing.Recorder()
    present, absent = tracing.resolve_targets() if trace else ([], [])
    count_macs = getattr(fs, "count_macs", None) if trace else None
    if trace and count_macs is None:
        absent.append("framescope.count_macs")
    calls = []
    video_id = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        source = make_source(fs, w, seed, video_id, run_dir)
        traced = trace and video_id % 2 == 0
        rec.video = video_id
        result, error = None, None
        with tracing.Wrappers(rec, present if traced else []), (
            count_macs() if traced and count_macs else contextlib.nullcontext()
        ) as counter:
            span = rec.open(tracing.RUN_SPAN) if traced else None
            t0 = time.perf_counter()
            try:
                result = fs.run_pipeline(cfg, source)
            except Exception as exc:  # a failed call is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            if span is not None:
                rec.close(span)
        call = record(result, video_id, run_dir) if result is not None else {"video": video_id}
        call.update(timed=True, traced=traced, latency_s=latency, error=error)
        if counter is not None:
            call["counted_macs"] = counter.total
        calls.append(call)
        if w.source == workloads.MVGF:
            for path in input_paths(run_dir, video_id):
                os.remove(path)
        video_id += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        rerun = digest(fs.run_pipeline(cfg, make_source(fs, w, seed, 0, run_dir, write=False)).tokens.tokens)
    except Exception as exc:  # counted as a digest mismatch
        rerun = f"{type(exc).__name__}: {exc}"
    return {
        "calls": calls,
        "rerun_digest": rerun,
        "peak_rss_mb": peak_rss_mb,
        "spans": rec.spans,
        "absent": absent,
        "macs": fs.mac_report(cfg).to_dict(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    fs, w, cfg, warm, setup_s = setup(args.workload, args.seed, args.run_dir)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "digest": digest(warm.tokens.tokens)}))
        return 0
    import numpy as np

    warm_call = record(warm, 0, args.run_dir)
    warm_call.update(timed=False, traced=False, error=None)
    out = run_loop(fs, w, cfg, args.seed, args.seconds, bool(args.trace), args.run_dir)
    spans = out.pop("spans")
    out.update(
        setup_s=setup_s,
        calls=[warm_call] + out["calls"],
        env={"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__, **blas_info()},
    )
    with open(os.path.join(args.run_dir, "spans.json"), "w") as f:
        json.dump(spans, f)
    with open(os.path.join(args.run_dir, "results.json"), "w") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
