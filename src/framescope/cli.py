"""Command-line surface: every report is one JSON document on stdout.

Subcommands: synth, select, project, run, budget, flops, gradcheck, bench.
Commands exit 0 on success; on failure they print one machine-parsable
JSON line ``{"error": {"type", "message"}}`` to stderr and exit nonzero.
Outputs are byte-identical for identical inputs except for wall-clock
fields, which never feed the digests.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np

from . import gradcheck as gc
from .errors import ArgumentError, FrameScopeError, ShapeError
from .features import (
    EncoderSpec,
    FrameFeatures,
    read_features,
    synth_image_features,
    tensor_digest,
    write_features,
)
from .pipeline import (
    NO_SELECTION,
    FileSource,
    PipelineConfig,
    default_keyframes,
    mac_report,
    make_config,
    run_pipeline,
    token_budget,
)
from .projector import (
    ET_PROJ,
    MLP_PROJ,
    ProjectorConfig,
    init_projector_params,
    project_branch,
)
from .selection import frame_scores, top_k_frames

_BRANCH_FLAG = {"dual": "dual", "image": "image_only", "video": "video_only"}
_PROJECTOR_FLAG = {"et": ET_PROJ, "mlp": MLP_PROJ}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage errors are one-line JSON on stderr."""

    def error(self, message):
        print(json.dumps({"error": {"type": "UsageError", "message": message}}), file=sys.stderr)
        sys.exit(2)


def _emit(report: dict) -> None:
    print(json.dumps(report))


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.split("x", 1)
    try:
        return int(parts[0]), int(parts[-1])
    except ValueError:
        raise ArgumentError(f"grid must be N or HxW, got {text!r}") from None


def _load_config(args) -> PipelineConfig:
    """Config file (if given) plus flag overrides, defaults otherwise."""
    cfg = None
    if getattr(args, "config", None):
        with open(args.config) as f:
            try:
                d = json.load(f)
            except (ValueError, RecursionError) as exc:  # bad JSON, text or nesting depth
                raise ArgumentError(f"config {args.config} is not valid JSON: {exc}") from None
        try:
            cfg = PipelineConfig.from_dict(d)
        except (ArgumentError, ShapeError) as exc:
            raise ArgumentError(f"config {args.config} is invalid: {exc}") from None
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "frames", None) is not None:
        overrides["frames"] = args.frames
    if getattr(args, "keyframes", None) is not None:
        overrides["keyframes"] = args.keyframes
    if getattr(args, "no_frame_selection", False):
        overrides["frame_selection"] = NO_SELECTION
    if getattr(args, "projector", None) is not None:
        overrides["projector_kind"] = _PROJECTOR_FLAG[args.projector]
    if getattr(args, "branch", None) is not None:
        overrides["branch_mode"] = _BRANCH_FLAG[args.branch]
    if cfg is None:
        return make_config(**overrides)
    # the file's config with only the flagged fields replaced
    kind = overrides.get("projector_kind")
    if kind is not None:
        for name in ("image_projector", "video_projector"):
            proj = getattr(cfg, name)
            grid_out = proj.grid_in if kind == MLP_PROJ else proj.grid_out
            overrides[name] = dataclasses.replace(proj, kind=kind, grid_out=grid_out)
    frames = overrides.get("frames", cfg.frames)
    if overrides.get("frame_selection", cfg.frame_selection) == NO_SELECTION:
        overrides["keyframes"] = frames
    elif "frames" in overrides and "keyframes" not in overrides:
        overrides["keyframes"] = default_keyframes(frames)
    return dataclasses.replace(cfg, **overrides)


def _run_report(cfg: PipelineConfig, result) -> dict:
    return {
        "schema": "framescope/run-report-v1",
        "config": cfg.to_dict(),
        "keyframes": list(result.keyframes.indices),
        "budget": result.budget.to_dict(),
        "macs": result.macs.to_dict(),
        "durations_ms": {k: round(v, 3) for k, v in result.durations_ms.items()},
        "digest": result.digest,
    }


def _git(*argv: str) -> str | None:
    """Output of a git command run in this package's checkout, or None without one."""
    try:
        proc = subprocess.run(
            ["git", *argv], cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _machine_info() -> dict:
    """Where a bench ran, after pytest-benchmark's machine_info and commit_info."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):  # numpy before 1.26 has no dict mode
        blas = {}
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "commit": _git("rev-parse", "HEAD"),
        "dirty": None if status is None else status != "",
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    grid = _parse_grid(args.grid)
    spec = EncoderSpec("synthetic-image", grid, args.depth)
    feats = synth_image_features(args.seed, args.frames, spec)
    write_features(args.out, feats.tensor)
    _emit(
        {
            "schema": "framescope/synth-report-v1",
            "path": str(args.out),
            "shape": list(feats.tensor.shape),
            "dtype": str(feats.tensor.dtype),
            "digest": tensor_digest(feats.tensor),
        }
    )
    return 0


def _cmd_select(args) -> int:
    feats = FrameFeatures(read_features(args.features))
    k = args.keyframes if args.keyframes is not None else default_keyframes(feats.frames)
    scores = frame_scores(feats)
    keyframes = top_k_frames(scores, k)
    _emit(
        {
            "schema": "framescope/select-report-v1",
            "frames": feats.frames,
            "keyframes": list(keyframes.indices),
            "scores": [float(s) for s in scores.scores],
        }
    )
    return 0


def _cmd_project(args) -> int:
    feats = FrameFeatures(read_features(args.features))
    kind = _PROJECTOR_FLAG[args.projector]
    grid_out = _parse_grid(args.grid_out) if args.grid_out else feats.grid
    if kind == MLP_PROJ:
        grid_out = feats.grid
    cfg = ProjectorConfig(
        kind=kind,
        c_in=feats.depth,
        c_out=args.c_out,
        grid_in=feats.grid,
        grid_out=grid_out,
        c_hidden=args.c_hidden,
    )
    params = init_projector_params(cfg, args.seed)
    seq = project_branch(feats, cfg, params, "image")
    report = {
        "schema": "framescope/project-report-v1",
        "input_shape": list(feats.tensor.shape),
        "tokens_shape": list(seq.tokens.shape),
        "token_count": seq.count,
        "macs": feats.frames * cfg.macs_per_frame(),
        "digest": tensor_digest(seq.tokens),
    }
    if args.out:
        write_features(args.out, seq.tokens)
        report["path"] = str(args.out)
    _emit(report)
    return 0


def _make_source(args):
    if getattr(args, "features", None):
        return FileSource(args.features, getattr(args, "video_features", None))
    return None


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    result = run_pipeline(cfg, source=_make_source(args))
    _emit(_run_report(cfg, result))
    return 0


def _cmd_budget(args) -> int:
    cfg = _load_config(args)
    _emit({"schema": "framescope/budget-report-v1", **token_budget(cfg).to_dict()})
    return 0


def _cmd_flops(args) -> int:
    cfg = _load_config(args)
    _emit({"schema": "framescope/flops-report-v1", **mac_report(cfg).to_dict()})
    return 0


def _cmd_gradcheck(args) -> int:
    rows = gc.run_gradient_checks(seeds=args.seeds, fault_op=args.inject_fault)
    ok = all(r["passed"] for r in rows)
    _emit(
        {
            "schema": "framescope/gradcheck-report-v1",
            "seeds": args.seeds,
            "tolerance": gc.DEFAULT_TOL,
            "results": rows,
            "passed": ok,
        }
    )
    return 0 if ok else 1


def _cmd_bench(args) -> int:
    if args.repeat < 1:
        raise ArgumentError(f"--repeat must be >= 1, got {args.repeat}")
    cfg = _load_config(args)
    run_pipeline(cfg, source=_make_source(args))  # untimed warm-up: builds the weights
    runs = []
    digest = None
    for _ in range(args.repeat):
        t0 = time.perf_counter()
        result = run_pipeline(cfg, source=_make_source(args))
        total_ms = (time.perf_counter() - t0) * 1e3
        runs.append((result.durations_ms, total_ms))
        digest = result.digest
    macs = mac_report(cfg).to_dict()

    def timing(samples: list[float], mac_count: int) -> dict:
        med = statistics.median(samples)
        return {
            "median_ms": round(med, 3),
            "min_ms": round(min(samples), 3),
            "macs": mac_count,
            "macs_per_sec": round(mac_count / (med / 1e3), 3) if med > 0 and mac_count else None,
        }

    stages = {name: timing([d[name] for d, _ in runs], macs.get(name, 0)) for name in runs[0][0]}
    report = {
        "schema": "framescope/bench-report-v1",
        "repeat": args.repeat,
        "stages": stages,
        "total": timing([t for _, t in runs], macs["total"]),
        "budget": result.budget.to_dict(),
        "digest": digest,
    }
    if args.save:
        with open(args.save, "w") as f:
            json.dump({**report, "machine": _machine_info()}, f, indent=2)
            f.write("\n")
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="pipeline config JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--keyframes", "-K", type=int, default=None)
    p.add_argument("--no-frame-selection", action="store_true")
    p.add_argument("--projector", choices=["et", "mlp"], default=None)
    p.add_argument("--branch", choices=["dual", "image", "video"], default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="framescope")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write synthetic encoder features to an MVGF file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--grid", default="14", help="patch grid, N or HxW")
    p.add_argument("--depth", type=int, default=768)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("select", help="score frames and pick the top-K key-frames")
    p.add_argument("features", help="MVGF file of (T, H, W, D) image features")
    p.add_argument("--keyframes", "-K", type=int, default=None, help="default: T // 2")
    p.set_defaults(handler=_cmd_select)

    p = sub.add_parser("project", help="project features through a token projector")
    p.add_argument("features", help="MVGF file of (T, H, W, D) features")
    p.add_argument("--projector", choices=["et", "mlp"], default="et")
    p.add_argument("--grid-out", default=None, help="reduced grid for et, N or HxW")
    p.add_argument("--c-out", type=int, default=896)
    p.add_argument("--c-hidden", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", default=None, help="write projected tokens as MVGF")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("run", help="run the full pipeline and print a run report")
    _add_config_flags(p)
    p.add_argument("--features", default=None, help="MVGF image features (else synthetic)")
    p.add_argument("--video-features", default=None, help="MVGF video features for the key-frames")
    p.set_defaults(handler=_cmd_run)

    p = sub.add_parser("budget", help="closed-form token budget for a configuration")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_budget)

    p = sub.add_parser("flops", help="analytic per-stage MAC counts for a configuration")
    _add_config_flags(p)
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("gradcheck", help="finite-difference checks of all backward passes")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--inject-fault", default=None, help=argparse.SUPPRESS)
    p.set_defaults(handler=_cmd_gradcheck)

    p = sub.add_parser("bench", help="wall-clock per stage over repeated runs")
    _add_config_flags(p)
    p.add_argument("--features", default=None)
    p.add_argument("--video-features", default=None)
    p.add_argument(
        "--repeat", "-r", type=int, default=3,
        help="timed runs, taken after one untimed warm-up run (default 3)",
    )
    p.add_argument(
        "--save", default=None, metavar="PATH",
        help="also write the report, plus a machine object, to this JSON file",
    )
    p.set_defaults(handler=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FrameScopeError, OSError) as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
