"""framescope benchmark: one closed-loop client driving the public library.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Per run, in this process's children and then in this process:

1. set-up is measured ``SETUPS`` times: in set-up-only workers and once
   in the timed worker, each a fresh process (import, config build,
   first call on the warm-up video); ``setup_s`` is their median;
2. the timed worker runs distinct videos back to back for ``--seconds``
   (see worker.py); with ``--trace 1`` every second video is traced;
3. this process checks every call against the plain-numpy oracle
   (oracle.py), checks that the warm-up video, run again in every set-up
   and after the loop, reproduces its verified digest, and in a traced run
   that each traced video's counted MACs equal ``mac_report``;
4. it prints one line per metric, with its unit, and as the last line a
   JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``).

Inputs are a pure function of ``--seed``.  Everything a run writes stays
under ``.perfbench_runs/`` in the checkout; ``summary.json`` and
``spans.json`` are kept there, the token files are deleted once checked.
Exits 2 without a result when the framescope sources are missing.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys

import oracle
import tracing
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = os.path.join(ROOT, ".perfbench_runs")
SETUPS = 5
PROBE_TIMEOUT_S = 60
LOOP_GRACE_S = 90  # worker set-up, the last call and writing results

# End-to-end metrics: name -> unit.  error_rate is printed but reported to
# the caller through "attempted" and "failed", since it is 0 when correct.
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "videos_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten samples beyond it.

    Of n sorted samples that is the one at 0-based rank n - 11, the
    nearest-rank percentile 100 * (n - 10) / n.  Below 20 samples no
    percentile from the median up has ten beyond it, and the median is
    returned as p50.
    """
    n = len(samples)
    if n < 20:
        return statistics.median(samples), 50.0
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def env_info(worker_env: dict) -> dict:
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    src_lines = 0
    for path in glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, "rb") as f:
            src_lines += f.read().count(b"\n")
    return {**worker_env, "commit": commit, "src_lines": src_lines}


def _worker(args: list[str], timeout: float) -> str:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}")
    return done.stdout


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure and verify one workload; returns its summary, which holds the result object."""
    w = workloads.WORKLOADS[name]
    run_dir = os.path.join(RUNS, f"{name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if w.source == workloads.MVGF:
        worker.write_inputs(w, seed, 0, run_dir)  # warm-up inputs, written before any set-up starts

    common = ["--workload", name, "--seed", str(seed), "--run-dir", run_dir]
    probes = [json.loads(_worker(common + ["--setup-only"], PROBE_TIMEOUT_S).splitlines()[-1]) for _ in range(SETUPS - 1)]
    _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))], seconds + LOOP_GRACE_S)
    with open(os.path.join(run_dir, "results.json")) as f:
        res = json.load(f)

    calls = res["calls"]
    problems = oracle.verify_calls(w, seed, calls, run_dir)
    verified = calls[0]["digest"]
    repeats = [p["digest"] for p in probes] + [res["rerun_digest"]]
    for i, d in enumerate(repeats):
        if d != verified:
            problems[f"repeat{i}"] = [f"warm-up video digest {d} != verified {verified}"]
    for i, call in enumerate(calls):
        if "counted_macs" in call and call["counted_macs"] != res["macs"]["total"]:
            problems.setdefault(i, []).append(f"count_macs {call['counted_macs']} != mac_report {res['macs']['total']}")
    for f in glob.glob(os.path.join(run_dir, "*.npy")) + glob.glob(os.path.join(run_dir, "*.mvgf")):
        os.remove(f)

    timed = [c["latency_s"] * 1e3 for c in calls if c.get("timed")]
    tail_ms, pct = tail(timed)
    attempted = len(calls) + len(repeats)
    metrics = {
        "setup_s": statistics.median([res["setup_s"]] + [p["setup_s"] for p in probes]),
        "latency_ms_p50": statistics.median(timed),
        "latency_ms_tail": tail_ms,
        "videos_per_s": len(timed) / (sum(timed) / 1e3),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    units = dict(END_TO_END)
    if trace:
        with open(os.path.join(run_dir, "spans.json")) as f:
            spans = json.load(f)
        metrics = tracing.layer_metrics(spans, calls, res["macs"])
        units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    summary = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "videos": len(timed),
        "tail_percentile": pct,
        "env": env_info(res["env"]),
        "absent": res["absent"],
        "problems": {str(k): v for k, v in problems.items()},
        "error_rate": len(problems) / attempted,
        "result": {
            "correct": not problems,
            "attempted": attempted,
            "failed": len(problems),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
    }
    with open(os.path.join(run_dir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1)
    return summary


def report(s: dict) -> None:
    """Human-readable lines for one workload; the JSON result line follows them."""
    env = s["env"]
    print(f"workload {s['workload']}  seed {s['seed']}  seconds {s['seconds']}  trace {s['trace']}  videos {s['videos']}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    result = s["result"]
    for name, m in result["metrics"].items():
        note = ""
        if name == "latency_ms_tail":
            note = f"  (p{s['tail_percentile']:.1f} of n={s['videos']})"
        print(f"  {name:32s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  {'error_rate':32s} {s['error_rate']:14.4f} ratio  ({result['failed']} failed of {result['attempted']})")
    if s["absent"]:
        print("  absent trace targets: " + ", ".join(s["absent"]))
    for key, found in s["problems"].items():
        print(f"  wrong output [{key}]: " + "; ".join(found), file=sys.stderr)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="framescope benchmark")
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "framescope", "__init__.py")):
        print(f"framescope sources not found under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"{name}: run failed: {exc}", file=sys.stderr)
            return 1
        report(summary)
        print(json.dumps(summary["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
