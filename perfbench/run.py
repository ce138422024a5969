"""logzono benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: intersection-long, random-systems, lfsr-keysearch, set-algebra
(README.md says why each exists). Each measurement runs in its own
single-threaded worker process, one after another, never two at once.

--trace 0 runs SETUP_SAMPLES - 1 set-up-only processes, then one measuring
process, and reports the end-to-end metrics. --trace 1 runs one process
that alternates untraced and traced rounds, and reports the per-layer
metrics plus the tracing overhead. Gated times are CPU times converted to
a fixed reference speed by speed.py's probe; plain wall times are printed
beside them. Every line but the last is for people; the last line is one
JSON object with the keys correct, attempted, failed and metrics. The exit
code is 0 only when every operation passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("intersection-long", "random-systems", "lfsr-keysearch", "set-algebra")
# p90 is reported only where a run holds enough operations for it.
P90_WORKLOADS = ("random-systems", "set-algebra")
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mib": "MiB",
}


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, seconds: float, mode: str, spans: str = "") -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median_ms(times):
    return statistics.median(times) * 1e3 if times else 0.0


def _quartiles_ms(times):
    """Quartiles of the operation times, in ms."""
    if len(times) < 2:
        return [t * 1e3 for t in times]
    return [t * 1e3 for t in statistics.quantiles(times, n=4, method="inclusive")]


def ops_per_s(run: dict, key: str = "rounds") -> float:
    """Median over rounds of passed operations per second of operation time.

    Every round holds the same mix of inputs, so the median round discards
    rounds that a burst of load from outside the benchmark slowed down.
    """
    return statistics.median(passed / busy for passed, busy in run[key])


def end_to_end(workload: str, setups: list, wall_setups: list, run: dict) -> tuple:
    """(gated metrics, extra printed metrics) of one untraced run."""
    passed = run["op_times_s"]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(run),
        "op_p50_ms": _median_ms(passed),
        "peak_rss_mib": run["peak_rss_mib"],
    }
    extra = {"failed_ratio": (run["failed"] / run["attempted"], "-"),
             "wall_setup_s": (statistics.median(wall_setups), "s"),
             "wall_ops_per_s": (ops_per_s(run, "wall_rounds"), "1/s"),
             "wall_op_p50_ms": (_median_ms(run["op_wall_s"]), "ms")}
    if workload in P90_WORKLOADS and len(passed) >= 2:
        extra["op_p90_ms"] = (statistics.quantiles(passed, n=10)[-1] * 1e3, "ms")
    return metrics, extra


def summarize(workload: str, setups: list, wall_setups: list, run: dict,
              traced: dict = None):
    """Final result object, extra printed metrics, errors and the exit code.

    With a traced run the metrics are the per-layer ones, else end-to-end.
    """
    metrics, extra = end_to_end(workload, setups, wall_setups, run)
    attempted, failed = run["attempted"], run["failed"]
    errors = list(run["errors"])
    if traced is not None:
        import tracing
        units = tracing.metric_units()
        layers = dict(traced["layers"])
        traced_rate = ops_per_s(traced)
        layers["trace.overhead_ratio"] = metrics["ops_per_s"] / traced_rate if traced_rate else 0.0
        shown = {name: {"value": layers[name], "unit": unit} for name, unit in units.items()}
        attempted += traced["attempted"]
        failed += traced["failed"]
        errors += traced["errors"]
    else:
        shown = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": shown}
    return result, extra, errors, (0 if failed == 0 else 1)


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "logzono")):
        print(f"no logzono sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = os.path.join(OUT_DIR, f"spans-{tag}.jsonl")
    try:
        if args.trace:
            run = spawn(args.workload, args.seed, args.seconds, "trace", spans)
            traced = run.pop("traced")
            starts = [run]
        else:
            starts = [spawn(args.workload, args.seed, args.seconds, "setup")
                      for _ in range(SETUP_SAMPLES - 1)]
            run = spawn(args.workload, args.seed, args.seconds, "measure")
            starts.append(run)
            traced = None
        setups = [s["setup_s"] for s in starts]
        wall_setups = [s["setup_wall_s"] for s in starts]
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    result, extra, errors, code = summarize(args.workload, setups, wall_setups, run, traced)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {"setup": len(setups), "ops": len(run["op_times_s"]),
                    "traced_ops": len(traced["op_times_s"]) if traced else 0},
        "setup_samples_s": setups, "wall_setup_samples_s": wall_setups,
        "op_quartiles_ms": _quartiles_ms(run["op_times_s"]),
        "errors": errors,
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        **result,
    }
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={record['samples']['ops']} setup samples={len(setups)} "
          f"python={record['python']} nproc={record['nproc']} sha={record['git_sha'][:12]}")
    for name, m in list(result["metrics"].items()) + list(record["extra"].items()):
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    for e in errors:
        print(f"  FAILED: {e}")
    print(json.dumps(record))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
