"""Self-test of the benchmark harness, at tiny sizes (a few seconds):

    python3 perfbench/selftest.py

1. Each workload's gate passes once on correct library code.
2. With `contains` replaced by one that always answers False, every
   workload counts the wrong operations in failed_ratio and the exit code
   run.py would return is non-zero.
3. The traced run reports every per-layer metric named in BENCHMARK.json.
4. BENCHMARK.json names the metrics run.py prints, `digests.json` matches
   what reference.py computes, and the random-system generator reproduces
   tests/tests_util_systems.py.
5. The reference clock of speed.py scales wall time by the probed speed
   and leaves the probes out.
6. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402

worker.import_library()
import reference  # noqa: E402
import tracing  # noqa: E402

SEED = 7
FAILURES = []
PROBE = speed.SpeedProbe()


def expect(cond: bool, what: str):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def measure(name: str) -> dict:
    workload = worker.setup(name, SEED, small=True)
    out = worker.timed_phase(workload, 0.0, PROBE)
    out["peak_rss_mib"] = 1.0
    return out


def check_gates():
    for name in run.WORKLOADS:
        out = measure(name)
        result, extra, errors, code = run.summarize(name, [1.0], [1.0], out)
        expect(out["attempted"] >= 1 and out["failed"] == 0 and code == 0 and result["correct"],
               f"{name}: {out['attempted']} operations pass their checks {errors}")


def check_injected_failure():
    for name in run.WORKLOADS:
        workload = worker.setup(name, SEED, small=True)
        with tracing.patched("zonotope", "contains", lambda zono, point: False):
            out = worker.timed_phase(workload, 0.0, PROBE)
        out["peak_rss_mib"] = 1.0
        result, extra, errors, code = run.summarize(name, [1.0], [1.0], out)
        ratio = extra["failed_ratio"][0]
        expect(ratio > 0 and code != 0 and not result["correct"],
               f"{name}: contains() always False gives failed_ratio {ratio:.2f}, "
               f"exit code {code} ({(errors or ['no error'])[0][:60]})")


def check_trace():
    units = tracing.metric_units()
    for name in run.WORKLOADS:
        workload = worker.setup(name, SEED, small=True)
        tracer = tracing.Tracer()
        plain, out = worker.traced_phase(workload, 0.0, tracer, PROBE)
        layers = tracer.metrics(out["busy_s"], 0, 0)
        expect(set(layers) | {"trace.overhead_ratio"} == set(units),
               f"{name}: traced run reports every per-layer metric")
        shares = sum(layers[f"{layer}.self_share"] for layer in tracing.LAYERS)
        expect(0.5 < shares <= 1.0, f"{name}: layer self-time shares sum to {shares:.2f}")
        expect(out["failed"] == 0, f"{name}: traced operations pass their checks")


def check_files():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(layers == tracing.metric_units(), "BENCHMARK.json per_layer matches tracing.py")
    expect({w["name"] for w in bench["workloads"]} <= set(run.WORKLOADS),
           "BENCHMARK.json workloads are workloads of run.py")
    expect(reference.build_digests() == reference.load_digests(),
           "digests.json matches the reference evaluator")
    tests_dir = os.path.join(ROOT, "tests")
    if os.path.isdir(tests_dir):
        sys.path.insert(0, tests_dir)
        from tests_util_systems import random_system_source
        same = all(
            reference.random_system(random.Random(s), 6, s % 3, 3)[0]
            == random_system_source(random.Random(s), 6, s % 3, 3) for s in range(50))
        expect(same, "random systems match tests_util_systems.random_system_source")


def check_reference_clock():
    ref = speed.REFERENCE_S
    # probes of 2*ref at CPU times 10 and 20 (half speed), 4*ref at 30 (quarter speed)
    clock = speed.ReferenceClock([(10.0, 10.0 + 2 * ref), (20.0, 20.0 + 2 * ref),
                                  (30.0, 30.0 + 4 * ref)])
    near = lambda x, y: abs(x - y) < 1e-9
    expect(near(clock.duration(12.0, 14.0), 1.0),
           "reference clock halves time measured at half speed")
    expect(near(clock.duration(10.0, 20.0 + 2 * ref), (10.0 - 2 * ref) / 2),
           "reference clock leaves the probes' own time out")
    expect(near(clock.duration(30.0 + 4 * ref, 34.0 + 4 * ref), 1.0),
           "reference clock keeps the last speed after the last probe")


def check_bare_directory():
    bare = os.path.join(HERE, "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "set-algebra", "--seed", "1",
             "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
            timeout=180)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        expect(proc.returncode != 0 and '"correct"' not in last,
               f"without src/, run.py exits {proc.returncode} and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    PROBE.start()
    try:
        check_gates()
        check_injected_failure()
        check_trace()
    finally:
        PROBE.stop()
    check_files()
    check_reference_clock()
    check_bare_directory()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
