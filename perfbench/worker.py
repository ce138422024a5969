"""One workload in one single-threaded process: set up, then time operations.

Started by run.py, once per measurement:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode {setup,measure,trace} --spawned-at T [--spans FILE]

`--spawned-at` is run.py's CLOCK_MONOTONIC reading just before it started
this process, for the plain wall set-up time. The worker prints one JSON
object on its last line of standard output.

The timed phase is a closed loop: one operation in flight, the next one
started when the previous one has been checked. It runs whole rounds of
inputs until the operations' summed time reaches --seconds; in trace mode
untraced and traced rounds alternate until the traced ones reach it. Each
result is checked right after it is timed, outside the timed region; a
failed check or an exception counts the operation as failed and is never
retried.

A `speed.SpeedProbe` runs from the start of `main` to the end. Every time
the worker reports (set-up, each operation, each round) is the process's
CPU time over that stretch converted to reference speed (see speed.py);
set-up counts from the process's start, so it includes interpreter
start-up. Plain wall times are reported beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from speed import SpeedProbe, cpu_now, wall_now

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def import_library():
    """Import logzono from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import logzono
    if not os.path.abspath(logzono.__file__).startswith(src + os.sep):
        raise ImportError(f"logzono imported from {logzono.__file__}, not {src}")


class Tally:
    """Running totals of the operations timed on one side of a phase."""

    def __init__(self):
        self.attempted = 0
        self.busy = 0.0            # wall seconds of the operations so far
        self.spans = []            # (cpu start, cpu end, wall s, passed) per operation
        self.errors = []
        self.rounds = []           # (first, last) index into spans, per round

    def as_dict(self, clock) -> dict:
        """Totals with operation times at reference speed (see speed.py)."""
        times = [clock.duration(a, b) for a, b, _, _ in self.spans]
        walls = [wall for _, _, wall, _ in self.spans]
        passed = [ok for _, _, _, ok in self.spans]

        def per_round(spent):
            return [(sum(passed[i:j]), sum(spent[i:j])) for i, j in self.rounds]

        return {"attempted": self.attempted, "failed": len(self.errors),
                "busy_s": self.busy,
                "op_times_s": [t for t, ok in zip(times, passed) if ok],
                "op_wall_s": [t for t, ok in zip(walls, passed) if ok],
                "rounds": per_round(times), "wall_rounds": per_round(walls),
                "errors": self.errors[:5]}


def run_round(workload, tally: Tally, tracer=None):
    """Time and check one round of operations."""
    first = len(tally.spans)
    for item in workload.next_round():
        if tracer is not None:
            tracer.begin_op(tally.attempted)
        t0, c0 = wall_now(), cpu_now()
        try:
            result = workload.run(item)
            error = None
        except Exception as exc:           # any library error fails the operation
            result, error = None, f"{type(exc).__name__}: {exc}"
        c1, t1 = cpu_now(), wall_now()
        if tracer is not None:
            tracer.end_op()
        tally.attempted += 1
        tally.busy += t1 - t0
        if error is None:
            try:
                error = workload.check(item, result)
            except Exception as exc:       # a result the check cannot read is wrong
                error = f"check raised {type(exc).__name__}: {exc}"
        tally.spans.append((c0, c1, t1 - t0, error is None))
        if error is not None:
            tally.errors.append(error)
        del result                         # free it before the next operation runs
    tally.rounds.append((first, len(tally.spans)))


def timed_phase(workload, seconds: float, probe) -> dict:
    """Run whole rounds, at least one, until the operations add up to `seconds`."""
    tally = Tally()
    while not tally.rounds or tally.busy < seconds:
        run_round(workload, tally)
    return tally.as_dict(probe.clock())


def traced_phase(workload, seconds: float, tracer, probe) -> tuple:
    """Alternate untraced and traced rounds until the traced ones add up to `seconds`.

    Interleaving keeps the tracing overhead (untraced over traced rate) free
    of the machine's slow drifts in speed. Returns (untraced, traced) tallies.
    """
    plain, traced = Tally(), Tally()
    while not traced.rounds or traced.busy < seconds:
        run_round(workload, plain)
        with tracer.install():
            run_round(workload, traced, tracer)
    clock = probe.clock()
    return plain.as_dict(clock), traced.as_dict(clock)


def setup(name: str, seed: int, small: bool = False):
    """Import, build the seeded inputs, then one checked warm-up operation."""
    import workloads
    workload = workloads.WORKLOADS[name](seed, small)
    for item in workload.warmup_items():
        error = workload.check(item, workload.run(item))
        if error is not None:
            raise RuntimeError(f"warm-up operation failed: {error}")
    return workload


def _comb_counts(workload):
    """key_search seed combinations tried and pruned so far (lfsr-keysearch)."""
    return getattr(workload, "combs", 0), getattr(workload, "pruned", 0)


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        return measure(args, probe)
    finally:
        probe.stop()


def measure(args, probe) -> dict:
    """Set up, then run the phase `--mode` names; the worker's result."""
    import_library()
    workload = setup(args.workload, args.seed)
    setup_cpu, setup_end = cpu_now(), wall_now()
    out = {"setup_s": probe.clock().duration(0.0, setup_cpu),
           "setup_wall_s": setup_end - args.spawned_at}
    if args.mode == "setup":
        return out

    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        before = _comb_counts(workload)
        plain, traced = traced_phase(workload, args.seconds, tracer, probe)
        combs, pruned = (x - y for x, y in zip(_comb_counts(workload), before))
        traced["layers"] = tracer.metrics(traced["busy_s"], combs, pruned)
        out.update(plain, traced=traced)
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        out.update(timed_phase(workload, args.seconds, probe))
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


if __name__ == "__main__":
    print(json.dumps(main()))
