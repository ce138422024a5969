"""Machine-speed probe: times measured at a fixed reference speed.

On a shared virtual machine the same pure-Python code runs up to twice as
fast at one moment as at the next (other tenants contend for the physical
core), and the guest sees neither steal time nor a lower CPU-time share:
thread CPU time and wall time agree. Run-to-run spread of plain times is
then set by the machine, not the program.

`SpeedProbe` samples the machine's speed while the benchmark runs: a
SIGPROF timer interrupts the process after every `INTERVAL_S` seconds of
its CPU time and times a fixed loop of pure-Python integer work
(`_probe_loop`, which allocates no container objects, so it never triggers
the garbage collector). Between two samples the machine is taken to run
at the speed of the later one (the median of it and its two neighbours,
which drops a sample hit by an interrupt). `ReferenceClock.duration(a, b)`
is then the time the process's CPU-time interval [a, b] would have taken
at reference speed, where the loop takes `REFERENCE_S`: each stretch of
CPU time is scaled by REFERENCE_S / (loop time measured there), and the
probes' own time is left out. Measuring on the CPU-time axis also leaves
out any time the process spends descheduled behind another process.

The probe loop does no logzono work, so a change to the library cannot
change the speed it measures; a slower operation reads slower.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
PROBE_ITERATIONS = 400
# Probe loop time at reference speed, chosen so that reference times come
# out close to wall times on the 2-vCPU VM the benchmark was tuned on.
REFERENCE_S = 0.00020

# CPU time of the main thread, the only thread, from the process's start
# (interpreter start-up included). time.process_time is not used: on the
# Linux VM the benchmark was tuned on it lags behind inside a signal handler.
cpu_now = time.thread_time


def wall_now() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _probe_loop(n: int = PROBE_ITERATIONS) -> int:
    x = 0x9E3779B97F4A7C15
    acc = 0
    slots = [0] * 16
    for i in range(n):
        x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
        y = (x >> 7) ^ (x & 0xFFFF) | (i << 3)
        slots[i & 15] = y
        acc ^= slots[(i + 5) & 15]
    return acc


class SpeedProbe:
    """Samples the machine's speed from a CPU-time timer while started."""

    def __init__(self):
        self.samples = []          # (start, end) CPU time of each probe
        self._prev = None

    def _sample(self, signum, frame):
        t0 = cpu_now()
        _probe_loop()
        self.samples.append((t0, cpu_now()))   # one append: safe against re-entry

    def start(self):
        self._prev = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._prev is not None:
            signal.signal(signal.SIGPROF, self._prev)
            self._prev = None

    def clock(self) -> "ReferenceClock":
        """The clock of the samples so far; the probe may keep running."""
        return ReferenceClock(list(self.samples))


def _median3(values: list, i: int) -> float:
    window = sorted(values[max(i - 1, 0):i + 2])
    return window[len(window) // 2]


class ReferenceClock:
    """CPU-time intervals converted to reference-speed time."""

    def __init__(self, samples: list):
        if not samples:
            raise ValueError("no speed samples were taken")
        probe = [e - s for s, e in samples]
        scale = [REFERENCE_S / _median3(probe, i) for i in range(len(probe))]
        # Piecewise-linear cumulative reference time over segments: the gap
        # before probe i runs at scale[i], a probe itself counts for nothing.
        self._t = [samples[0][0]]
        self._rate = []
        for i, (s, e) in enumerate(samples):
            if i:
                self._rate.append(scale[i])
                self._t.append(s)
            self._rate.append(0.0)
            self._t.append(e)
        self._cum = [0.0]
        for r, a, b in zip(self._rate, self._t, self._t[1:]):
            self._cum.append(self._cum[-1] + (b - a) * r)
        # before the first probe and after the last: their own speeds
        self._before, self._after = scale[0], scale[-1]

    def _at(self, t: float) -> float:
        """Cumulative reference time at CPU time t, from the first probe."""
        if t <= self._t[0]:
            return (t - self._t[0]) * self._before
        if t >= self._t[-1]:
            return self._cum[-1] + (t - self._t[-1]) * self._after
        i = bisect.bisect_right(self._t, t) - 1
        return self._cum[i] + (t - self._t[i]) * self._rate[i]

    def duration(self, a: float, b: float) -> float:
        """Reference-speed time of the CPU-time interval [a, b], probes left out."""
        return self._at(b) - self._at(a)
