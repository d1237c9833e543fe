"""Host-speed-normalised timing for a shared machine.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
switches between a fast and a slow state, about 1.5x apart, every second or
so, and whose share of slow time drifts over minutes. A wall time therefore
measures the neighbours as much as the code. `HostClock` times a block in
wall seconds and also samples a fixed reference loop throughout the block,
from a profiling timer, ten times per CPU second. The loop is plain
interpreter work (list indexing, comparisons, swaps and appends, as in a
watch-list propagation) and uses none of the code under test. Each sample
gives the host's speed at that moment; the block's normalised time is its
wall time times its mean speed relative to `REF_NOMINAL_S`, that is the
seconds the block would take on a host where the loop takes `REF_NOMINAL_S`.
A change to the code under test moves the normalised time as it moves the
wall time; a change in the host's load moves the wall time only.

The time spent in the samples taken inside the block (about 1.5% of it)
is left out of the wall time.
"""

from __future__ import annotations

import signal
import time

TICK_CPU_S = 0.1
# samples taken on entry and on exit, after one unrecorded warm-up loop: a
# block shorter than a tick (a set-up) is normalised by these alone
EDGE_SAMPLES = 3
# the reference loop's time on the development VM in its fast state
# (2-vCPU Intel Xeon, Python 3.11.7); it only fixes the unit
REF_NOMINAL_S = 0.0013

_N = 512


def _reference_data() -> tuple[list[int], list[list[int]]]:
    """Fixed pseudo-random values and short lists, made by a linear
    congruential generator so that every run loops over the same data."""
    x = 12345
    vals, lists = [], []
    for _ in range(_N):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        vals.append((x >> 8) % 3 - 1)
    for _ in range(_N):
        row = []
        for _ in range(4):
            x = (1103515245 * x + 12345) & 0x7FFFFFFF
            row.append((x >> 8) % (_N - 1) + 1)
        lists.append(row)
    return vals, lists


_VALS, _LISTS = _reference_data()


def reference_loop() -> int:
    """A fixed amount of interpreter work; returns a checksum so that it
    cannot be skipped."""
    vals, lists = _VALS, _LISTS
    out: list[int] = []
    acc = 0
    for rnd in range(6):
        for i in range(_N):
            row = lists[i]
            first = row[0]
            v = vals[first] if (first + rnd) & 1 else -vals[first]
            if v == 1:
                acc += 1
                continue
            for k in range(1, len(row)):
                lk = row[k]
                if vals[lk] != -1:
                    row[0], row[k] = lk, first
                    out.append(lk)
                    break
        acc += len(out)
        del out[:]
    return acc


def reference_time() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def normalise(wall_s: float, ref_times: list[float]) -> float:
    """Wall seconds to seconds at the nominal host speed: the wall time
    times the mean speed over the samples, relative to the nominal one."""
    speed = sum(REF_NOMINAL_S / r for r in ref_times) / len(ref_times)
    return wall_s * speed


class HostClock:
    """`with HostClock() as hc: ...`, then `hc.wall_s` and `hc.norm_s`.
    The profiling timer and its handler are in place only inside the block,
    so blocks cannot nest."""

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0
        self.wall_s = 0.0
        self.norm_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_time())
        self.paused_s += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        reference_loop()
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)
        self._paused0 = self.paused_s
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        t1 = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)
        self.wall_s = t1 - self._t0 - (self.paused_s - self._paused0)
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.norm_s = normalise(self.wall_s, self.samples)
