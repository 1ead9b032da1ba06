"""Host timings in reference seconds, steady while the machine's speed drifts.

On a shared machine this process's speed drifts with the load of its
neighbours: by 10 to 20% over minutes, and by a factor of two at worst.
No statistic over one run removes that, and it is more than a benchmark
bound can absorb. A :class:`RefClock` therefore samples the machine's
speed while it times a phase: a timer signal runs a fixed slice of
reference work every :data:`PERIOD_S`, a few more run just before and
after the phase, and the phase's wall time, slices excluded, becomes
reference seconds::

    ref_s = wall_s * NOMINAL_SLICE_S / mean(slice durations)

that is, seconds on a machine that runs one slice in
:data:`NOMINAL_SLICE_S`. The slice runs no ``repro`` code, so a change to
the program moves reference seconds as it would move wall seconds on a
steady machine. A slowdown hits code according to the memory it touches,
so the slice has two parts: object and dict churn with numpy sorts inside
the core's caches, and a walk through a 400 000-entry permutation that
misses them. On a shared 2-vCPU x86 VM, round-to-round variation of one
workload's host time fell from 7-30% in wall seconds to 2-4% in
reference seconds.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import numpy as np

#: duration of one slice on the nominal machine (about its duration on
#: an idle 2-vCPU x86 VM)
NOMINAL_SLICE_S = 0.006
#: interval of the timer signal that runs a slice inside a phase
PERIOD_S = 0.05
#: slices run just before and just after a phase
BURST = 2
#: entries of the permutation the slice walks, and steps per slice
RING, STEPS = 400_000, 15_000


class _Cell:
    def __init__(self, x: int) -> None:
        self.x = x


class RefClock:
    """Times phases in reference seconds (module docstring). Building one
    allocates the permutation its slices walk; a run builds one."""

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(20_000)
        self._ring = list(range(RING))
        random.Random(0).shuffle(self._ring)
        self._at = 0
        self._slices: list[float] = []

    def _slice(self, *_signal) -> None:
        """Run the reference work once and record how long it took (also
        the timer signal's handler)."""
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        for i in range(6_000):
            cell = _Cell(i)
            table[i % 97] = cell.x * 3 + len(table)
        a = self._array
        for _ in range(3):
            a = np.sort(a) + 1.0
        ring, at = self._ring, self._at
        for _ in range(STEPS):
            at = ring[at]
        self._at = at
        self._slices.append(time.perf_counter() - t0)

    def time(self, fn, *args, sample: bool = True, **kwargs):
        """Run ``fn``; return its result, its wall seconds and its
        reference seconds, slices excluded. With ``sample`` false no slice
        interrupts ``fn`` (in a traced round a slice would count toward
        whichever layer it interrupted)."""
        self._slices = []
        for _ in range(BURST):
            self._slice()
        previous = signal.signal(signal.SIGALRM, self._slice) if sample else None
        if sample:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= sum(self._slices[BURST:])
        for _ in range(BURST):
            self._slice()
        return out, wall, wall * NOMINAL_SLICE_S / statistics.fmean(self._slices)
