"""Reference seconds: slices sample a phase and are excluded from it."""

import signal
import time

import pytest

from bench.refclock import BURST, NOMINAL_SLICE_S, PERIOD_S, RefClock


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_slices_sample_the_phase_and_are_excluded_from_it():
    before = signal.getsignal(signal.SIGALRM)
    clock = RefClock()
    t0 = time.perf_counter()
    out, wall, ref = clock.time(_busy, 10 * PERIOD_S)
    elapsed = time.perf_counter() - t0
    slices = clock._slices
    assert out == "done"
    assert len(slices) >= 2 * BURST + 5  # the timer fired inside the phase
    assert abs(wall - (elapsed - sum(slices))) < 0.01
    assert ref == pytest.approx(wall * NOMINAL_SLICE_S / (sum(slices) / len(slices)))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_unsampled_phase_runs_uninterrupted():
    clock = RefClock()
    clock.time(_busy, 5 * PERIOD_S, sample=False)
    assert len(clock._slices) == 2 * BURST
