"""Call counting the way nvprof counts (§4.3): the backend's counter and
the eq. 2 formula in :mod:`repro.harness.metrics`."""

from collections import Counter

import pytest

from repro.harness.metrics import cps, total_calls_formula


class TestCallCounting:
    def test_launch_counts_three_calls_total(self, backend):
        before = backend.total_calls
        backend.launch("k")
        assert backend.total_calls - before == 3
        assert backend.call_counter["cudaLaunchKernel"] == 1

    def test_formula_matches_summed_counter(self, backend):
        before = backend.total_calls
        p = backend.malloc(64)
        for _ in range(5):
            backend.launch("k")
        backend.free(p)
        backend.device_synchronize()
        assert backend.total_calls == total_calls_formula(backend.call_counter)
        # launches + malloc/free/sync
        assert backend.total_calls - before == 3 * 5 + 3

    def test_cps(self):
        assert cps(300, 2.0) == pytest.approx(150.0)
        with pytest.raises(ValueError):
            cps(300, 0.0)

    def test_note_external_calls_counted_in_profile(self, backend):
        backend.note_external_calls(Counter({"cudaLaunchKernel": 10}), repeats=7)
        assert backend.call_counter["cudaLaunchKernel"] == 70
