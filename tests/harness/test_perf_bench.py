"""perf suite: trace determinism, replay equality, gate math.

The full suite runs in CI (``repro bench perf``); these tests cover the
pieces cheaply — tiny traces through both replay paths, and the
baseline-gate arithmetic against synthetic reports.
"""

import pytest

from repro.gpu.dirty_legacy import LegacyDirtyIndex, LegacyWrittenSet
from repro.gpu.intervals import EpochIntervalIndex, SpanSet
from repro.harness.perf_bench import (
    RATIO_FLOOR,
    REGRESSION_LIMIT,
    access_trace,
    dirty_trace,
    gate_metrics,
    legacy_access_scan,
    replay_dirty,
    replay_written,
    vector_access_scan,
    written_trace,
)
from repro.harness.suites import baseline_checks, baseline_entry, load_suite


class TestTraces:
    def test_traces_are_deterministic(self):
        assert dirty_trace(50, 1 << 12, 3) == dirty_trace(50, 1 << 12, 3)
        assert written_trace(50, 1 << 12, 3) == written_trace(50, 1 << 12, 3)
        a1, p1 = access_trace(20, 10, 1 << 12, 3)
        a2, p2 = access_trace(20, 10, 1 << 12, 3)
        assert [(x[:4]) for x in a1] == [(x[:4]) for x in a2]
        assert [c.clocks for *_, c in p1] == [c.clocks for *_, c in p2]

    def test_dirty_replay_equal(self):
        ops = dirty_trace(300, 1 << 12, seed=1)
        assert replay_dirty(LegacyDirtyIndex(), ops) == (
            replay_dirty(EpochIntervalIndex(), ops)
        )

    def test_written_replay_equal(self):
        ops = written_trace(300, 1 << 12, seed=2)
        assert replay_written(LegacyWrittenSet(), ops) == (
            replay_written(SpanSet(), ops)
        )

    def test_access_scan_equal(self):
        accesses, probes = access_trace(60, 40, 1 << 12, seed=4)
        assert legacy_access_scan(accesses, probes) == (
            vector_access_scan(accesses, probes)
        )


def _report(cal=0.1, cap=0.02, san=0.01, speedup=8.0):
    return {
        "config": load_suite("perf").config,
        "metrics": gate_metrics(cal, cap, san, speedup),
    }


def _gate(report, base):
    """Baseline checks of ``report`` against ``base`` recorded as the
    perf entry: {metric: (ratio, ok)}, plus the entry check."""
    baseline = {"version": 1, "suites": {"perf": baseline_entry("perf", base)}}
    ok = {c["name"]: c["ok"] for c in baseline_checks("perf", report, baseline)}
    assert ok.pop("baseline entry")
    return {
        g.metric: (
            g.ratio(report["metrics"][g.metric], base["metrics"][g.metric]),
            ok[f"{g.metric} vs baseline"],
        )
        for g in load_suite("perf").gates
    }


class TestGate:
    def test_no_baseline_fails(self):
        checks = baseline_checks("perf", _report(), {"version": 1})
        assert [(c["name"], c["ok"]) for c in checks] == [
            ("baseline entry", False)
        ]

    def test_identical_run_passes(self):
        gate = _gate(_report(), _report())
        assert set(gate) == {
            "capture_wall_cal", "sanitize_wall_cal", "micro_speedup",
        }
        for ratio, ok in gate.values():
            assert ratio == pytest.approx(1.0)
            assert ok

    def test_large_regression_fails(self):
        ratio, ok = _gate(_report(cap=0.5), _report())["capture_wall_cal"]
        assert ratio > REGRESSION_LIMIT
        assert not ok

    def test_slower_machine_is_normalized_away(self):
        """Everything (calibration included) 2x slower: all ratios 1."""
        gate = _gate(_report(cal=0.2, cap=0.04, san=0.02), _report())
        for ratio, ok in gate.values():
            assert ratio == pytest.approx(1.0)
            assert ok

    def test_tiny_metric_jitter_is_damped(self):
        """A few-ms metric doubling must not trip the gate (the floor
        keeps sub-calibration noise out of the ratio)."""
        ratio, ok = _gate(_report(san=0.009), _report(san=0.004))[
            "sanitize_wall_cal"
        ]
        assert ratio < REGRESSION_LIMIT
        assert ok

    def test_speedup_drop_fails(self):
        ratio, ok = _gate(_report(speedup=4.0), _report(speedup=8.0))[
            "micro_speedup"
        ]
        assert ratio > REGRESSION_LIMIT
        assert not ok

    def test_floor_is_positive(self):
        assert RATIO_FLOOR > 0
        assert REGRESSION_LIMIT > 1.0
        for gate in load_suite("perf").gates:
            assert (gate.limit, gate.floor) == (REGRESSION_LIMIT, RATIO_FLOOR)


class TestBaselinePayload:
    def test_payload_carries_gate_inputs_only(self):
        pay = baseline_entry("perf", _report())
        assert pay["config"] == load_suite("perf").config
        assert pay["metrics"] == {
            "capture_wall_cal": pytest.approx(0.2),
            "sanitize_wall_cal": pytest.approx(0.1),
            "micro_speedup": 8.0,
        }
        assert "checks" not in pay
