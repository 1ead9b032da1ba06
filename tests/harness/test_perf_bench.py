"""perf suite: exact per-layer call counts, planted regressions, gate.

The full suite runs in CI (``repro bench perf``); these tests run it at
a small config: the counts reproduce in a fresh interpreter, the two
host-cost regressions the suite exists for fail the layer that caused
them, and the baseline gate is exact. Counts see no loop that makes no
Python call, so the vectorized structures also replay long seeded
traces exactly like their reference models.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro.core.replay_log import LogEntry, ReplayLog
from repro.core import trampoline
from repro.core.trampoline import CracBackend
from repro.gpu.intervals import SpanSet
from repro.gpu import memory
from repro.gpu.memory import ArenaAllocator, PagedContents
from repro.harness.perf_bench import (
    LAYERS,
    PYTHON,
    SCENARIOS,
    count_calls,
    run_perf_bench,
)
from repro.harness.suites import baseline_checks, baseline_entry, load_suite
from repro.sanitizer.core import _Access, _AccessIndex
from repro.sanitizer.vector_clock import VectorClock
from tests.gpu.test_dirty_vector_equivalence import (
    brute_force_races,
    replay,
    runs,
)

REPO = Path(__file__).resolve().parents[2]
SMALL = {
    "capture_apps": ["Gaussian"],
    "sanitize_apps": ["Gaussian"],
    "scale": 0.1,
    "cuts": 2,
    "gpu": "V100",
    "seed": 0,
    "python": PYTHON,
}
#: SMALL with HPGMG-FV, whose log holds runs of equal mallocs (Gaussian's
#: four mallocs all differ in size)
RUNS = {**SMALL, "capture_apps": ["HPGMG-FV"], "scale": 0.02}


class TestTraces:
    """Long seeded traces in the capture path's call mix: small
    scattered writes fragment the span list, queries and clears are
    rare. Every answer must equal the reference model's."""

    SIZE = 1 << 12

    def _span(self, rng, longest):
        lo = int(rng.integers(0, self.SIZE - 1))
        return lo, int(min(self.SIZE, lo + rng.integers(1, longest)))

    def test_dirty_replay_equal(self):
        rng = np.random.default_rng(1)
        ops = []
        for _ in range(300):
            r = rng.random()
            if r < 0.94:
                ops.append(("mark", self._span(rng, 2048)))
            elif r < 0.98:
                ops.append(("query", None))
            else:
                ops.append(("clear", [self._span(rng, 2048)]))
        index, model = replay(ops)
        assert index.intervals() == runs(model, model.get)
        assert index.byte_count == len(model)

    def test_written_replay_equal(self):
        rng = np.random.default_rng(2)
        written, covered = SpanSet(), set()
        for _ in range(300):
            lo, hi = self._span(rng, 512)
            if rng.random() < 0.97:
                written.add(lo, hi)
                covered.update(range(lo, hi))
            else:
                missing = [o for o in range(lo, hi) if o not in covered]
                assert written.holes(lo, hi) == [
                    (a, b) for a, b, _ in runs(missing)
                ]
        assert written.spans() == [(a, b) for a, b, _ in runs(covered)]
        assert written.byte_count == len(covered)

    def test_access_scan_equal(self):
        rng = np.random.default_rng(4)
        streams = [VectorClock() for _ in range(12)]

        def step():
            sid = int(rng.integers(0, len(streams)))
            if rng.random() < 0.05:
                streams[sid].join(streams[int(rng.integers(0, 12))])
            streams[sid].tick(sid)
            lo, hi = self._span(rng, self.SIZE // 8)
            return lo, hi, bool(rng.random() < 0.5), sid, streams[sid].copy()

        index, accesses = _AccessIndex(), []
        for i in range(60):
            a = _Access(*step(), i, f"op{i}")
            accesses.append(a)
            index.add(a)
        raced = 0
        for _ in range(40):
            lo, hi, write, sid, vc = step()
            rows = index.race_rows(lo, hi, sid, write, vc)
            assert rows == brute_force_races(accesses, lo, hi, write, sid, vc)
            raced += bool(rows)
        assert raced  # the trace exercises the concurrent path


@pytest.fixture(scope="module")
def small_report():
    return {**run_perf_bench(**SMALL), "config": SMALL}


@pytest.fixture(scope="module")
def runs_report():
    return {**run_perf_bench(**RUNS), "config": RUNS}


def _failing(report, recorded):
    """Names of the failing checks of ``report`` gated against
    ``recorded`` as the perf entry."""
    baseline = {
        "version": 1, "suites": {"perf": baseline_entry("perf", recorded)},
    }
    checks = report["checks"] + baseline_checks("perf", report, baseline)
    return [c["name"] for c in checks if not c["ok"]]


class TestCounts:
    def test_small_run_passes_its_checks(self, small_report):
        assert [(c["name"], c["ok"]) for c in small_report["checks"]] == [
            (f"interpreter is Python {PYTHON}", True),
            ("capture digests equal the uncheckpointed run", True),
            ("restart digests equal the uncheckpointed run", True),
            ("sanitized runs hazard-free", True),
        ]
        for scenario in SCENARIOS:
            for layer in ("linux", "core", "cuda", "gpu", "dmtcp"):
                assert small_report["metrics"][f"calls.{scenario}.{layer}"] > 0

    def test_counts_equal_in_a_fresh_interpreter(self, small_report):
        seed = "0" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        code = (
            "import json, sys\n"
            "from repro.harness.perf_bench import run_perf_bench\n"
            "print(json.dumps(run_perf_bench(**json.loads(sys.argv[1]))"
            "['metrics']))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, json.dumps(SMALL)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src"),
                 "PYTHONHASHSEED": seed},
        ).stdout
        assert json.loads(out) == small_report["metrics"]

    def test_generated_methods_count_toward_their_callers_layer(self):
        log = ReplayLog()
        _, counts = count_calls(lambda: log.record("malloc", 64, 0x1000))
        assert counts == {"core": 2}  # record + LogEntry.__new__
        entry, counts = count_calls(lambda: LogEntry("malloc", 64, 0x1000))
        assert counts == {} and entry.addr == 0x1000

    def test_restores_the_previous_profile_function(self):
        def outer(frame, event, arg):
            pass

        sys.setprofile(outer)
        try:
            _, counts = count_calls(lambda: PagedContents(64))
            restored = sys.getprofile()
        finally:
            sys.setprofile(None)
        assert restored is outer
        assert counts == {"gpu": 2}  # PagedContents + its dirty index

    def test_mismatched_interpreter_fails_its_named_check(self):
        report = {
            **run_perf_bench(**{**SMALL, "python": "2.7"}),
            "config": {**SMALL, "python": "2.7"},
        }
        assert report["checks"] == [{
            "name": "interpreter is Python 2.7", "ok": False,
            "detail": f"running {PYTHON}; the recorded counts are for 2.7",
        }]
        assert report["metrics"] == {}
        assert _failing(report, report | {"metrics": dict.fromkeys(
            load_suite("perf").exact, 0)}) == [
            "interpreter is Python 2.7", "gated metrics measured",
        ]


def _step_by_step_dispatch(
    self, name, *, payload_bytes=0, ship_in=(), ship_out=()
):
    """The trampoline crossing as three process calls: fs switch into
    the lower half, advance, fs switch back (virtual time unchanged)."""
    if self._prepaid_depth:
        return
    self.call_counter[name] += 1
    proc = self.process
    thread = (
        self.current_thread if self.current_thread is not None
        else proc.threads[0]
    )
    proc.set_fs_register(thread, self._lower_fs)
    proc.advance(self.costs.trampoline_body_ns + self.costs.native_dispatch_ns)
    proc.set_fs_register(thread, self._upper_fs)
    coordinator = self.coordinator
    if coordinator is not None and coordinator.trigger_at_call is not None:
        coordinator.notify_call()


def _carve_one_at_a_time(self, nbytes, count, expected=None):
    """``ArenaAllocator.alloc_run`` as one ``alloc`` call per malloc of
    the run (the same addresses, and the same stop at divergence)."""
    out = []
    for want in expected or [None] * count:
        out.append(self.alloc(nbytes))
        if want is not None and out[-1] != want:
            break
    return out


def _filed_under(module, fn):
    """``fn`` with its code filed under ``module``'s source file, so the
    perf counts attribute its frames to that module's layer."""
    code = fn.__code__.replace(co_filename=module.__file__)
    moved = types.FunctionType(code, fn.__globals__, fn.__name__)
    moved.__defaults__ = fn.__defaults__
    moved.__kwdefaults__ = fn.__kwdefaults__
    return moved


class TestPlantedRegressions:
    """The host-cost regressions the suite exists for each fail the gate
    on the layer that caused them."""

    def test_replay_carving_one_malloc_at_a_time_fails_on_gpu(
        self, runs_report, monkeypatch
    ):
        # Filed under the allocator, as the run carve it replaces is: the
        # extra frames are arena calls, so only gpu may move. Restart
        # replays a log, and HPGMG-FV's box allocations are one malloc
        # run, so every scenario that runs HPGMG-FV moves; sanitize
        # (Gaussian alone) does not.
        monkeypatch.setattr(ArenaAllocator, "alloc_run", _filed_under(
            memory, _carve_one_at_a_time
        ))
        failing = _failing(run_perf_bench(**RUNS) | {"config": RUNS},
                           runs_report)
        assert "HPGMG-FV" not in RUNS["sanitize_apps"]
        assert failing == [
            "calls.capture.gpu vs baseline", "calls.restart.gpu vs baseline",
        ]

    def test_step_by_step_trampoline_fails_on_linux(
        self, small_report, monkeypatch
    ):
        # Filed under the trampoline, as the lean crossing it replaces is:
        # the extra frames are SimProcess calls, so only linux may move.
        monkeypatch.setattr(CracBackend, "_dispatch", _filed_under(
            trampoline, _step_by_step_dispatch
        ))
        failing = _failing(run_perf_bench(**SMALL) | {"config": SMALL},
                           small_report)
        assert failing == [
            f"calls.{scenario}.linux vs baseline" for scenario in SCENARIOS
        ]


class TestGate:
    def test_no_baseline_fails(self, small_report):
        checks = baseline_checks("perf", small_report, {"version": 1})
        assert [(c["name"], c["ok"]) for c in checks] == [
            ("baseline entry", False)
        ]

    def test_identical_run_passes(self, small_report):
        assert _failing(small_report, small_report) == []

    def test_one_call_move_fails(self, small_report):
        for delta in (1, -1):
            moved = json.loads(json.dumps(small_report))
            moved["metrics"]["calls.capture.gpu"] += delta
            assert _failing(moved, small_report) == [
                "calls.capture.gpu vs baseline"
            ]

    def test_every_gate_is_an_exact_layer_count(self):
        assert list(load_suite("perf").exact) == [
            f"calls.{s}.{layer}" for s in SCENARIOS for layer in LAYERS
        ]
        assert {"linux", "core", "cuda", "gpu", "dmtcp", "spec",
                "sanitizer", "apps"} <= set(LAYERS)


class TestBaselinePayload:
    def test_payload_carries_gate_inputs_only(self, small_report):
        pay = baseline_entry("perf", small_report)
        assert pay["config"] == SMALL
        assert set(pay["metrics"]) == set(load_suite("perf").exact)
        assert "calls.capture" in small_report["metrics"]
        assert "calls.capture" not in pay["metrics"]
        assert "checks" not in pay
