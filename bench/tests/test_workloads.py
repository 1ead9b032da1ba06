"""Workloads: determinism, seeding, failure accounting, metric coverage.

Sizes are passed as constructor arguments, so these tests run the real
workload code on a few small applications in seconds.
"""

import itertools
import json
import time

import pytest

from bench import sut
from bench.run import ROOT, result_line, run_workload
from bench.workloads import (
    CUT_MODES,
    AppsCkpt,
    AppsDispatch,
    AppsRestart,
    RoundResult,
    ServeChurn,
)

APPS = {cls.__name__: cls for cls in sut.APPS}
SMALL = (APPS["Bfs"], APPS["Hotspot"])


def small(name):
    """The named workload at a test size (one round)."""
    return {
        "apps-dispatch": lambda: AppsDispatch(passes=1, rounds=1, apps=SMALL),
        "apps-ckpt": lambda: AppsCkpt(passes=4, rounds=1, apps=SMALL),
        "apps-restart": lambda: AppsRestart(passes=1, rounds=1, apps=SMALL),
        "serve-churn": lambda: ServeChurn(sessions=24, waves=2, rounds=1),
    }[name]()


def run(name, seed=0, *, trace=False):
    return run_workload(small(name), seed=seed, seconds=0, trace=trace)


@pytest.mark.parametrize("name", ["apps-dispatch", "apps-ckpt", "apps-restart", "serve-churn"])
def test_same_seed_gives_identical_virtual_metrics_and_counts(name):
    first, second = run(name), run(name)
    for out in (first, second):
        assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    for metric in ("event_ms_p50", "event_ms_tail"):
        assert first["layers"][metric] > 0
    assert first["layers"] == second["layers"]


class _Scripted:
    """A stand-in workload whose virtual outcome is scripted per round."""

    name = "scripted"
    rounds = 1

    def __init__(self, events):
        self.events = itertools.cycle(events)

    def warmup(self):
        pass

    def setup(self, seed, index):
        return index

    def measure(self, state, ledger, *, trace):
        time.sleep(0.01)
        ledger.ok()
        return RoundResult(ops=1, events_ns=[next(self.events)])


@pytest.mark.parametrize("events, deterministic", [([5.0], True), ([5.0, 6.0], False)])
def test_repeated_rounds_must_reproduce_the_fixed_rounds(events, deterministic):
    out = run_workload(_Scripted(events), seed=0, seconds=0.5, trace=False)
    assert out["detail"]["rounds"] >= 2
    assert out["detail"]["deterministic"] is deterministic
    assert out["correct"] is deterministic


def test_seeds_give_different_cut_positions():
    workload = small("apps-ckpt")
    cuts = {seed: [r.cuts for r in workload.setup(seed, 0)] for seed in (0, 1)}
    assert all(len(c) == 6 for c in cuts[0] + cuts[1])
    assert cuts[0] != cuts[1]


def test_runs_are_at_paper_scale_with_modes_round_robin():
    workload = AppsCkpt(passes=4, rounds=1, apps=SMALL)
    runs = workload.inputs(0, 0)
    assert {r.scale for r in runs} == {1.0}
    for cls in SMALL:
        assert sorted(r.mode for r in runs if r.cls is cls) == sorted(CUT_MODES)
    for p in range(4):  # the apps of one pass start on different modes
        modes = [r.mode for r in runs[p * len(SMALL):(p + 1) * len(SMALL)]]
        assert len(set(modes)) == len(SMALL)


def test_failure_is_counted_by_error_code_and_the_run_continues():
    # The cuBLAS micro-benchmark fails after a restart (its fat binary is
    # not re-registered); the Bfs run after it must still be measured.
    workload = AppsRestart(passes=1, rounds=1, apps=(APPS["CublasMicro"], APPS["Bfs"]))
    out = run_workload(workload, seed=0, seconds=0, trace=False)
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert out["detail"]["failures"] == {"INITIALIZATION_ERROR": 1}
    assert not out["correct"]
    assert out["layers"]["bench.failed_ratio"] == 0.5
    assert out["layers"]["event_ms_p50"] > 0  # Bfs's restarts


def test_every_listed_metric_is_emitted():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    out = run("apps-restart", trace=True)
    assert {m["name"] for m in spec["end_to_end"]} == set(out["e2e"])
    assert {m["name"] for m in spec["per_layer"]} <= set(out["layers"])
    for trace in (False, True):
        line = result_line(out, spec, trace=trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert out["layers"]["core.session.restart.calls"] > 0
    assert out["layers"]["virt.restart_ms"] > 0
