"""The sanitizer's three verdicts on real and planted workloads.

- Every planted positive is detected and every negative control stays
  silent (one test per scenario, so a failure names it).
- The 14 Rodinia apps at scale 0.05, run under CRAC with a mid-run cut
  and the sanitizer attached, raise no hazard (the detector's
  real-workload false-positive rate).
- Instrumenting Gaussian at the ``ckpt`` suite's scale and cuts costs at
  most :data:`OVERHEAD_LIMIT`× virtual time and leaves the digest
  unchanged (instrumentation shifts timing only).
"""

import pytest

from repro.apps.rodinia import RODINIA_SUITE, Gaussian
from repro.harness import Machine, run_app
from repro.sanitizer.core import Sanitizer
from repro.sanitizer.planted import SCENARIOS, run_scenario

#: maximum allowed virtual-time slowdown from instrumentation
OVERHEAD_LIMIT = 1.25


def by_name(scenario):
    return scenario.name


class TestPlanted:
    @pytest.mark.parametrize(
        "scenario", [s for s in SCENARIOS if not s.negative], ids=by_name
    )
    def test_positive_detected(self, scenario):
        row = run_scenario(scenario)
        assert row["missing"] == [], f"found only {row['found']}"

    @pytest.mark.parametrize(
        "scenario", [s for s in SCENARIOS if s.negative], ids=by_name
    )
    def test_negative_control_is_silent(self, scenario):
        row = run_scenario(scenario)
        assert row["hazards"] == 0, f"false positives {row['found']}"

    def test_each_checker_has_three_positives(self):
        """ISSUE floor: >= 3 planted positives per checker."""
        per = {}
        for sc in SCENARIOS:
            for checker, _ in sc.expect:
                per[checker] = per.get(checker, 0) + 1
        for checker in ("racecheck", "synccheck", "memcheck", "initcheck"):
            assert per.get(checker, 0) >= 3, checker

    def test_scenario_rows_name_what_was_found(self):
        sc = next(s for s in SCENARIOS if s.name == "mem-double-free")
        row = run_scenario(sc)
        assert row["detected"]
        assert ["memcheck", "double-free"] in [
            list(f) for f in row["found"]
        ] or ("memcheck", "double-free") in row["found"]
        assert row["missing"] == []


class TestCleanApps:
    @pytest.mark.parametrize("cls", RODINIA_SUITE, ids=lambda c: c.name)
    def test_app_under_a_cut_is_clean(self, cls):
        """``restart_after_checkpoint`` stays off: restart replay
        re-creates allocations outside the app's own call sequence,
        which is a different (heavier) instrumentation story than
        hazard detection on the app itself."""
        san = Sanitizer()
        run_app(
            cls(scale=0.05, seed=0),
            Machine(gpu="V100", seed=0),
            mode="crac",
            checkpoint_at=0.5,
            restart_after_checkpoint=False,
            noise=False,
            sanitizer=san,
        )
        assert san.report.ops_instrumented > 0
        assert san.hazards == [], [h.describe() for h in san.hazards[:10]]


def test_overhead_is_bounded_and_the_digest_unchanged():
    kw = dict(
        mode="crac", checkpoint_at=[i / 5 for i in range(1, 5)],
        restart_after_checkpoint=False, noise=False,
    )
    base = run_app(Gaussian(scale=0.25, seed=0),
                   Machine(gpu="V100", seed=0), **kw)
    san = Sanitizer()
    inst = run_app(Gaussian(scale=0.25, seed=0),
                   Machine(gpu="V100", seed=0), sanitizer=san, **kw)
    assert san.report.ops_instrumented > 0
    assert inst.runtime_exact_s <= OVERHEAD_LIMIT * base.runtime_exact_s
    assert inst.digest == base.digest
