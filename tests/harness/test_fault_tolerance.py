"""Tests for the fault-tolerance economics module."""

import math

import pytest

from repro.apps.rodinia import Bfs, Gaussian, Kmeans
from repro.harness.fault_tolerance import (
    RUNTIME_FAULT_CLASSES,
    FaultSimulator,
    daly_interval,
    expected_completion_time,
    run_fault_campaign,
    run_guarded_app,
    run_rank_death_scenario,
    young_interval,
)


@pytest.fixture(scope="module")
def campaign():
    """One fault campaign at its committed config, shared by every
    campaign check: one fault class per ladder rung at MTBFs of 0.5 and
    0.2 of each app's fault-free runtime, a 3-rank 2PC and the two node
    failover cells (V100 → V100, V100 → K600)."""
    return run_fault_campaign(
        [Gaussian, Kmeans], scale=0.05, seed=0, gpu="V100",
        fault_classes=["xfer-corrupt", "kernel-hang", "ecc"],
        mtbf_factors=(0.5, 0.2),
    )


class TestIntervals:
    def test_young_formula(self):
        assert young_interval(1.0, 3600.0) == pytest.approx(math.sqrt(7200.0))

    def test_daly_close_to_young_for_small_cost(self):
        y = young_interval(0.5, 24 * 3600)
        d = daly_interval(0.5, 24 * 3600)
        assert abs(d - y) / y < 0.05

    def test_daly_clamps_for_huge_cost(self):
        assert daly_interval(10_000.0, 100.0) == 100.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            young_interval(0, 100)
        with pytest.raises(ValueError):
            daly_interval(1, 0)

    def test_interval_grows_with_mtbf(self):
        assert young_interval(1, 10_000) > young_interval(1, 1_000)


class TestAnalyticModel:
    def test_no_faults_limit(self):
        """With MTBF → ∞ the makespan approaches work + checkpoints."""
        t = expected_completion_time(
            work_s=1000, interval_s=100, checkpoint_cost_s=1,
            restart_cost_s=5, mtbf_s=1e12,
        )
        assert t == pytest.approx(1000 + 10 * 1, rel=1e-3)

    def test_faults_increase_makespan(self):
        kw = dict(work_s=1000, interval_s=100, checkpoint_cost_s=1,
                  restart_cost_s=5)
        assert (
            expected_completion_time(mtbf_s=500, **kw)
            > expected_completion_time(mtbf_s=50_000, **kw)
        )

    def test_youngs_interval_near_optimal(self):
        """The analytic makespan at Young's interval beats far-off ones."""
        kw = dict(work_s=10_000.0, checkpoint_cost_s=0.5,
                  restart_cost_s=2.0, mtbf_s=3_600.0)
        tau = young_interval(0.5, 3_600.0)
        at_tau = expected_completion_time(interval_s=tau, **kw)
        assert at_tau < expected_completion_time(interval_s=tau / 8, **kw)
        assert at_tau < expected_completion_time(interval_s=tau * 8, **kw)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            expected_completion_time(100, 0, 1, 1, 100)

    def test_invalid_work(self):
        with pytest.raises(ValueError):
            expected_completion_time(0, 10, 1, 1, 100)

    def test_invalid_mtbf(self):
        with pytest.raises(ValueError):
            expected_completion_time(100, 10, 1, 1, 0)

    def test_degenerate_regime_returns_infinity(self):
        """A segment far longer than the MTBF can never complete: the
        expected makespan diverges (explicitly, not via a 1e-300 fudge)."""
        t = expected_completion_time(
            work_s=1e6, interval_s=1e6, checkpoint_cost_s=1.0,
            restart_cost_s=5.0, mtbf_s=1.0,
        )
        assert math.isinf(t)


class TestSimulator:
    def test_reproducible(self):
        a = FaultSimulator(mtbf_s=100, seed=1).run_once(500, 50, 1, 5)
        b = FaultSimulator(mtbf_s=100, seed=1).run_once(500, 50, 1, 5)
        assert a == b

    def test_no_failures_when_mtbf_huge(self):
        out = FaultSimulator(mtbf_s=1e15, seed=2).run_once(500, 50, 1, 5)
        assert out.failures == 0
        assert out.makespan_s == pytest.approx(500 + 9 * 1)  # 9 ckpts

    def test_checkpointing_beats_restart_from_scratch_under_faults(self):
        """The paper's core economic argument: with realistic fault
        rates, CRAC's ~0.1 s checkpoints keep long jobs finishable."""
        sim = FaultSimulator(mtbf_s=400.0, seed=3)
        with_ckpt = sim.mean_makespan(
            work_s=2_000, interval_s=100, checkpoint_cost_s=0.5,
            restart_cost_s=2.0, runs=60,
        )
        sim2 = FaultSimulator(mtbf_s=400.0, seed=3)
        without = sim2.mean_makespan(
            work_s=2_000, interval_s=None, checkpoint_cost_s=0.0,
            restart_cost_s=2.0, runs=20,
        )
        assert with_ckpt < without / 2

    def test_simulation_tracks_analytic_model(self):
        """Monte-Carlo and the renewal formula agree within ~25%."""
        kw = dict(work_s=2_000.0, interval_s=120.0,
                  checkpoint_cost_s=1.0, restart_cost_s=4.0)
        analytic = expected_completion_time(mtbf_s=600.0, **kw)
        simulated = FaultSimulator(mtbf_s=600.0, seed=4).mean_makespan(
            runs=300, **kw
        )
        assert simulated == pytest.approx(analytic, rel=0.25)

    def test_work_lost_accounted(self):
        out = FaultSimulator(mtbf_s=80, seed=5).run_once(1000, 50, 1, 5)
        if out.failures:
            assert out.work_lost_s > 0

    def test_work_lost_bounded_by_interval_per_failure(self):
        """Each failure can lose at most one interval of mid-segment work
        plus one committed-but-unchecked segment — never more than 2τ."""
        out = FaultSimulator(mtbf_s=60, seed=6).run_once(2000, 50, 1, 5)
        assert out.failures > 0
        assert out.work_lost_s <= out.failures * 2 * 50

    def test_invalid_mtbf(self):
        with pytest.raises(ValueError):
            FaultSimulator(mtbf_s=0)


class TestSessionBackedSimulator:
    """The end-to-end mode: real CracSession + CheckpointStore + faults."""

    def test_reproducible(self):
        a = FaultSimulator(mtbf_s=40, seed=9).run_session_once(
            100.0, 10.0, ckpt_fault_prob=0.001, restore_fault_prob=0.2
        )
        b = FaultSimulator(mtbf_s=40, seed=9).run_session_once(
            100.0, 10.0, ckpt_fault_prob=0.001, restore_fault_prob=0.2
        )
        assert a == b

    def test_completes_all_work(self):
        out = FaultSimulator(mtbf_s=30, seed=10).run_session_once(80.0, 10.0)
        assert out.makespan_s >= 80.0
        assert out.checkpoints > 0

    def test_faults_roll_back_to_committed_generations(self):
        out = FaultSimulator(mtbf_s=15, seed=11).run_session_once(
            120.0, 10.0, restore_fault_prob=0.3
        )
        assert out.failures > 0
        assert out.restart_attempts >= out.failures
        assert len(out.generations_restored) == out.failures
        assert out.work_lost_s > 0

    def test_checkpoint_stage_faults_are_absorbed(self):
        """Torn writes abort the cut but never kill the job."""
        out = FaultSimulator(mtbf_s=200, seed=12).run_session_once(
            150.0, 10.0, ckpt_fault_prob=0.05
        )
        assert out.aborted_checkpoints > 0
        assert out.makespan_s >= 150.0  # all work still completed

    def test_cross_validation_tracks_analytic_model(self):
        """§1(a)/(b): the end-to-end pipeline (with checkpoint-stage
        faults enabled) agrees with Young/Daly within ~35%."""
        sim = FaultSimulator(mtbf_s=25.0, seed=13)
        cv = sim.cross_validate_session(
            150.0, 10.0, runs=3,
            ckpt_fault_prob=0.002, restore_fault_prob=0.1,
        )
        assert cv.checkpoint_cost_s > 0
        assert cv.restart_cost_s > 0
        assert cv.simulated_s == pytest.approx(cv.analytic_s, rel=0.35)
        assert cv.ratio == pytest.approx(cv.simulated_s / cv.analytic_s)

    def test_cross_validation_defaults_to_young_interval(self):
        sim = FaultSimulator(mtbf_s=50.0, seed=14)
        cv = sim.cross_validate_session(40.0, runs=1)
        assert cv.interval_s == pytest.approx(
            young_interval(cv.checkpoint_cost_s, 50.0)
        )


class TestFaultCampaign:
    def test_guarded_baseline_is_clean_and_deterministic(self):
        a = run_guarded_app(Kmeans, scale=0.05, specs=[])
        b = run_guarded_app(Kmeans, scale=0.05, specs=[])
        assert a.aborted is None and a.faults_fired == 0
        assert a.digest == b.digest
        assert a.runtime_s == pytest.approx(b.runtime_s)
        assert a.checkpoints >= 1  # the anchor generation at least
        assert a.stage_visits["ecc"] > 0  # sites were actually guarded
        assert a.rung_counts == {
            "retry": 0, "stream-reset": 0, "restore": 0, "failover": 0,
        }

    def test_campaign_exercises_all_three_rungs_bit_correctly(self, campaign):
        totals = campaign["totals"]
        for rung in ("retry", "stream-reset", "restore"):
            assert totals["rung_counts"][rung] > 0, f"{rung} never fired"
        assert totals["faults_fired"] > 0
        # Every recovered cell ended bit-identical to its fault-free run.
        assert totals["bit_correct"] + totals["aborted"] == totals["cells"]
        for app in campaign["apps"].values():
            for cell in app["cells"]:
                if cell["aborted"] is None:
                    assert cell["digest"] == app["baseline"]["digest"]

    def test_rank_death_in_2pc_leaves_no_half_commit(self, campaign):
        rank_death = campaign["rank_death_2pc"]
        assert rank_death["rank_death_raised"]
        assert rank_death["no_half_commit"]

    def test_rank_death_in_2pc_restores_the_prior_state(self, campaign):
        assert campaign["rank_death_2pc"]["prior_state_restored"]

    @pytest.mark.parametrize("gpu_dst", ["V100", "K600"])
    def test_node_failover_is_bit_correct(self, campaign, gpu_dst):
        (cell,) = [
            c for c in campaign["node_failover"] if c["gpu_dst"] == gpu_dst
        ]
        assert "skipped" not in cell, cell["skipped"]
        assert cell["rung_counts"]["failover"] > 0
        assert cell["bit_correct"], cell["declared_dead"]

    def test_classes_without_sites_are_reported_skipped(self):
        # No Rodinia app touches managed memory, so the uvm-storm stage
        # is never visited — the campaign must say so, not drop it.
        report = run_fault_campaign(
            [Bfs], scale=0.02, fault_classes=["uvm-storm"],
            mtbf_factors=(0.5,),
        )
        app = report["apps"]["BFS"]
        assert app["cells"] == []
        assert app["skipped"][0]["fault_class"] == "uvm-storm"

    def test_rank_death_scenario_recovers_prior_generation(self):
        out = run_rank_death_scenario(n_ranks=3, seed=1)
        assert out["rank_death_raised"]
        assert out["dead_ranks"] == [1]
        assert out["no_half_commit"]
        assert out["prior_state_restored"]
        assert out["recovered_generation"] is not None

    def test_fault_class_rung_map_matches_taxonomy(self):
        from repro.cuda.errors import CudaErrorCode, ErrorSeverity, classify

        entry = {
            "xfer-corrupt": CudaErrorCode.TRANSFER_CRC_MISMATCH,
            "uvm-storm": CudaErrorCode.UVM_FAULT_STORM,
            "kernel-hang": CudaErrorCode.LAUNCH_TIMEOUT,
            "copy-stall": CudaErrorCode.STREAM_STALLED,
            "ecc": CudaErrorCode.ECC_UNCORRECTABLE,
        }
        rung_for = {
            ErrorSeverity.RETRYABLE: "retry",
            ErrorSeverity.STICKY: "stream-reset",
            ErrorSeverity.FATAL: "restore",
        }
        for fault_class, expected_rung in RUNTIME_FAULT_CLASSES.items():
            assert rung_for[classify(entry[fault_class])] == expected_rung
