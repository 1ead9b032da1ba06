"""Tests for the app framework: context, TimedLoop fast-forwarding."""

from collections import Counter

import pytest

from repro.apps.base import AppContext, CudaApp, TimedLoop, digest_arrays
from repro.core.halves import SplitProcess
from repro.cuda.interface import NativeBackend

import numpy as np


def make_ctx(**kw):
    split = SplitProcess(seed=21)
    backend = NativeBackend(split.runtime)
    return AppContext(backend=backend, upper_mmap=split.upper_mmap, **kw), split


class TestTimedLoop:
    def test_small_loop_runs_fully_real(self):
        ctx, _ = make_ctx()
        ran = []
        loop = TimedLoop(ctx, total=3, measure=10)
        for i in loop:
            ran.append(i)
        assert ran == [0, 1, 2]
        assert loop.executed == 3

    def test_fast_forward_advances_clock(self):
        ctx, _ = make_ctx()
        proc = ctx.backend.process

        loop = TimedLoop(ctx, total=1000, measure=4)
        for i in loop:
            proc.advance(1_000_000)  # 1 ms of "work" per iteration
        # 4 real + 996 extrapolated at ~1 ms each (+ sync costs).
        assert proc.clock_ns >= 990 * 1_000_000
        assert loop.executed == 4

    def test_fast_forward_extrapolates_calls(self):
        ctx, _ = make_ctx()
        b = ctx.backend
        from repro.cuda.api import FatBinary

        b.register_app_binary(FatBinary("t.fatbin", ("k",)))
        loop = TimedLoop(ctx, total=100, measure=4)
        for i in loop:
            b.launch("k")
        # ~3 calls per launch + 1 sync per measured iteration, ×100.
        assert b.call_counter["cudaLaunchKernel"] == 100

    def test_checkpoint_hook_fires_during_measured_and_at_end(self):
        fired = []
        ctx, _ = make_ctx(checkpoint_cb=lambda p: fired.append(p))
        for i in TimedLoop(ctx, total=50, measure=2):
            pass
        assert fired[0] == pytest.approx(1 / 50)
        assert fired[-1] == 1.0

    def test_no_fast_forward_when_total_equals_measure(self):
        ctx, _ = make_ctx()
        proc = ctx.backend.process
        before_calls = ctx.backend.total_calls
        for i in TimedLoop(ctx, total=2, measure=2):
            pass
        # only the 2 per-iteration syncs counted
        assert ctx.backend.total_calls - before_calls == 2


class TestCudaApp:
    def test_scale_validation(self):
        class A(CudaApp):
            pass

        with pytest.raises(ValueError):
            A(scale=0.0)
        with pytest.raises(ValueError):
            A(scale=1.5)

    def test_iterations_scaling(self):
        class A(CudaApp):
            pass

        assert A(scale=1.0).iterations(100) == 100
        assert A(scale=0.1).iterations(100) == 10
        assert A(scale=0.001).iterations(100) == 1  # floor

    def test_kernel_budget_fills_target(self):
        class A(CudaApp):
            target_runtime_s = 10.0

        a = A(scale=1.0)
        per_kernel = a.kernel_budget_ns(1000, fraction=0.9)
        assert per_kernel * 1000 == pytest.approx(9.0e9)

    def test_digest_arrays_order_sensitivity(self):
        a = np.arange(10)
        b = np.arange(10)[::-1].copy()
        assert digest_arrays(a) != digest_arrays(b)
        assert digest_arrays(a, b) == digest_arrays(a, b)


class TestTimedLoopAcrossRestart:
    """A mid-run restart swaps ``backend.process``: the iterations and
    fast-forward chunks after it must advance the restarted process,
    not the dead one."""

    @pytest.mark.parametrize("app_name", ["gaussian", "kmeans", "lulesh"])
    def test_restarted_run_is_no_shorter_than_uninterrupted(self, app_name):
        from repro.apps import Lulesh
        from repro.apps.rodinia import Gaussian, Kmeans
        from repro.harness.runner import run_app

        app_cls = {"gaussian": Gaussian, "kmeans": Kmeans, "lulesh": Lulesh}
        make = app_cls[app_name]
        plain = run_app(make(scale=0.25), mode="crac", noise=False)
        restarted = run_app(
            make(scale=0.25), mode="crac", noise=False, checkpoint_at=0.5
        )
        (ckpt,) = restarted.checkpoints
        assert ckpt.restart_s > 0
        assert restarted.digest == plain.digest
        assert restarted.runtime_exact_s >= (
            plain.runtime_exact_s + ckpt.restart_s
        )
