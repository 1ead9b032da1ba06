"""A bulk charge is exactly ``n`` per-call charges.

Virtual time is a whole number of ns, so a run of allocations, a
launch's three calls and a traced run each cost what that many calls
made one by one cost, to the ns: ``==``, not ``approx``. A checkpoint
armed to fire inside a run or a launch adds exactly its own
``checkpoint_time_ns`` and moves no other charge.
"""

import dataclasses

import pytest

from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.cuda.interface import NativeBackend
from repro.gpu.timing import GPU_SPECS, HostCosts, WatchdogLimits
from repro.trace import Tracer

FB = FatBinary("charge.fatbin", ("k",))
N = 37


def _backend(kind, fsgsbase, traced):
    if kind == "crac":
        backend = CracSession(seed=9, fsgsbase=fsgsbase).backend
    else:
        backend = NativeBackend(SplitProcess(seed=9, fsgsbase=fsgsbase).runtime)
    if traced:
        Tracer().attach(backend)
    backend.register_app_binary(FB)
    return backend


def _charged(backend, call, *args):
    """``call(*args)``'s result and the virtual ns it charged."""
    t0 = backend.process.clock_ns
    result = call(*args)
    return result, backend.process.clock_ns - t0


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("fsgsbase", [False, True])
@pytest.mark.parametrize("kind", ["native", "crac"])
def test_bulk_charge_is_n_per_call_charges(kind, fsgsbase, traced):
    backend = _backend(kind, fsgsbase, traced)
    one, malloc_ns = _charged(backend, backend.malloc, 256)
    run, run_ns = _charged(backend, backend.malloc_run, 256, N)
    assert len(run) == N
    assert run_ns == N * malloc_ns
    _, free_ns = _charged(backend, backend.free, one)
    _, free_run_ns = _charged(backend, backend.free_run, run)
    assert free_run_ns == N * free_ns
    _, call_ns = _charged(backend, backend.get_device)
    _, launch_ns = _charged(backend, backend.launch, "k")
    assert launch_ns == 3 * call_ns
    assert isinstance(run_ns + free_run_ns + launch_ns, int)


def _cut_inside(scenario, fire_at):
    """``scenario(backend)`` on twin CRAC sessions, one with a checkpoint
    armed to fire at call ``fire_at`` of it; both clocks and the cut."""
    clocks, cuts = [], []
    for armed in (False, True):
        session = CracSession(seed=9)
        backend = session.backend
        backend.register_app_binary(FB)
        backend.free(backend.malloc(256))  # warm
        if armed:
            session.coordinator.schedule_checkpoint_at_call(fire_at)
        scenario(backend)
        clocks.append(session.process.clock_ns)
        cuts.extend(session.coordinator.images)
    return clocks, cuts


@pytest.mark.parametrize("fire_at", [1, 2, N - 1, N])
def test_run_cut_by_an_armed_checkpoint_pays_only_the_cut(fire_at):
    def scenario(backend):
        backend.free_run(backend.malloc_run(256, N))

    (plain, cut_clock), cuts = _cut_inside(scenario, fire_at)
    assert len(cuts) == 1
    assert cut_clock == plain + cuts[0].checkpoint_time_ns


@pytest.mark.parametrize("fire_at", [1, 2, 3])
def test_launch_cut_by_an_armed_checkpoint_pays_only_the_cut(fire_at):
    (plain, cut_clock), cuts = _cut_inside(lambda b: b.launch("k"), fire_at)
    assert len(cuts) == 1
    assert cut_clock == plain + cuts[0].checkpoint_time_ns


@pytest.mark.parametrize("build", [
    lambda: HostCosts(native_dispatch_ns=1400.5),
    lambda: dataclasses.replace(GPU_SPECS["V100"], kernel_launch_ns=3000.5),
    lambda: WatchdogLimits(detection_wait_ns=2e6),
], ids=["HostCosts", "GpuSpec", "WatchdogLimits"])
def test_fractional_ns_is_rejected_when_built(build):
    with pytest.raises(ValueError, match="must be whole ns"):
        build()
