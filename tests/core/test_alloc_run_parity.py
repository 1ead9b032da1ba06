"""Exact parity of the run API with the per-call loop it replaces.

``malloc_run(nbytes, n)`` and ``free_run(addrs)`` make a run of equal
cudaMalloc-family calls in one crossing. ``malloc_free_run(nbytes, n)``
makes the state of ``n`` malloc/free churn pairs whose count and cost a
fast-forward already extrapolated: its reference makes the pairs through
the runtime's ``cudaMalloc``/``cudaFree`` and appends the log records the
backend keeps, and counts and charges nothing. Every scenario here runs
on two twin sessions, once through the run API and once through one
``malloc`` or ``free`` per call (or that reference), and every
observable of :func:`tests.core.test_alloc_path_parity._state` must be
equal: the clock's exact ``repr``, the syscall and fs-switch counters,
the dispatch and library call counts, the replay log, the buffers and
the arenas. So must the errors raised, the images an armed checkpoint
took, the trace spans and the sanitizer's arena hooks.
"""

import dataclasses

import pytest

from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.core.trampoline import CracBackend
from repro.cuda.interface import CudaDispatchBase, NativeBackend
from repro.dmtcp.store import CheckpointStore
from repro.errors import CudaError
from repro.gpu.memory import _FreeBlock
from repro.gpu.timing import DEFAULT_HOST_COSTS
from repro.proxy.crum import CrumBackend
from repro.proxy.proxy_runtime import NaiveProxyBackend
from repro.sanitizer import Sanitizer
from repro.trace import Tracer
from tests.core.test_alloc_path_parity import _arenas, _state


class PerCall:
    """The run API's calls made one by one, and churn's state alone."""

    @staticmethod
    def malloc_run(b, nbytes, n):
        return [b.malloc(nbytes) for _ in range(n)]

    @staticmethod
    def free_run(b, addrs):
        for addr in addrs:
            b.free(addr)

    @staticmethod
    def malloc_free_run(b, nbytes, n):
        """Each pair through the runtime's entry points, plus the log
        records (and the virtual pointer) the backend keeps for it."""
        rt = b.runtime
        for _ in range(n):
            device = rt.current_device
            addr = rt.cudaMalloc(nbytes)
            rt.cudaFree(addr)
            if isinstance(b, CracBackend):
                b.log.record("malloc", nbytes, addr, device)
                b.log.record("free", 0, addr)
                if b.virtualize_addresses:
                    b._virt_cursor += (nbytes + 0xFFF) & ~0xFFF
            elif isinstance(b, CrumBackend):
                b.resource_log.record("malloc", nbytes, addr)
                b.resource_log.record("free", 0, addr)


class Run:
    """The run API itself."""

    @staticmethod
    def malloc_run(b, nbytes, n):
        return b.malloc_run(nbytes, n)

    @staticmethod
    def free_run(b, addrs):
        b.free_run(addrs)

    @staticmethod
    def malloc_free_run(b, nbytes, n):
        b.malloc_free_run(nbytes, n)


def _code(call, *args):
    """Make ``call(*args)``; the name of the CudaError it raised, if any."""
    try:
        call(*args)
    except CudaError as e:
        return e.code.name
    return None


def _image(img):
    """Every field of a checkpoint image but its process id (each
    session's process gets a new one)."""
    return {
        f.name: repr(getattr(img, f.name))
        for f in dataclasses.fields(img) if f.name != "pid"
    }


def _plain(value):
    """``value`` with every ``range`` in it (a run's addresses, as the
    run API returns them) listed, so it compares with the per-call
    loop's lists."""
    if type(value) is range:
        return list(value)
    if type(value) in (list, tuple):
        return type(value)(map(_plain, value))
    return value


def _observe(session, **extra):
    """Every observable of a CRAC session, its images included."""
    return {
        "state": _state(session),
        "images": [_image(img) for img in session.coordinator.images],
        **{name: _plain(value) for name, value in extra.items()},
    }


def _twins(scenario, **session_kw):
    """``scenario(session, api)`` on twin sessions; both observables."""
    out = []
    for api in (Run, PerCall):
        session = CracSession(seed=5, **session_kw)
        out.append(_observe(session, result=scenario(session, api)))
    return out


def _mixed(session, api):
    """Runs that reuse holes, span free blocks and build some contents."""
    b = session.backend
    d0 = b.malloc(1000)
    a = api.malloc_run(b, 256, 40)
    b.free(d0)
    big = api.malloc_run(b, 4096, 10)
    api.free_run(b, a[::2])
    again = api.malloc_run(b, 256, 30)  # fills the holes, then the tail
    b.memset(again[3], 7, 256)
    api.free_run(b, [*a[1::2], *big][::-1])  # each free meets its right
    return a, big, again


#: odd costs that differ from the defaults: a run charged with a wrong
#: count or a wrong per-call cost cannot land on the per-call clock
ODD = dataclasses.replace(
    DEFAULT_HOST_COSTS, native_dispatch_ns=1401, trampoline_body_ns=47,
    log_record_ns=251,
)


@pytest.mark.parametrize("costs", [DEFAULT_HOST_COSTS, ODD],
                         ids=["default", "odd"])
@pytest.mark.parametrize("fsgsbase", [False, True])
def test_runs_match_per_call(fsgsbase, costs):
    run, per_call = _twins(_mixed, fsgsbase=fsgsbase, costs=costs)
    assert run == per_call
    assert run["state"]["call_counter"] == [
        ("cudaFree", 51), ("cudaMalloc", 81), ("cudaMemset", 1),
    ]


#: call indexes, counted from arming, of the first, a middle and the
#: last call of each run: three calls come first, the runs have 20
ARMED = {"first": 4, "middle": 13, "last": 23}


@pytest.mark.parametrize("where", sorted(ARMED))
@pytest.mark.parametrize("op", ["malloc_run", "free_run"])
def test_armed_checkpoint_fires_at_the_same_call(op, where):
    def scenario(session, api):
        b = session.backend
        keep = api.malloc_run(b, 512, 20)
        b.malloc(64)
        session.coordinator.schedule_checkpoint_at_call(ARMED[where])
        b.malloc(128)
        b.free(b.malloc(2048))
        if op == "malloc_run":
            return api.malloc_run(b, 512, 20)
        return api.free_run(b, keep)

    run, per_call = _twins(scenario)
    assert len(run["images"]) == 1
    assert run == per_call


def test_traced_spans_match_per_call():
    spans = []
    for api in (Run, PerCall):
        session = CracSession(seed=5, costs=ODD)
        tracer = session.enable_trace()
        _mixed(session, api)
        spans.append(([(s.name, s.start_ns, s.end_ns, s.args)
                       for s in tracer.spans], _state(session),
                      repr(tracer.overhead_ns)))
    assert spans[0] == spans[1]
    assert len(spans[0][0]) == 134


def test_virtualized_addresses_match_per_call():
    def scenario(session, api):
        b = session.backend
        out = _mixed(session, api)
        return out, sorted(b._v2r.items()), b._virt_cursor

    run, per_call = _twins(scenario, address_virtualization=True)
    assert run == per_call
    assert run["result"][1]  # live translations remain


def test_out_of_memory_inside_a_run():
    def scenario(session, api):
        b = session.backend
        b.malloc(1000)
        return _code(api.malloc_run, b, 1 << 30, 64)

    run, per_call = _twins(scenario)
    assert run["result"] == "MEMORY_ALLOCATION"
    assert run == per_call


@pytest.mark.parametrize("bad", ["unknown", "double-freed", "managed", "pinned"])
def test_irregular_pointer_inside_a_free_run(bad):
    def scenario(session, api):
        b = session.backend
        addrs = api.malloc_run(b, 256, 12)
        gone = b.malloc(256)
        b.free(gone)
        odd = {
            "unknown": 0xDEAD_BEEF,
            "double-freed": gone,
            "managed": b.malloc_managed(8192),
            "pinned": b.malloc_host(512),
        }[bad]
        return _code(api.free_run, b, [*addrs[:5], odd, *addrs[5:]])

    run, per_call = _twins(scenario)
    assert run["result"] == (
        None if bad == "managed" else "INVALID_DEVICE_POINTER"
    )
    assert run == per_call


def test_runs_on_a_second_device():
    def scenario(session, api):
        b = session.backend
        zero = api.malloc_run(b, 256, 6)
        b.set_device(1)
        one = api.malloc_run(b, 768, 8)
        both = [a for pair in zip(zero, one) for a in pair]
        api.free_run(b, both)
        return zero, one

    run, per_call = _twins(scenario, n_gpus=2)
    assert {e[3] for e in run["state"]["log"]} == {0, 1}
    assert run == per_call


class HookLog(Sanitizer):
    """A sanitizer that records its arena hooks in order."""

    def __init__(self):
        super().__init__()
        self.hooks = []

    def on_arena_alloc(self, arena, addr, size):
        self.hooks.append(("alloc", addr, size))
        super().on_arena_alloc(arena, addr, size)

    def on_arena_free(self, arena, addr, size):
        self.hooks.append(("free", addr, size))
        super().on_arena_free(arena, addr, size)

    def on_invalid_free(self, arena, addr):
        self.hooks.append(("invalid", addr))
        super().on_invalid_free(arena, addr)


def test_sanitizer_sees_the_same_arena_hooks():
    def scenario(session, api):
        sanitizer = session.enable_sanitizer(HookLog())
        a, _, _ = _mixed(session, api)
        error = _code(api.free_run, session.backend, a[-3:])  # double frees
        return error, sanitizer.hooks, [
            (f.checker, f.kind) for f in sanitizer.finish().hazards
        ]

    run, per_call = _twins(scenario)
    assert run["result"][0] == "INVALID_DEVICE_POINTER"
    assert ("invalid", run["result"][1][-1][1]) == run["result"][1][-1]
    assert run == per_call


def _library_state(backend):
    rt, proc = backend.runtime, backend.process
    return {
        "clock_ns": repr(proc.clock_ns),
        "call_counter": sorted(backend.call_counter.items()),
        "api_log": sorted(rt.api_log.items()),
        "buffers": sorted(
            (b.addr, b.uid, type(b).__name__, b.size)
            for b in map(rt.buffer, rt.allocations)
        ),
        "arenas": _arenas(rt),
    }


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("backend_cls", [NativeBackend, CrumBackend])
def test_other_backends_match_per_call(backend_cls, traced):
    out = []
    for api in (Run, PerCall):
        split = SplitProcess(seed=5)
        backend = backend_cls(split.runtime, ODD)
        tracer = Tracer()
        if traced:
            tracer.attach(backend)
        session = type("Twin", (), {"backend": backend})
        result = _plain(_mixed(session, api))
        error = _code(api.malloc_run, backend, 1 << 30, 64)
        spans = [(s.name, s.start_ns, s.end_ns, s.args) for s in tracer.spans]
        out.append((result, error, _library_state(backend), spans))
    assert out[0] == out[1]
    assert bool(out[0][3]) == traced
    assert out[0][1] == "MEMORY_ALLOCATION"
    if backend_cls is CrumBackend:  # a proxy keeps the per-call loop
        assert CrumBackend.malloc_run is CudaDispatchBase.malloc_run


def test_restart_latest_of_a_run_built_log():
    def scenario(session, api):
        b = session.backend
        _mixed(session, api)
        live = api.malloc_run(b, 1024, 25)
        api.free_run(b, live[5:15])
        store = CheckpointStore()
        session.checkpoint(store=store)
        session.kill()
        report = session.restart_latest(store)
        api.free_run(b, live[15:])
        return repr(dataclasses.astuple(report))

    run, per_call = _twins(scenario)
    assert run == per_call


# -- malloc_free_run: the state of allocation churn -------------------------


def _churned(session, api):
    """Churn on a fresh arena (its first pair grows it), beside live
    allocations, in a hole, at other sizes, and into a built buffer's
    neighbourhood."""
    b = session.backend
    api.malloc_free_run(b, 4096, 30)
    keep = api.malloc_run(b, 4096, 4)
    b.memset(keep[2], 3, 4096)
    api.malloc_free_run(b, 4096, 25)
    b.free(keep[1])
    api.malloc_free_run(b, 4096, 17)  # in the hole keep[1] left
    api.malloc_free_run(b, 768, 9)
    api.malloc_free_run(b, 1 << 20, 3)
    return keep


@pytest.mark.parametrize("costs", [DEFAULT_HOST_COSTS, ODD],
                         ids=["default", "odd"])
@pytest.mark.parametrize("fsgsbase", [False, True])
def test_churn_matches_per_call(fsgsbase, costs):
    run, per_call = _twins(_churned, fsgsbase=fsgsbase, costs=costs)
    assert run == per_call
    # the churn's 84 pairs are logged, not counted
    assert run["state"]["call_counter"] == [
        ("cudaFree", 1), ("cudaMalloc", 4), ("cudaMemset", 1),
    ]
    assert len(run["state"]["log"]) == 2 * 84 + 5


def test_virtualized_churn_matches_per_call():
    def scenario(session, api):
        b = session.backend
        keep = _churned(session, api)
        return keep, sorted(b._v2r.items()), b._virt_cursor

    run, per_call = _twins(scenario, address_virtualization=True)
    assert run == per_call
    # one fresh pointer per malloc, the three kept ones still translated
    assert len(run["result"][1]) == 3


def test_sanitizer_sees_the_same_churn_hooks():
    def scenario(session, api):
        sanitizer = session.enable_sanitizer(HookLog())
        _churned(session, api)
        return sanitizer.hooks, [
            (f.checker, f.kind) for f in sanitizer.finish().hazards
        ]

    run, per_call = _twins(scenario)
    assert run == per_call
    assert len(run["result"][0]) == 2 * 84 + 4 + 1


def _unmerged(session):
    """Split the device arena's tail free block in two touching blocks
    that never merged, the first too small for a 4096-byte malloc."""
    b = session.backend
    b.free(b.malloc(256))  # the arena exists
    arena = session.runtime._device_allocs[0]
    tail = arena._free[-1]
    arena._free[-1:] = [
        _FreeBlock(tail.start, 256),
        _FreeBlock(tail.start + 256, tail.size - 256),
    ]
    return tail.start


def test_churn_whose_first_pair_merges_touching_free_blocks():
    """The first pair lands in the second block and its free merges the
    two, so the second pair lands at the first block's start; then the
    free list holds."""

    def scenario(session, api):
        start = _unmerged(session)
        api.malloc_free_run(session.backend, 4096, 12)
        return start, session.runtime._device_allocs[0].free_spans()

    run, per_call = _twins(scenario)
    assert run == per_call
    start, spans = run["result"]
    assert len(spans) == 1
    pairs = run["state"]["log"][2::2]
    assert [e[2] - start for e in pairs[:3]] == [256, 0, 0]


def test_out_of_memory_at_a_churn():
    def scenario(session, api):
        b = session.backend
        b.malloc(1000)
        return _code(api.malloc_free_run, b, 1 << 40, 8)

    run, per_call = _twins(scenario)
    assert run["result"] == "MEMORY_ALLOCATION"
    assert run == per_call


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("backend_cls", [NativeBackend, CrumBackend])
def test_other_backends_churn_like_per_call(backend_cls, traced):
    out = []
    for api in (Run, PerCall):
        split = SplitProcess(seed=5)
        backend = backend_cls(split.runtime, ODD)
        tracer = Tracer()
        if traced:
            tracer.attach(backend)
        session = type("Twin", (), {"backend": backend})
        result = _plain(_churned(session, api))
        spans = [(s.name, s.start_ns, s.end_ns, s.args) for s in tracer.spans]
        log = getattr(backend, "resource_log", None)
        out.append((result, _library_state(backend), spans,
                    log is not None and log.entries))
    assert out[0] == out[1]
    assert bool(out[0][2]) == traced


def _churn_twin(kind):
    """A warm, traced backend of ``kind`` holding one allocation (a CRAC
    session's, with a checkpoint armed at a later call) and its
    tracer."""
    if kind == "crac":
        session = CracSession(seed=5, costs=ODD)
        backend = session.backend
        session.coordinator.schedule_checkpoint_at_call(1_000)
    else:
        split = SplitProcess(seed=5)
        backend = kind(split.runtime, ODD)
    tracer = Tracer()
    tracer.attach(backend)
    backend.malloc(4096)
    backend.free(backend.malloc(512))
    return backend, tracer


def _counters(backend, tracer):
    proc = backend.process
    coordinator = getattr(backend, "coordinator", None)
    return {
        "call_counter": sorted(backend.call_counter.items()),
        "fs_switch_count": proc.fs_switch_count,
        "syscall_count": proc.syscall_count,
        "spans": len(tracer.spans),
        "armed": coordinator and (
            coordinator.trigger_at_call, coordinator._calls_seen
        ),
    }


@pytest.mark.parametrize(
    "kind", ["crac", NativeBackend, NaiveProxyBackend, CrumBackend],
    ids=["crac", "native", "naive-proxy", "crum"],
)
def test_churn_is_state_only_on_every_backend(kind):
    """``malloc_free_run`` counts, charges and notifies nothing: the
    counters, the spans and an armed coordinator's count stay as they
    were, and the clock equals a twin's that made the same pairs through
    the runtime's ``cudaMalloc``/``cudaFree``."""
    backend, tracer = _churn_twin(kind)
    twin, _ = _churn_twin(kind)
    before = _counters(backend, tracer)
    log = getattr(backend, "resource_log", None)
    logged = len(log) if log is not None else 0
    addrs = backend.malloc_free_run(768, 25)
    for _ in range(25):
        twin.runtime.cudaFree(twin.runtime.cudaMalloc(768))
    assert _counters(backend, tracer) == before
    assert _library_state(backend) == _library_state(twin)  # clock included
    assert len(addrs) == 25
    if log is not None:  # one malloc and one free entry per pair
        assert [e[:3] for e in log.entries[logged:]] == [
            entry for addr in addrs
            for entry in (("malloc", 768, addr), ("free", 0, addr))
        ]


# -- free_run: a contiguous stretch frees as one block -----------------------


def test_free_run_meets_free_neighbours_on_both_sides():
    def scenario(session, api):
        b = session.backend
        left, middle, right = (api.malloc_run(b, 256, 10) for _ in range(3))
        b.malloc(256)  # the arena's tail stays apart from the runs
        api.free_run(b, left)
        api.free_run(b, right)
        api.free_run(b, middle)  # touches both
        return session.runtime._device_allocs[0].free_spans()

    run, per_call = _twins(scenario)
    assert run == per_call
    assert len(run["result"]) == 2  # the three runs, and the tail


def test_free_run_of_touching_blocks_of_unequal_sizes():
    def scenario(session, api):
        b = session.backend
        # the second starts one first-block on, but is twice its size
        addrs = [b.malloc(256), b.malloc(512)]
        b.malloc(256)  # the arena's tail stays apart
        api.free_run(b, addrs)
        return session.runtime._device_allocs[0].free_spans()

    run, per_call = _twins(scenario)
    assert run == per_call
    assert run["result"][0][1] == 768


def test_free_run_with_a_repeated_address():
    def scenario(session, api):
        b = session.backend
        addrs = api.malloc_run(b, 256, 10)
        return _code(api.free_run, b, [*addrs[:6], addrs[3], *addrs[6:]])

    run, per_call = _twins(scenario)
    assert run["result"] == "INVALID_DEVICE_POINTER"
    assert run == per_call


@pytest.mark.parametrize("built", [True, False], ids=["built", "looked-up"])
def test_free_run_with_an_object_among_the_rows(built):
    def scenario(session, api):
        b = session.backend
        addrs = api.malloc_run(b, 256, 10)
        # an object now, its contents built or (a lookup) still a row's
        obj = session.runtime.buffer(addrs[4])
        if built:
            b.memset(addrs[4], 9, 256)
        api.free_run(b, addrs)
        return sorted(session.runtime._objects), obj.freed

    run, per_call = _twins(scenario)
    assert run == per_call
    assert run["result"] == ([], True)
