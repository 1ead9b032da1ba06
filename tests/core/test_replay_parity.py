"""Log replay by records leaves the runtime exactly as per-call replay does.

``CudaRuntime.replay_allocations`` reads the log's records as the
trampoline wrote them and calls the runtime's entry points: a run record
of equal mallocs is one ``malloc_run``, a churn record is replayed a pair
at a time through ``cudaMalloc``/``cudaFree`` until its arena is back
where it started and the rest is one ``malloc_free_run``, every free
calls its entry point, and only a lone malloc writes its row inline.
The reference here replays the log's entries (one per call) through the
public ``cudaMalloc``/``cudaFree``/``cudaMallocHost``/``cudaFreeHost``/
``cudaMallocManaged``/``cudaFreeManaged`` entry points, one at a time.
Both run on twin runtimes, and everything observable
must agree, dict orders included: the buffer table (each buffer's kind,
size, device, uid and never-built table), both never-built tables, the
pinned-origin table, ``api_log``, every arena's free list, active map,
mmap count and arena bytes, the lower half's mappings, both UVA epochs,
the UVM manager, the current device and the next uid, plus the result
(calls replayed, translation map, still-active ``cudaHostAlloc``
entries) or the error raised. The restart delta-chain walk keys buffers
by (address, uid), so a wrong build order shows up here as wrong uids.
"""

from itertools import chain

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import Hpgmg, Hypre, Lulesh, SimpleStreams, UnifiedMemoryStreams
from repro.apps.base import AppContext
from repro.apps.rodinia import RODINIA_SUITE
from repro.core import CracSession, ReplayLog, SplitProcess
from repro.core.replay_log import LogEntry
from repro.cuda.api import ChurnRecord, RunRecord
from repro.errors import CudaError, ReplayDivergenceError
from repro.gpu.memory import _FreeBlock
from repro.sanitizer import Sanitizer
from tests.core.test_alloc_run_parity import PerCall, Run

#: the applications of the bench's apps-restart workload
APPS = tuple(RODINIA_SUITE) + (
    SimpleStreams, UnifiedMemoryStreams, Lulesh, Hpgmg, Hypre,
)


def reference_replay(runtime, entries, *, strict=True):
    """Per-call replay through the public entry points."""
    allocs = {
        "malloc": runtime.cudaMalloc,
        "malloc_host": runtime.cudaMallocHost,
        "malloc_managed": runtime.cudaMallocManaged,
    }
    frees = {
        "free": runtime.cudaFree,
        "free_host": runtime.cudaFreeHost,
        "free_managed": runtime.cudaFreeManaged,
    }
    translation = {}
    hostalloc_addrs = set()
    replayed = 0
    for e in entries:
        if e.op == "host_alloc":
            hostalloc_addrs.add(e.addr)
            continue
        if e.op == "free_host" and e.addr in hostalloc_addrs:
            continue
        if e.op in frees:
            frees[e.op](e.addr if strict else translation.get(e.addr, e.addr))
            replayed += 1
            continue
        if e.op == "malloc" and runtime.current_device != e.device:
            runtime.cudaSetDevice(e.device)
        got = allocs[e.op](e.nbytes)
        replayed += 1
        if not strict:
            translation[e.addr] = got
        elif got != e.addr:
            raise ReplayDivergenceError(
                f"replayed {e.op}({e.nbytes}) landed at {got:#x}, "
                f"original was {e.addr:#x} — allocator nondeterminism "
                "or changed platform/ASLR"
            )
    host_allocs = [
        e for e in ReplayLog(list(entries)).active_allocations().values()
        if e.op == "host_alloc"
    ]
    return replayed, translation, host_allocs


def runtime_state(split: SplitProcess) -> dict:
    """Every observable the replay touches, in dict order."""
    rt = split.runtime
    tables = {id(rt.unbuilt_device): "device", id(rt.unbuilt_pinned): "pinned",
              id(rt.unbuilt_managed): "managed"}
    arenas = [*rt._device_allocs, rt._pinned_alloc, rt._hostalloc_alloc,
              rt._managed_alloc]
    return {
        "buffers": [
            (addr, type(b).__name__, getattr(b, "kind", "managed"), b.size,
             getattr(b, "device_index", None), b.uid, b.freed,
             tables.get(id(getattr(b, "unbuilt", None))))
            for addr in rt.allocations for b in (rt.buffer(addr),)
        ],
        "unbuilt_device": list(rt.unbuilt_device.items()),
        "unbuilt_pinned": list(rt.unbuilt_pinned.items()),
        "unbuilt_managed": list(rt.unbuilt_managed.items()),
        "host_origin": list(rt._host_origin.items()),
        "api_log": list(rt.api_log.items()),
        "arenas": [
            ([(b.start, b.size) for b in a._free], list(a.active.items()),
             a.active_bytes, a.mmap_calls, a.arena_bytes)
            for a in arenas
        ],
        "lower": split.lower_ranges(),
        "uva_epochs": (rt._lib_uva_epoch, rt.ctx.uva_epoch),
        "uvm": (list(rt.uvm.buffers), rt.uvm.ever_used),
        "current_device": rt.current_device,
        "next_uid": repr(rt._buffer_uids),
    }


def _outcome(fn):
    try:
        return ("ok", fn())
    except (CudaError, ReplayDivergenceError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "code", None))


def assert_parity(make, log, *, strict=True, prepare=None):
    """Replay ``log``'s records in bulk and its entries per call onto twin
    runtimes built by ``make``; both must end in the same state with the
    same outcome. ``log`` is a ``ReplayLog`` or a list of entries."""
    if not isinstance(log, ReplayLog):
        log = ReplayLog(list(log))
    bulk, ref = make(), make()
    if prepare is not None:
        prepare(bulk)
        prepare(ref)
    got = _outcome(lambda: tuple(log.replay(bulk.runtime, strict=strict)))
    want = _outcome(lambda: reference_replay(ref.runtime, log.entries,
                                             strict=strict))
    assert got == want
    assert runtime_state(bulk) == runtime_state(ref)
    return got


def fresh(**kw):
    return lambda: SplitProcess(seed=0, load_upper=False, **kw)


def recorded(steps, **kw) -> ReplayLog:
    """The log a live session records for ``steps(backend)``."""
    session = CracSession(seed=0, **kw)
    steps(session.backend)
    return session.backend.log


# -- corpus: the apps-restart applications, cut at several points -----------


def _app_logs(cls) -> list[ReplayLog]:
    session = CracSession(seed=0)
    cuts: list[ReplayLog] = []
    ctx = AppContext(
        backend=session.backend, upper_mmap=session.split.upper_mmap,
        checkpoint_cb=lambda _p: cuts.append(session.backend.log.copy()),
    )
    cls(scale=0.05, seed=0).run(ctx)
    cuts.append(session.backend.log.copy())
    distinct = {len(c): c for c in cuts}
    lengths = sorted(distinct)
    picks = {lengths[0], lengths[len(lengths) // 2], lengths[-1]}
    return [distinct[n] for n in sorted(picks)]


@pytest.mark.parametrize("cls", APPS, ids=lambda c: c.__name__)
def test_app_logs_replay_in_bulk_like_per_call(cls):
    for log in _app_logs(cls):
        assert assert_parity(fresh(), log)[0] == "ok"


def test_corpus_holds_runs_of_equal_mallocs():
    log = _app_logs(Hpgmg)[-1]
    result = log.replay(SplitProcess(seed=0).runtime)
    assert result.replayed == len(log)
    # HPGMG-FV's equal-size mallocs: the runs the bulk carve exists for
    mallocs = [r for r in log.records
               if type(r) is RunRecord and r.op == "malloc"]
    carved = sum(len(a) for r in mallocs for a in r.addrs)
    assert carved > len(log) // 4


# -- crafted cases ----------------------------------------------------------------


def _one_address_each(run: RunRecord, k: int, addr: int) -> RunRecord:
    """``run`` with its ``k``-th call logged at ``addr``."""
    addrs = list(chain.from_iterable(run.addrs))
    addrs[k] = addr
    return run._replace(addrs=tuple(range(a, a + 1) for a in addrs))


def test_run_crossing_arena_growth():
    def steps(b):
        b.malloc(48 << 20)
        b.malloc_run(10 << 20, 12)  # the third of these grows a second arena

    log = recorded(steps)
    assert type(log.records[-1]) is RunRecord
    assert assert_parity(fresh(), log)[0] == "ok"
    rt = SplitProcess(seed=0, load_upper=False).runtime
    log.replay(rt)
    assert rt._device_allocs[0].mmap_calls > 4  # grew mid-run


@pytest.mark.parametrize("sizes", [
    [1 << 20] * 10,  # in the middle of a run
    [1 << 20, 1 << 20, 8 << 20],  # at a malloc of its own
], ids=["run", "single"])
def test_out_of_memory_raises_like_the_entry_point(sizes):
    log = recorded(lambda b: [b.malloc(n) for n in sizes]
                   if len(set(sizes)) > 1 else b.malloc_run(sizes[0], len(sizes)))

    def small(split):
        split.runtime._device_allocs[0].capacity = (11 << 20) // 2

    got = assert_parity(fresh(), log, prepare=small)
    assert got[0] == "CudaError" and "out of device memory" in got[1]


def test_free_of_a_run_member_then_reuse():
    def steps(b):
        ptrs = b.malloc_run(256, 10)
        b.free(ptrs[4])
        b.free(ptrs[0])
        b.malloc_run(256, 5)  # both holes, then the tail
        b.free(ptrs[9])

    log = recorded(steps)
    refill = log.records[-2]
    assert type(refill) is RunRecord and len(refill.addrs) == 2
    assert assert_parity(fresh(), log)[0] == "ok"


def test_device_switch_splits_a_run():
    def steps(b):
        for device in (0, 1, 1, 0):
            b.set_device(device)
            b.malloc_run(4096, 3)
        b.malloc_host(4096)

    log = recorded(steps, n_gpus=2)
    assert [r.device for r in log.records[:4]] == [0, 1, 1, 0]
    assert assert_parity(fresh(n_gpus=2), log)[0] == "ok"


def test_invalid_device_raises_like_cuda_set_device():
    for record in (LogEntry("malloc", 256, 0x1000, 3),
                   RunRecord("malloc", 256, (range(0x1000, 0x1300, 256),), 3),
                   ChurnRecord(256, 0x1000, 3, 4)):
        got = assert_parity(fresh(), [record])
        assert got[0] == "CudaError" and "cudaSetDevice(3)" in got[1]


@pytest.mark.parametrize("k", [0, 3, 9])
def test_divergence_at_the_kth_run_element(k):
    per_call = recorded(lambda b: [b.malloc(256) for _ in range(10)])
    entries = per_call.entries
    entries[k] = entries[k]._replace(addr=0xDEAD_0000)
    run = recorded(lambda b: b.malloc_run(256, 10))
    run.records[0] = _one_address_each(run.records[0], k, 0xDEAD_0000)
    for log in (entries, run):
        got = assert_parity(fresh(), log)
        assert got[0] == "ReplayDivergenceError"
        assert "original was 0xdead0000" in got[1]


def test_every_family_with_host_allocs():
    def steps(b):
        d = b.malloc_run(1024, 4)
        m = [b.malloc_managed(1 << 16) for _ in range(3)]
        h = [b.malloc_host(512) for _ in range(3)]
        ha = [b.host_alloc(2048) for _ in range(3)]
        b.free(d[1])
        b.free(m[0])
        b.free_host(h[2])
        b.free_host(ha[1])
        b.malloc(333)
        b.malloc_managed(1 << 16)
        b.host_alloc(2048)
        b.malloc_host(512)

    got = assert_parity(fresh(), recorded(steps))
    assert got[0] == "ok"
    replayed, _, host_allocs = got[1]
    assert replayed == 16 and len(host_allocs) == 3


@pytest.mark.parametrize("bad", [
    LogEntry("free", 0, 0x1234_5000),  # a pointer nothing returned
    LogEntry("free_host", 0, 0x1234_5000),
    LogEntry("free_managed", 0, 0x1234_5000),
])
def test_rejected_free_raises_like_the_entry_point(bad):
    log = recorded(lambda b: b.malloc_run(256, 3))
    log.records.append(bad)
    assert assert_parity(fresh(), log)[0] == "CudaError"


def test_free_of_the_wrong_family_raises_like_the_entry_point():
    def steps(b):
        b.malloc(256)
        b.malloc_host(256)

    entries = recorded(steps).entries
    pinned = entries[1].addr
    assert assert_parity(fresh(), entries + [LogEntry("free", 0, pinned)])[0] \
        == "CudaError"


def test_destroyed_library_raises_like_the_entry_point():
    for log in (recorded(lambda b: b.malloc_run(256, 3)),
                [ChurnRecord(256, 0x1000, 0, 4)],
                [LogEntry("malloc_managed", 1 << 16, 0x1000)],
                [LogEntry("malloc_host", 512, 0x1000)],
                [LogEntry("free", 0, 0x1000)]):
        got = assert_parity(fresh(), log,
                            prepare=lambda split: split.runtime.destroy())
        assert got[0] == "CudaError"


def test_suffix_onto_a_live_runtime_that_frees_preexisting_buffers():
    def live():
        session = CracSession(seed=0)
        b = session.backend
        ptrs = b.malloc_run(256, 6)
        b.device_view(ptrs[2], 16)[:] = 7  # built: leaves never-built
        b.malloc_host(512)
        b.malloc_managed(1 << 16)
        session.live = ptrs
        return session

    probe = live()
    b = probe.backend
    start = b.log.copy()
    b.free(probe.live[1])
    b.free(probe.live[2])
    more = b.malloc_run(256, 4)
    b.free_run([more[0], probe.live[5]])
    b.malloc(256)
    suffix = b.log.since(start)
    assert assert_parity(lambda: live().split, suffix)[0] == "ok"


def test_sanitizer_hooks_fire_per_address():
    def steps(b):
        ptrs = b.malloc_run(256, 8)
        b.free(ptrs[3])
        b.free(ptrs[6])
        b.malloc_run(256, 4)
        b.free_host(b.malloc_host(512))

    log = recorded(steps)
    events = {}

    def attach(split):
        sanitizer = Sanitizer()
        sanitizer.attach(split.runtime)
        seen = events.setdefault(id(split), [])
        for name in ("on_arena_alloc", "on_arena_free"):
            hook = getattr(sanitizer, name)
            setattr(sanitizer, name, lambda arena, addr, size, _h=hook,
                    _n=name: (seen.append((_n, addr, size)), _h(arena, addr, size)))
        split.sanitizer = sanitizer

    splits = []

    def make():
        split = SplitProcess(seed=0, load_upper=False)
        splits.append(split)
        return split

    assert assert_parity(make, log, prepare=attach)[0] == "ok"
    bulk, ref = splits
    assert events[id(bulk)] == events[id(ref)]
    assert len(events[id(bulk)]) == 16
    assert bulk.sanitizer._freed == ref.sanitizer._freed


def test_translating_mode_builds_the_same_map():
    def steps(b):
        ptrs = b.malloc_run(256, 5)
        b.free(ptrs[1])
        b.malloc_managed(1 << 16)
        b.malloc(256)
        b.free(ptrs[4])
        b.free_host(b.malloc_host(128))

    def shifted(split):
        # The layout moves: nothing lands where the log says.
        split.runtime.cudaMalloc(4096)
        split.runtime.cudaMallocHost(64)
        split.runtime.cudaMallocManaged(4096)

    got = assert_parity(fresh(), recorded(steps), strict=False,
                        prepare=shifted)
    assert got[0] == "ok"
    translation = got[1][1]
    assert translation and all(a != b for a, b in translation.items())


# -- churn: back-to-back malloc/free pairs ------------------------------------


def _churn(b):
    """Allocation churn among other calls: a pair that grows the arena
    on a fresh runtime, churn right after a run of its own size, churn
    at a hole, and churn of another size."""
    b.malloc_free_run(4096, 6)
    keep = b.malloc_run(4096, 3)
    b.malloc_free_run(4096, 40)
    b.free(keep[1])
    b.malloc_free_run(4096, 25)  # lands in the hole keep[1] left
    b.malloc_free_run(768, 12)
    b.free(keep[0])


def _churns(log: ReplayLog) -> list[int]:
    """The pair count of each of ``log``'s churn records."""
    return [r.pairs for r in log.records if type(r) is ChurnRecord]


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "translating"])
def test_churn_replays_in_bulk_like_per_call(strict):
    log = recorded(_churn)
    assert _churns(log) == [6, 40, 25, 12]

    def shifted(split):
        split.runtime.cudaMalloc(4096)

    got = assert_parity(fresh(), log, strict=strict,
                        prepare=None if strict else shifted)
    assert got[0] == "ok"
    assert got[1][0] == len(log)


def test_churn_after_a_run_of_its_size_starts_a_pair_later():
    log = recorded(lambda b: (
        [b.malloc(4096) for _ in range(3)], b.malloc_free_run(4096, 5),
    ))
    # The churn's pairs are one record, apart from the mallocs before it.
    assert [type(r) for r in log.records] == [LogEntry] * 3 + [ChurnRecord]
    assert _churns(log) == [5]
    assert assert_parity(fresh(), log)[0] == "ok"


def test_churn_whose_first_pair_grows_the_arena():
    log = recorded(lambda b: b.malloc_free_run(256, 30))
    assert _churns(log) == [30]
    rt = SplitProcess(seed=0, load_upper=False).runtime
    log.replay(rt)
    assert rt._device_allocs[0].mmap_calls  # the first pair grew it
    assert assert_parity(fresh(), log)[0] == "ok"


def test_translated_churn_whose_pairs_move_until_the_arena_holds():
    """Onto an arena whose free list holds two touching blocks that
    never merged, the first too small: the first pair lands in the
    second block and merges the two, the later ones at the first's
    start, so the map ends on the later address."""
    log = recorded(lambda b: b.malloc_free_run(4096, 10))

    def unmerged(split):
        rt = split.runtime
        rt.cudaFree(rt.cudaMalloc(256))
        arena = rt._device_allocs[0]
        tail = arena._free[-1]
        arena._free[-1:] = [
            _FreeBlock(tail.start, 256),
            _FreeBlock(tail.start + 256, tail.size - 256),
        ]

    got = assert_parity(fresh(), log, strict=False, prepare=unmerged)
    assert got[0] == "ok"
    [(_, replayed)] = got[1][1].items()
    assert replayed == SplitProcess(seed=0, load_upper=False).runtime \
        .cudaMalloc(256)  # the first block's start


@pytest.mark.parametrize("k", [0, 7, 19])
def test_divergent_pair_inside_a_churn(k):
    log = recorded(lambda b: b.malloc_free_run(1024, 20))
    [churn] = log.records
    log.records[:] = [r for r in (
        churn._replace(pairs=k),
        churn._replace(addr=0xDEAD_0000, pairs=1),
        churn._replace(pairs=19 - k),
    ) if r.pairs]
    got = assert_parity(fresh(), log)
    assert got[0] == "ReplayDivergenceError"
    assert "original was 0xdead0000" in got[1]


def test_churn_sanitizer_hooks_fire_per_pair():
    log = recorded(_churn)
    seen = {}

    def attach(split):
        sanitizer = Sanitizer()
        sanitizer.attach(split.runtime)
        events = seen.setdefault(id(split), [])
        for name in ("on_arena_alloc", "on_arena_free"):
            hook = getattr(sanitizer, name)
            setattr(sanitizer, name, lambda arena, addr, size, _h=hook,
                    _n=name: (events.append((_n, addr, size)), _h(arena, addr, size)))

    splits = []

    def make():
        split = SplitProcess(seed=0, load_upper=False)
        splits.append(split)
        return split

    assert assert_parity(make, log, prepare=attach)[0] == "ok"
    bulk, ref = (seen[id(split)] for split in splits)
    assert bulk == ref
    assert len(bulk) == sum(e.op in ("malloc", "free") for e in log.entries)


# -- property: irregular logs onto a live runtime ---------------------------

#: the allocations a live runtime holds before the replayed log starts
OLDER = (("malloc", 256), ("malloc", 256), ("malloc_host", 512),
         ("malloc_managed", 1 << 16), ("malloc", 4096), ("malloc", 768))
SIZES = st.sampled_from([256, 512, 768, 4096, 1 << 16])
ALLOCS = st.sampled_from(["malloc", "malloc_host", "malloc_managed",
                          "host_alloc"])
STEPS = st.one_of(
    st.tuples(ALLOCS, SIZES),  # one allocation
    st.tuples(st.just("run"), SIZES, st.integers(1, 8)),  # malloc_run
    st.tuples(st.just("free"), st.integers(0, 63)),
    # free_run of device and managed pointers, from the i-th on
    st.tuples(st.just("free_run"), st.integers(0, 63), st.integers(1, 6)),
    st.tuples(st.just("set_device"), st.integers(0, 1)),
    st.tuples(st.just("churn"), SIZES, st.integers(1, 6)),
    # split the current arena's tail free block in two touching blocks
    # that never merged: the next churn's first pair moves
    st.tuples(st.just("unmerge")),
)
#: a script whose second run crosses two free-block breaks
HOLES = [("run", 768, 6), ("free", 7), ("free", 9), ("run", 768, 4)]
#: a script whose churn's first pair lands apart from the later ones
MOVES = [("unmerge",), ("churn", 4096, 5)]


def _live_runtime():
    """A session holding ``OLDER``, one of them an object."""
    session = CracSession(seed=0, n_gpus=2)
    b = session.backend
    session.older = [(op, getattr(b, op)(n)) for op, n in OLDER]
    b.device_view(session.older[1][1], 16)[:] = 7
    return session


def _scripted(script, api, cut):
    """``script`` run on a live runtime through ``api`` (``Run`` or
    ``PerCall``), with a checkpoint armed to fire at call ``cut`` (if
    not None). The whole log, its part past ``OLDER`` and the logs of
    the images taken."""
    session = _live_runtime()
    b = session.backend
    start = b.log.copy()
    if cut is not None:
        session.coordinator.schedule_checkpoint_at_call(cut)
    live = list(session.older)
    frees = {"malloc": b.free, "malloc_managed": b.free,
             "malloc_host": b.free_host, "host_alloc": b.free_host}
    for step in script:
        if step[0] == "free":
            if live:
                op, ptr = live.pop(step[1] % len(live))
                frees[op](ptr)
        elif step[0] == "free_run":
            cuda_free = [p for p in live if p[0] in ("malloc", "malloc_managed")]
            if cuda_free:
                i = step[1] % len(cuda_free)
                picked = cuda_free[i:i + step[2]]
                live = [p for p in live if p not in picked]
                api.free_run(b, [ptr for _, ptr in picked])
        elif step[0] == "set_device":
            b.set_device(step[1])
        elif step[0] == "churn":
            api.malloc_free_run(b, step[1], step[2])
        elif step[0] == "run":
            live += [("malloc", p) for p in api.malloc_run(b, step[1], step[2])]
        elif step[0] == "unmerge":
            arena = session.runtime._device_alloc
            tail = arena._free[-1] if arena._free else None
            if tail is not None and tail.size > 512:
                arena._free[-1:] = [
                    _FreeBlock(tail.start, 256),
                    _FreeBlock(tail.start + 256, tail.size - 256),
                ]
        else:
            op, nbytes = step
            live.append((op, getattr(b, op)(nbytes)))
    images = [i.blob("crac/replay-log") for i in session.coordinator.images]
    return b.log, b.log.since(start), images


def _moved(records: list, k: int, diverge: int) -> None:
    """Log the allocation of ``records[k]`` (its ``diverge``-th call, in
    a run) at another address, and the first later free of its old
    address with it: the log frees only what it allocated. A churn's
    frees are its own."""
    record = records[k]
    if type(record) is ChurnRecord:
        records[k] = record._replace(addr=0xDEAD_0000)
        return
    if type(record) is RunRecord:
        calls = list(chain.from_iterable(record.addrs))
        i = diverge % len(calls)
        old = calls[i]
        records[k] = _one_address_each(record, i, 0xDEAD_0000)
    else:
        old = record.addr
        records[k] = record._replace(addr=0xDEAD_0000)
    for j in range(k + 1, len(records)):
        later = records[j]
        if type(later) is ChurnRecord or not later.op.startswith("free"):
            continue
        if type(later) is RunRecord:
            calls = list(chain.from_iterable(later.addrs))
            if old in calls:
                records[j] = _one_address_each(
                    later, calls.index(old), 0xDEAD_0000
                )
                return
        elif later.addr == old:
            records[j] = later._replace(addr=0xDEAD_0000)
            return


@settings(max_examples=120, deadline=None)
@given(script=st.lists(STEPS, min_size=1, max_size=40),
       diverge=st.none() | st.integers(0, 1 << 10), strict=st.booleans(),
       cut=st.none() | st.integers(1, 60))
@example(script=HOLES, diverge=None, strict=True, cut=None)
@example(script=MOVES, diverge=None, strict=False, cut=None)
@example(script=HOLES + MOVES, diverge=None, strict=True, cut=11)
@example(script=[("malloc", 256), ("malloc", 256), ("unmerge",),
                 ("malloc", 512), ("free_run", 2, 6)],
         diverge=266, strict=False, cut=None)
def test_irregular_logs_replay_in_bulk_like_per_call(script, diverge, strict, cut):
    """Runs of equal mallocs (some crossing free-block breaks), frees
    and churn through the run API, unequal device, pinned and managed
    allocations among them, frees of this log's allocations and of older
    ones (rows and an object), device switches, a checkpoint armed
    inside a run, and an allocation that lands elsewhere than the log
    says. The run API logs what one call at a time logs (and churn what
    its pairs made through the runtime's entry points log: they count
    toward no armed checkpoint), the images' logs are prefixes of the
    live log's records, and the records replay in bulk as their entries
    do one by one."""
    log, suffix, images = _scripted(script, Run, cut)
    per_call, per_call_suffix, per_call_images = _scripted(script, PerCall, cut)
    assert suffix.entries == per_call_suffix.entries
    assert [i.entries for i in images] == [i.entries for i in per_call_images]
    for image in images:
        assert log.records[:len(image.records)] == image.records
    records = suffix.records
    allocating = [
        i for i, r in enumerate(records)
        if type(r) is ChurnRecord or r.op in ("malloc", "malloc_host",
                                              "malloc_managed")
    ]
    if diverge is not None and allocating:
        k = allocating[diverge % len(allocating)]
        _moved(records, k, diverge)
    got = assert_parity(lambda: _live_runtime().split, suffix, strict=strict)
    if not strict or (diverge is None and ("unmerge",) not in script):
        assert got[0] == "ok"


# -- restart counts the same calls in both modes -----------------------------


def test_translating_restart_counts_only_replayed_calls():
    """A 6-entry log with two cudaHostAlloc entries and one free of them:
    restart replays three calls in either mode and charges them alike."""

    def restart(address_virtualization):
        session = CracSession(
            seed=0, address_virtualization=address_virtualization
        )
        b = session.backend
        d = b.malloc(4096)
        ha = b.host_alloc(2048)
        b.host_alloc(2048)
        b.free_host(ha)
        b.malloc_host(512)
        b.free(d)
        assert len(b.log) == 6
        image = session.checkpoint()
        session.kill()
        return session.restart(image)

    strict, translating = restart(False), restart(True)
    assert strict.replayed_calls == translating.replayed_calls == 3
    assert strict.replay_ns == translating.replay_ns
