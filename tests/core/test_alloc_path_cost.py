"""What one CUDA call costs the simulator on the host.

Virtual time is pinned by ``test_alloc_path_parity.py`` and
``test_data_path_parity.py``; these tests pin the host side
deterministically instead of with a wall-clock gate: the objects an
allocation creates carry no per-instance ``__dict__``, the replay log
holds a plain tuple per call made alone and one record per run however
long, in memory and in a cut image, and survives an image's export, one warm
``malloc``, ``free``, launch, memset or memcpy through the trampoline
stays within a fixed budget of Python-level calls, a run of equal
mallocs or frees, or the state of malloc/free churn pairs, stays
within one budget whatever its length, and so does each never-written
``cudaMalloc`` that restart replays. A blown budget prints the frames it entered, per
qualified name.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.core import CracSession
from repro.core.replay_log import LogEntry, ReplayLog
from repro.cuda.api import ChurnRecord, FatBinary, RunRecord
from repro.dmtcp.image import CheckpointImage
from repro.gpu.memory import DeviceBuffer, PagedContents, _FreeBlock
from tests.conftest import call_breakdown, python_calls, python_frames

#: Python-level calls one warm ``CracBackend.malloc(256)`` or ``free``
#: may make: the entry point, one trampoline frame, the runtime, the
#: arena (plus the buffer object for a malloc) and one log frame (28
#: each before the path was first made lean, 11 and 13 before the
#: crossing and the log append became one frame each)
CALL_BUDGET = 6
#: Python-level calls of one warm launch, memset and memcpy through the
#: trampoline, no fault domain attached (29, 27, 35 and 34 before the
#: data path was made lean: a three-frame crossing per call, a thunk, the
#: full entry prologue and an unarmed coordinator notify; 11, 16, 25 and
#: 19 while CRAC overrode each entry point to translate pointers)
DATA_PATH_BUDGETS = {"launch": 10, "memset": 15, "memcpy-h2d": 24,
                     "memcpy-d2h": 18}
#: Python-level calls ``restart`` may make per replayed ``cudaMalloc`` of
#: a buffer nothing ever wrote, in a run of equal mallocs: the buffer
#: object alone; the run is one arena carve (6 while every buffer built
#: its contents and dirty index up front, 4 while replay called the
#: runtime entry point and the arena once per entry)
RESTART_MALLOC_CALL_BUDGET = 1
#: Python-level calls one warm ``malloc_run(256, n)`` or ``free_run`` of
#: its addresses may make beyond one per allocation for ``malloc_run``
#: (the buffer object): the crossing, the runtime, the arena and one log
#: frame, whatever ``n`` is (one ``malloc`` or ``free`` per call before
#: the run API, ``CALL_BUDGET`` each)
RUN_CALL_BUDGET = 9
#: Python-level calls one warm ``malloc_free_run(256, n)`` may make,
#: whatever ``n`` is: the dispatch base's entry point, the runtime, the
#: arena's first pair (its alloc, free, release and two free-list
#: snapshots) and the log writer with its comprehension (two
#: ``CALL_BUDGET`` crossings per pair before the churn crossed once, 14
#: while it was counted and charged, 11 while CRAC overrode the entry
#: point)
CHURN_CALL_BUDGET = 10
#: bytes the replay log may grow by when a run makes 9,000 more calls: a
#: run is one record however long (a tuple of about 100 bytes per call,
#: two per churn pair, while the log held one per call)
LOG_RUN_SLACK = 4 << 10


def test_warm_malloc_and_free_stay_within_call_budget():
    session = CracSession(seed=3)
    backend = session.backend
    for _ in range(3):  # warm: the arena exists, the free list is split
        backend.free(backend.malloc(256))
    keep = backend.malloc(256)
    addr, malloc_frames = python_frames(backend.malloc, 256)
    _, free_frames = python_frames(backend.free, addr)
    for frames in (malloc_frames, free_frames):
        total = sum(frames.values())
        assert total <= CALL_BUDGET, call_breakdown(frames)
    assert keep in session.runtime.allocations and addr not in session.runtime.allocations


@pytest.mark.parametrize("op", sorted(DATA_PATH_BUDGETS))
def test_warm_data_path_stays_within_call_budget(op):
    session = CracSession(seed=3)
    backend = session.backend
    backend.register_app_binary(FatBinary("cost.fatbin", ("k",)))
    dev = backend.malloc(4096)
    host = np.zeros(4096, dtype=np.uint8)
    calls = {
        "launch": (backend.launch, ("k",), {"duration_ns": 1000.0}),
        "memset": (backend.memset, (dev, 1, 4096), {}),
        "memcpy-h2d": (backend.memcpy, (dev, host, 4096, "h2d"), {}),
        "memcpy-d2h": (backend.memcpy, (host, dev, 4096, "d2h"), {}),
    }
    for fn, args, kwargs in calls.values():  # warm: contents built
        fn(*args, **kwargs)
    fn, args, kwargs = calls[op]
    _, frames = python_frames(fn, *args, **kwargs)
    total = sum(frames.values())
    assert total <= DATA_PATH_BUDGETS[op], call_breakdown(frames)


def _restart_calls(n_buffers: int) -> int:
    """Python calls of one ``restart`` replaying ``n_buffers`` untouched
    ``cudaMalloc`` buffers."""
    session = CracSession(seed=3)
    for _ in range(n_buffers):
        session.backend.malloc(256)
    image = session.checkpoint()
    session.kill()
    _, calls = python_calls(session.restart, image)
    assert len(session.runtime.allocations) == n_buffers
    return calls


def test_restart_replays_untouched_malloc_within_call_budget():
    # An untimed restart first, so a first-use cost (an ABC's
    # ``__subclasscheck__`` cache, say) is not counted as per-malloc.
    _restart_calls(50)
    per_malloc = (_restart_calls(150) - _restart_calls(50)) / 100
    assert per_malloc <= RESTART_MALLOC_CALL_BUDGET, per_malloc


@pytest.mark.parametrize("n", [10, 10_000])
def test_alloc_runs_stay_within_call_budget(n):
    session = CracSession(seed=3)
    backend = session.backend
    backend.free(backend.malloc(256))  # warm: the arena exists
    addrs, malloc_frames = python_frames(backend.malloc_run, 256, n)
    _, free_frames = python_frames(backend.free_run, addrs)
    assert sum(malloc_frames.values()) <= n + RUN_CALL_BUDGET, call_breakdown(
        malloc_frames
    )
    assert sum(free_frames.values()) <= RUN_CALL_BUDGET, call_breakdown(
        free_frames
    )
    assert session.backend.call_counter["cudaMalloc"] == n + 1
    assert not session.runtime.allocations


@pytest.mark.parametrize("n", [10, 10_000])
def test_churn_stays_within_call_budget(n):
    session = CracSession(seed=3)
    backend = session.backend
    backend.free(backend.malloc(256))  # warm: the arena exists
    _, frames = python_frames(backend.malloc_free_run, 256, n)
    assert sum(frames.values()) <= CHURN_CALL_BUDGET, call_breakdown(frames)
    assert len(backend.log) == 2 + 2 * n
    assert backend.call_counter["cudaFree"] == 1  # the pairs are state only
    assert not session.runtime.allocations


def _log_bytes(op: str, n: int) -> int:
    """Bytes the replay log holds for ``op`` over ``n`` 256-byte calls
    (``"free_run"`` frees a ``malloc_run``'s addresses): what dropping
    the log releases, traced from before the run."""
    session = CracSession(seed=3)
    backend = session.backend
    backend.free(backend.malloc(256))  # warm: the arena exists
    gc.collect()
    tracemalloc.start()
    try:
        if op == "malloc_free_run":
            backend.malloc_free_run(256, n)
        else:
            addrs = backend.malloc_run(256, n)
            if op == "free_run":
                backend.free_run(addrs)
        held = tracemalloc.get_traced_memory()[0]
        backend.log = ReplayLog()
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", ["malloc_run", "free_run", "malloc_free_run"])
def test_a_run_grows_the_log_by_one_record_whatever_its_length(op):
    grown = _log_bytes(op, 10_000) - _log_bytes(op, 1_000)
    assert grown <= LOG_RUN_SLACK, grown


def test_cut_image_keeps_one_record_per_run():
    session = CracSession(seed=3)
    backend = session.backend
    backend.free(backend.malloc(256))
    backend.free_run(backend.malloc_run(256, 1_000))
    backend.malloc_free_run(256, 1_000)
    log = session.checkpoint().blob("crac/replay-log")
    assert [type(r) for r in log.records] == [
        LogEntry, LogEntry, RunRecord, RunRecord, ChurnRecord,
    ]
    assert len(log) == 2 + 4 * 1_000
    assert log.entries == backend.log.entries


def test_device_buffer_builds_contents_on_first_use(monkeypatch):
    built = []
    original = PagedContents.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PagedContents, "__init__", counting_init)
    buf = DeviceBuffer(0x1000, 512, "device")
    assert buf.write_seq == 0 and buf.dirty_bytes_since(0) == 0
    assert built == []
    contents = buf.contents
    assert built == [contents] and buf.contents is contents
    assert contents.size == 512 and contents.backed_bytes == 0
    assert contents.fill_value == 0 and not contents.dirty_spans()
    assert not hasattr(buf, "__dict__")


def test_hot_objects_carry_no_instance_dict():
    buf = DeviceBuffer(0x1000, 512, "device")
    for obj in (buf, buf.contents, PagedContents(64), _FreeBlock(0, 256)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    entry = LogEntry("malloc", 64, 0x1000)
    assert isinstance(entry, tuple)
    assert entry == ("malloc", 64, 0x1000, 0)


def test_replay_log_survives_image_export():
    session = CracSession(seed=3)
    backend = session.backend
    a = backend.malloc(4096)
    backend.malloc_managed(1 << 16)
    backend.host_alloc(2048)
    backend.free(a)
    backend.malloc_host(512)
    image = session.checkpoint()
    restored = CheckpointImage.from_payload(image.export_payload())
    before = image.blob("crac/replay-log").entries
    after = restored.blob("crac/replay-log").entries
    assert len(after) == 5
    assert after == before
    assert all(type(e) is LogEntry for e in after)
