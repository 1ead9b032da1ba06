"""A restart pays a small, fixed number of C-level passes per untouched
allocation, and nothing per unchanged link of its delta chain.

Structural guard, no wall clock: a session holding N never-written
``cudaMalloc`` allocations and one written buffer is cut in full, then
incrementally (only the written buffer changes between cuts), killed
and restarted from its store with ``restart_latest``. The peak of the
memory the restart allocates (``tracemalloc``) bounds its C-level work,
which a count of Python lines cannot see: every transient copy of a
table or set of ``(address, uid)`` pairs shows in it. What N more
untouched allocations add to that peak (the fixed cost of a restart
cancels out) must stay within a fixed number of bytes per allocation,
and a chain of 8 unchanged links may add only a fixed amount per link
to the peak of a chain of 1, whatever N.

The bounds were measured on CPython 3.11.7; peak sizes follow the
interpreter's dict and int layouts, so another version may move them.
"""

import gc
import tracemalloc

import pytest

from repro.core import CracSession
from repro.dmtcp.store import CheckpointStore

#: the peak bytes the restart may allocate per more untouched allocation:
#: the replayed tables (arena, sizes, never-built uids, and their ints)
#: measure 273; a replay or walk that copies the tables once more, or
#: builds a set of (address, uid) pairs, needs 334 or more
PEAK_PER_ALLOCATION = 310
#: what each more unchanged link may add to that peak: its own small
#: objects (measured under 700 bytes), nothing per allocation; a walk
#: that copies the walking set per link adds 77-93 bytes per allocation
PER_LINK = 4096


def _restart_peak(untouched: int, links: int) -> int:
    """Peak bytes allocated by ``restart_latest`` from a chain of a full
    image and ``links`` incremental ones."""
    session = CracSession(seed=0)
    backend = session.backend
    backend.malloc_run(256, untouched)
    written = backend.malloc(4096)
    store = CheckpointStore()
    image = session.checkpoint(store=store)
    for k in range(links):
        backend.device_view(written, 8)[:] = k + 1
        image = session.checkpoint(store=store, incremental=True, parent=image)
    session.kill()
    gc.collect()
    tracemalloc.start()
    try:
        report = session.restart_latest(store)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.generation == store.latest()
    assert bytes(backend.device_view(written, 8)) == bytes([links] * 8)
    session.kill()
    return peak


@pytest.mark.parametrize("links", [1, 8])
def test_restart_peak_grows_a_bounded_amount_per_allocation(links):
    small, large = _restart_peak(1_000, links), _restart_peak(10_000, links)
    assert large - small <= PEAK_PER_ALLOCATION * 9_000


@pytest.mark.parametrize("untouched", [1_000, 10_000])
def test_restart_peak_is_flat_in_the_chain(untouched):
    one, eight = _restart_peak(untouched, 1), _restart_peak(untouched, 8)
    assert eight - one <= 7 * PER_LINK


#: what a run of 99,000 more untouched allocations may add to the peak
#: of its whole life, from ``malloc_run`` through a cut, ``kill``,
#: ``restart_latest`` and ``free_run``: the run is one row of each
#: table, one record of the log and one of the never-built record, so
#: only the sizes of a few larger ints differ (a table or list with an
#: entry per allocation adds megabytes)
RUN_LIFE_SLACK = 4 << 10


def _run_life_peak(n: int) -> int:
    """Peak bytes allocated while a session makes ``malloc_run(256, n)``,
    cuts, is killed, restarts from its store and frees the run."""
    session = CracSession(seed=0)
    backend = session.backend
    backend.free(backend.malloc(256))  # warm: the arena exists
    store = CheckpointStore()
    gc.collect()
    tracemalloc.start()
    try:
        addrs = backend.malloc_run(256, n)
        session.checkpoint(store=store)
        session.kill()
        session.restart_latest(store)
        backend.free_run(addrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not session.runtime.allocations
    assert backend.call_counter["cudaFree"] == n + 1
    session.kill()
    return peak


def test_a_run_costs_the_same_from_malloc_to_free_whatever_its_length():
    small, large = _run_life_peak(1_000), _run_life_peak(100_000)
    assert large - small <= RUN_LIFE_SLACK, (small, large)
