"""Edge cases of the pristine-buffer rule, per allocation family.

A cut copies nothing for a *pristine* buffer (non-managed, no backing
spans, fill value 0, nothing dirty): restart's malloc-log replay
recreates exactly its contents. Each case below drives one buffer of one
allocation family (``cudaMalloc``, ``cudaMallocHost``, ``cudaHostAlloc``)
through a full → incremental → incremental chain committed to a store,
restarts from the newest generation, and pins what comes back to
literals recorded before the rule existed: the restored bytes, the
refilled PCIe bytes and every image's size (and, for the forked case,
the copy-on-write charge).
"""

import zlib

import pytest

from repro.core import CracSession
from repro.dmtcp.store import CheckpointStore

SIZE = 64 * 1024
#: app work inside the forked write window
WINDOW_NS = 5_000_000.0
#: host bytes dirtied before the forked cut (its write window)
WINDOW_BYTES = 4 << 20

#: family -> (alloc, free) on the session's backend
FAMILIES = {
    "cudaMalloc": ("malloc", "free"),
    "cudaMallocHost": ("malloc_host", "free_host"),
    "cudaHostAlloc": ("host_alloc", "free_host"),
}
CASES = (
    "untouched", "written-after-base", "freed-reused", "memset-zero",
    "memset-nonzero", "forked-window",
)


def run_case(family: str, case: str) -> dict:
    """Drive one buffer through the case's chain; return the observables."""
    session = CracSession(seed=31)
    backend = session.backend
    alloc_name, free_name = FAMILIES[family]

    def alloc() -> int:
        return getattr(backend, alloc_name)(SIZE)

    store = CheckpointStore()
    p = alloc()
    if case in ("freed-reused", "memset-zero"):
        backend.device_view(p, SIZE)[:] = 3
    base = session.checkpoint(store=store)

    if case == "written-after-base":
        backend.device_view(p, 200, offset=100)[:] = 9
    elif case == "freed-reused":
        getattr(backend, free_name)(p)
        assert alloc() == p  # same address, a new untouched allocation
    elif case == "memset-zero":
        backend.memset(p, 0, SIZE)
    elif case == "memset-nonzero":
        backend.memset(p, 0x5A, SIZE)

    cow_time_ns = None
    if case == "forked-window":
        # Dirty host pages give the forked write a window to overlap.
        upper = session.split.upper_mmap(WINDOW_BYTES)
        session.process.vas.write(upper, b"w" * WINDOW_BYTES)
        inc1 = session.checkpoint(
            incremental=True, parent=base, store=store, forked=True
        )
        backend.device_view(p, 4096, offset=8192)[:] = 13
        session.process.advance(WINDOW_NS)
        session.finish_forked_checkpoints()
        cow_time_ns = round(inc1.forked_writer.cow_time_ns, 2)
    else:
        inc1 = session.checkpoint(incremental=True, parent=base, store=store)
    inc2 = session.checkpoint(incremental=True, parent=inc1, store=store)

    session.kill()
    report = session.restart_latest(store)
    restored = backend.device_view(p, SIZE).tobytes()
    session.kill()
    return {
        "digest": zlib.crc32(restored),
        "refilled_bytes": report.refilled_bytes,
        "size_bytes": [img.size_bytes for img in (base, inc1, inc2)],
        "cow_time_ns": cow_time_ns,
    }


#: recorded before pristine buffers skipped their copy
GOLDEN: dict = {'cudaMalloc-untouched': {'digest': 3617033963,
                          'refilled_bytes': 65536,
                          'size_bytes': [16973824, 0, 0],
                          'cow_time_ns': None},
 'cudaMalloc-written-after-base': {'digest': 616105636,
                                   'refilled_bytes': 65736,
                                   'size_bytes': [16973824, 200, 0],
                                   'cow_time_ns': None},
 'cudaMalloc-freed-reused': {'digest': 3617033963,
                             'refilled_bytes': 0,
                             'size_bytes': [16973824, 0, 0],
                             'cow_time_ns': None},
 'cudaMalloc-memset-zero': {'digest': 3617033963,
                            'refilled_bytes': 131072,
                            'size_bytes': [16973824, 65536, 0],
                            'cow_time_ns': None},
 'cudaMalloc-memset-nonzero': {'digest': 4102653070,
                               'refilled_bytes': 131072,
                               'size_bytes': [16973824, 65536, 0],
                               'cow_time_ns': None},
 'cudaMalloc-forked-window': {'digest': 138515425,
                              'refilled_bytes': 69632,
                              'size_bytes': [16973824, 4194304, 4096],
                              'cow_time_ns': 165.12},
 'cudaMallocHost-untouched': {'digest': 3617033963,
                              'refilled_bytes': 0,
                              'size_bytes': [16973824, 0, 0],
                              'cow_time_ns': None},
 'cudaMallocHost-written-after-base': {'digest': 616105636,
                                       'refilled_bytes': 0,
                                       'size_bytes': [16973824, 200, 0],
                                       'cow_time_ns': None},
 'cudaMallocHost-freed-reused': {'digest': 3617033963,
                                 'refilled_bytes': 0,
                                 'size_bytes': [16973824, 0, 0],
                                 'cow_time_ns': None},
 'cudaMallocHost-memset-zero': {'digest': 3617033963,
                                'refilled_bytes': 0,
                                'size_bytes': [16973824, 65536, 0],
                                'cow_time_ns': None},
 'cudaMallocHost-memset-nonzero': {'digest': 4102653070,
                                   'refilled_bytes': 0,
                                   'size_bytes': [16973824, 65536, 0],
                                   'cow_time_ns': None},
 'cudaMallocHost-forked-window': {'digest': 138515425,
                                  'refilled_bytes': 0,
                                  'size_bytes': [16973824, 4194304, 4096],
                                  'cow_time_ns': 165.12},
 'cudaHostAlloc-untouched': {'digest': 3617033963,
                             'refilled_bytes': 0,
                             'size_bytes': [16973824, 0, 0],
                             'cow_time_ns': None},
 'cudaHostAlloc-written-after-base': {'digest': 616105636,
                                      'refilled_bytes': 0,
                                      'size_bytes': [16973824, 200, 0],
                                      'cow_time_ns': None},
 'cudaHostAlloc-freed-reused': {'digest': 3617033963,
                                'refilled_bytes': 0,
                                'size_bytes': [16973824, 0, 0],
                                'cow_time_ns': None},
 'cudaHostAlloc-memset-zero': {'digest': 3617033963,
                               'refilled_bytes': 0,
                               'size_bytes': [16973824, 65536, 0],
                               'cow_time_ns': None},
 'cudaHostAlloc-memset-nonzero': {'digest': 4102653070,
                                  'refilled_bytes': 0,
                                  'size_bytes': [16973824, 65536, 0],
                                  'cow_time_ns': None},
 'cudaHostAlloc-forked-window': {'digest': 138515425,
                                 'refilled_bytes': 0,
                                 'size_bytes': [16973824, 4194304, 4096],
                                 'cow_time_ns': 165.12}}


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_pristine_rule_matches_recorded_cut(family, case):
    assert run_case(family, case) == GOLDEN[f"{family}-{case}"]
