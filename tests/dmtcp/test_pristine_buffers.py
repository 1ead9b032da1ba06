"""Edge cases of the never-built rule, per allocation family.

A cut copies nothing for a buffer that never built its contents: it
goes into the image's ``crac/never-built`` record, because restart's
malloc-log replay recreates exactly its bytes. A buffer that built its
contents gets an explicit entry that copies them, even when they are
back to a fresh allocation's (a zero memset, clean after its cut). Each
case below drives one buffer of one allocation family (``cudaMalloc``,
``cudaMallocHost``, ``cudaHostAlloc``) through a full → incremental →
incremental chain committed to a store, restarts from the newest
generation, and pins how each image records the buffer, plus what comes
back to literals recorded before any buffer skipped its copy: the
restored bytes, the refilled PCIe bytes and every image's size (and, for
the forked case, the copy-on-write charge). The speculative case,
recorded before buffers built their contents lazily, pins the validation
outcome of a first write that lands inside the capture window.
"""

import zlib

import pytest

from repro.core import CracSession
from repro.dmtcp.store import CheckpointStore

SIZE = 64 * 1024
#: app work inside the forked write window
WINDOW_NS = 5_000_000
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
    "memset-nonzero", "forked-window", "speculative-window",
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
    validation = None
    if case in ("forked-window", "speculative-window"):
        # Dirty host pages give the background write a window to overlap.
        upper = session.split.upper_mmap(WINDOW_BYTES)
        session.process.vas.write(upper, b"w" * WINDOW_BYTES)
        speculative = case == "speculative-window"
        inc1 = session.checkpoint(
            incremental=True, parent=base, store=store,
            forked=not speculative, speculative=speculative,
        )
        # The buffer is untouched until here: its first write lands
        # inside the window.
        backend.device_view(p, 4096, offset=8192)[:] = 13
        session.process.advance(WINDOW_NS)
        session.finish_forked_checkpoints()
        writer = inc1.forked_writer
        if speculative:
            validation = {
                "conflicts": sorted(
                    (c.kind, c.cut_version, c.live_version, c.nbytes)
                    for c in writer.conflicts
                ),
                "committed": writer.committed,
                "aborted": writer.aborted,
                "replayed_bytes": writer.replayed_bytes,
                "replay_time_ns": writer.replay_time_ns,
            }
        else:
            cow_time_ns = writer.cow_time_ns
    else:
        inc1 = session.checkpoint(incremental=True, parent=base, store=store)
    inc2 = session.checkpoint(incremental=True, parent=inc1, store=store)

    recorded = []
    for img in (base, inc1, inc2):
        record = img.blobs.get("crac/never-built")
        if record is not None and p in record.payload.uids:
            recorded.append("never-built")
        elif p in img.blob("crac/buffers"):
            recorded.append("entry")
        else:
            recorded.append(None)
    session.kill()
    report = session.restart_latest(store)
    restored = backend.device_view(p, SIZE).tobytes()
    session.kill()
    out = {
        "digest": zlib.crc32(restored),
        "refilled_bytes": report.refilled_bytes,
        "size_bytes": [img.size_bytes for img in (base, inc1, inc2)],
        "cow_time_ns": cow_time_ns,
        "recorded": tuple(recorded),
    }
    if validation is not None:
        out["validation"] = validation
    return out


#: per case, how the base, first and second incremental image record
#: the buffer; the same for every family
RECORDED = {
    "untouched": ("never-built",) * 3,
    "written-after-base": ("never-built", "entry", "entry"),
    "freed-reused": ("entry", "never-built", "never-built"),
    "memset-zero": ("entry",) * 3,
    "memset-nonzero": ("never-built", "entry", "entry"),
    "forked-window": ("never-built", "never-built", "entry"),
    "speculative-window": ("never-built", "never-built", "entry"),
}

#: recorded before buffers skipped their copy
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
                              'cow_time_ns': 165},
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
                                  'cow_time_ns': 165},
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
                                 'cow_time_ns': 165}}

#: recorded before buffers built their contents on first use
GOLDEN.update({
    f"{family}-speculative-window": {
        "digest": 138515425,
        "refilled_bytes": refilled,
        "size_bytes": [16973824, 4194304, 4096],
        "cow_time_ns": None,
        "validation": {
            "conflicts": [("buffer", 0, 1, 4096)],
            "committed": True,
            "aborted": False,
            "replayed_bytes": 4096,
            "replay_time_ns": 50410,
        },
    }
    for family, refilled in (
        ("cudaMalloc", 69632), ("cudaMallocHost", 0), ("cudaHostAlloc", 0),
    )
})


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("family", FAMILIES)
def test_pristine_rule_matches_recorded_cut(family, case):
    """A buffer holding a fresh allocation's bytes because it never built
    its contents copies nothing, and restores as if it had."""
    got = run_case(family, case)
    assert got.pop("recorded") == RECORDED[case]
    assert got == GOLDEN[f"{family}-{case}"]
