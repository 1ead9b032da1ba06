"""What one park → ship → rehydrate cycle costs the simulator on the host.

Virtual results are pinned elsewhere (the serve bench suite and
``test_scheduler.py``); these tests pin the host side deterministically:
a shadow ship exports only the generations its buddy lacks and builds
no image there until a load reads the shadow, a replaced
process is freed by reference counting alone, one park plus one
rehydration stays within a fixed budget of Python-level calls, and an
image's pickle round trip leaves the cycle collector little to track.
"""

import weakref

import pytest

from repro.dmtcp.image import CheckpointImage
from repro.dmtcp.store import CheckpointStore
from repro.serve import SessionPool, ServeScheduler
from tests.conftest import counted_calls, python_calls, tracked_objects

#: Python-level calls one request to a parked session may make when it
#: parks the node's other session and rehydrates this one: 972 plus
#: 5% (2,578 while every ship re-exported the whole chain, the entry
#: table took 37 writes and placement re-sliced the region list per
#: probe; 1,702 while every restart loaded the helper again and restore
#: mapped each chain link's regions one at a time; 1,040 while every
#: shadow import unpickled its record and re-checksummed each region)
PARK_REHYDRATE_CALL_BUDGET = 1020

#: GC-tracked objects one image's payload round trip may leave beyond
#: one per region and blob: the image, its region list and blob table,
#: the replay log and its record list, and the dicts of its buffer table
#: (11 in a serve image; 13 while an image kept two empty capture lists,
#: 30 while each record unpickled an instance ``__dict__`` and each
#: snapshot span a numpy array)
ROUND_TRIP_TRACKED_EXTRA = 12


def make_tier():
    """Two one-slot nodes and three sessions: ``a`` and ``c`` share
    ``serve0`` and evict each other, ``b`` stays hot on ``serve1``."""
    pool = SessionPool(2, slots=1, seed=3)
    sched = ServeScheduler(pool, seed=3, state_elems=32)
    for sid in ("a", "b", "c"):
        sched.open_session(sid)
    return pool, sched


def test_parks_export_each_new_generation_once(monkeypatch):
    pool, sched = make_tier()
    assert sched.records["a"].state == "parked"
    assert (pool.shipped_records, pool.shipped_bytes) == (4, 50_725_248)
    committed_before = {
        sid: set(rec.store.generations) for sid, rec in sched.records.items()
    }
    exported = []
    original = CheckpointStore._record

    def counting_record(self, generation):
        exported.append((id(self), generation))
        return original(self, generation)

    monkeypatch.setattr(CheckpointStore, "_record", counting_record)
    for sid in ("a", "c") * 6:
        sched.handle_request(sid)

    a = sched.records["a"]
    assert a.parks == 7 and a.node.name == "serve0"
    assert pool.buddy(a.node).name == "serve1"
    new_generations = sorted(
        (id(rec.store), gen)
        for sid, rec in sched.records.items()
        for gen in rec.store.generations
        if gen not in committed_before[sid]
    )
    assert sorted(exported) == new_generations
    assert len(exported) == 12
    assert (pool.shipped_records, pool.shipped_bytes) == (16, 84_543_232)
    shadows = {
        node.name: {sid: store.generations for sid, store in node.shadows.items()}
        for node in pool.nodes
    }
    assert shadows == {
        "serve0": {"b": [1]},
        "serve1": {"a": [1, 2, 3, 4, 5, 6, 7, 8], "c": [1, 2, 3, 4, 5, 6, 7]},
    }


def test_a_ship_builds_no_image_until_a_load_reads_the_shadow():
    pool, sched = make_tier()
    for sid in ("a", "c") * 2:  # warm: incremental parks on both
        sched.handle_request(sid)
    with counted_calls(CheckpointImage, "from_payload") as built:
        sched.handle_request("a")  # parks c: ships its newest link
    c = sched.records["c"]
    assert c.state == "parked"
    assert built == []
    shadow = pool.buddy(c.node).shadows["c"]
    chain = shadow.chain_generations(shadow.latest())
    assert len(chain) > 1
    with counted_calls(CheckpointImage, "from_payload") as built:
        image = shadow.load()
    assert len(built) == len(chain)
    assert len(image.chain()) == len(chain)
    with counted_calls(CheckpointImage, "from_payload") as built:
        assert shadow.load() is image
    assert built == []


@pytest.mark.parametrize("loaded", [False, True])
def test_a_dropped_shadow_is_freed_by_reference_counting(
    no_cycle_collector, loaded
):
    pool, _ = make_tier()
    node = pool.shadow_home("a")
    shadow = node.shadows["a"]
    if loaded:  # its images built, each linked to its parent
        shadow.load()
    ref = weakref.ref(shadow)
    del shadow
    pool.drop_shadow("a", node)
    assert ref() is None


def test_rehydrate_frees_the_parked_process(no_cycle_collector):
    pool, sched = make_tier()
    a, c = sched.records["a"], sched.records["c"]
    sched.handle_request("a")  # rehydrates a, parks c
    assert c.state == "parked"
    a_ref = weakref.ref(a.session.split)
    c_ref = weakref.ref(c.session.split)
    sched.handle_request("c")  # parks a, rehydrates c
    assert a.state == "parked" and c.state == "hot"
    assert c_ref() is None
    sched.handle_request("a")  # parks c, rehydrates a
    assert a_ref() is None


def test_park_plus_rehydrate_stays_within_call_budget():
    pool, sched = make_tier()
    for sid in ("a", "c") * 2:  # warm: incremental parks on both
        sched.handle_request(sid)
    assert sched.records["a"].state == "parked"
    _, calls = python_calls(sched.handle_request, "a")
    assert sched.records["a"].state == "hot"
    assert sched.records["c"].state == "parked"
    assert calls <= PARK_REHYDRATE_CALL_BUDGET, calls


def test_image_round_trip_tracks_one_object_per_record():
    _, sched = make_tier()
    for sid in ("a", "c") * 2:  # an incremental park on top of the base
        sched.handle_request(sid)
    store = sched.records["a"].store
    image = store.load(store.latest())
    assert image.incremental
    payload = image.export_payload()
    copy, tracked = tracked_objects(
        CheckpointImage.from_payload, payload, parent=image.parent
    )
    assert copy.regions == image.regions
    assert repr(copy.blobs) == repr(image.blobs)
    records = [copy, copy.blob("crac/replay-log"), *copy.regions, *copy.blobs.values()]
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    per_record = len(copy.regions) + len(copy.blobs)
    assert tracked <= per_record + ROUND_TRIP_TRACKED_EXTRA, (tracked, per_record)
