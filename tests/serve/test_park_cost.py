"""What one park → ship → rehydrate cycle costs the simulator on the host.

Virtual results are pinned elsewhere (the serve bench suite and
``test_scheduler.py``); these tests pin the host side deterministically:
a shadow ship exports only the generations its buddy lacks, a replaced
process is freed by reference counting alone, and one park plus one
rehydration stays within a fixed budget of Python-level calls.
"""

import weakref

from repro.dmtcp.store import CheckpointStore
from repro.serve import SessionPool, ServeScheduler
from tests.conftest import python_calls

#: Python-level calls one request to a parked session may make when it
#: parks the node's other session and rehydrates this one: 1,043 plus
#: 5% (2,578 while every ship re-exported the whole chain, the entry
#: table took 37 writes and placement re-sliced the region list per
#: probe; 1,702 while every restart loaded the helper again and restore
#: mapped each chain link's regions one at a time)
PARK_REHYDRATE_CALL_BUDGET = 1095


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

    def counting_record(self, generation, owners):
        exported.append((id(self), generation))
        return original(self, generation, owners)

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
