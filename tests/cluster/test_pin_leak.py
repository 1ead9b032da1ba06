"""Regression: failed shipments must never leave pins behind.

Shipping pins every in-flight generation on the source so keep-N GC
cannot evict it mid-transfer. A shipment that *fails* (persistent link
faults exhaust the retry budget) will never be acknowledged — if its
pins leaked, every future checkpoint on that node would accrete
unreclaimable generations and the keep-N bound would be silently void.
These tests drive ``ship_chain`` and every ``LiveMigration`` phase into
``MigrationError`` over an all-drop link and require the source store
to come back pin-free with GC still bounding the generation count.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterNode,
    Interconnect,
    LiveMigration,
    ship_chain,
)
from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.errors import MigrationError

FB = FatBinary("pin.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N

#: every transfer forced to drop — retries can never succeed
DEAD_LINK = {i: "drop" for i in range(256)}


def make_session(node, job="job", seed=5):
    session = CracSession(gpu=node.gpu, seed=seed)
    node.adopt(job, session)
    session.backend.register_app_binary(FB)
    ptr = session.backend.malloc(NBYTES)
    session.backend.memcpy(ptr, np.arange(N, dtype=np.float32), NBYTES, "h2d")
    return session, ptr


def bump(session, ptr):
    def fn():
        view = session.backend.device_view(ptr, NBYTES, np.float32)
        np.add(view, 1.0, out=view)

    session.backend.launch("mutate", fn, duration_ns=50_000)
    session.backend.device_synchronize()


def test_failed_ship_chain_releases_all_pins():
    src, dst = ClusterNode("a"), ClusterNode("b")
    session, _ = make_session(src)
    session.checkpoint(store=src.store)
    with pytest.raises(MigrationError):
        ship_chain(src, dst, Interconnect(fault_plan=dict(DEAD_LINK)))
    assert src.store.pinned() == []


@pytest.mark.parametrize("fail_at", ["begin", "precopy", "cutover"])
def test_failed_migration_phase_releases_all_pins(fail_at):
    src, dst = ClusterNode("a"), ClusterNode("b")
    session, ptr = make_session(src)
    # The link dies only at the phase under test; earlier phases ship
    # cleanly so later ones have pinned state to leak.
    healthy = Interconnect()
    dead = Interconnect(fault_plan=dict(DEAD_LINK))
    mig = LiveMigration(session, src, dst, interconnect=healthy, job="job")
    if fail_at == "begin":
        mig.interconnect = dead
        with pytest.raises(MigrationError):
            mig.begin()
    else:
        mig.begin()
        bump(session, ptr)
        if fail_at == "precopy":
            mig.interconnect = dead
            with pytest.raises(MigrationError):
                mig.precopy_round()
        else:
            mig.precopy_round()
            bump(session, ptr)
            mig.interconnect = dead
            with pytest.raises(MigrationError):
                mig.cutover()
    assert mig.phase == "failed"
    assert src.store.pinned() == []
    # abort() after the automatic cleanup stays a no-op.
    mig.abort()
    assert src.store.pinned() == []


def test_keep_n_gc_stays_bounded_after_failed_migration():
    src, dst = ClusterNode("a"), ClusterNode("b")
    keep = src.store.keep_generations
    session, ptr = make_session(src)
    mig = LiveMigration(
        session, src, dst,
        interconnect=Interconnect(fault_plan=dict(DEAD_LINK)), job="job",
    )
    with pytest.raises(MigrationError):
        mig.begin()
    # With the pins released, keep-N GC must keep bounding the store no
    # matter how many checkpoints follow the failed migration.
    for _ in range(3 * keep):
        bump(session, ptr)
        session.checkpoint(store=src.store)
    assert len(src.store.generations) <= keep
    assert src.store.pinned() == []
