"""GPU delta chains: restoring base+deltas must equal a full restore.

The plugin stages only dirtied device/UVM spans into incremental
images; restart walks the image chain and stacks the deltas onto the
replay-created buffer. These tests pin the equivalence against a full
checkpoint taken at the same instant, and the uid guard that stops a
recycled arena address from inheriting a dead buffer's bytes.
"""

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.store import CheckpointStore


@pytest.fixture
def session():
    s = CracSession(seed=31)
    s.backend.register_app_binary(FatBinary("delta.fatbin", ("k",)))
    return s


class TestChainEquivalence:
    def test_chain_restore_matches_full_restore(self, session):
        chain_store = CheckpointStore()
        full_store = CheckpointStore()

        dev = session.backend.malloc(64 * 1024)
        mgd = session.backend.malloc_managed(32 * 1024)
        session.backend.device_view(dev, 64 * 1024)[:] = 1
        session.backend.managed_view(mgd, 32 * 1024)[:] = 2

        base = session.checkpoint(store=chain_store)

        session.backend.device_view(dev, 4096, offset=8192)[:] = 3
        inc1 = session.checkpoint(
            incremental=True, parent=base, store=chain_store
        )

        session.backend.device_view(dev, 100, offset=60000)[:] = 4
        session.backend.managed_view(mgd, 256, offset=1024)[:] = 5
        inc2 = session.checkpoint(
            incremental=True, parent=inc1, store=chain_store
        )
        # Same instant, no further mutation: a full image for reference.
        session.checkpoint(store=full_store)

        want_dev = session.backend.device_view(dev, 64 * 1024).tobytes()
        want_mgd = session.backend.managed_view(mgd, 32 * 1024).tobytes()

        # The incremental entries really are deltas, not full snapshots.
        entry = inc2.blob("crac/buffers")[dev]
        assert entry["delta"] and not entry["snapshot"]["whole"]
        assert entry["image_bytes"] < 64 * 1024

        session.kill()
        session.restart_latest(chain_store)
        assert session.backend.device_view(dev, 64 * 1024).tobytes() == want_dev
        assert session.backend.managed_view(mgd, 32 * 1024).tobytes() == want_mgd

        session.kill()
        session.restart_latest(full_store)
        assert session.backend.device_view(dev, 64 * 1024).tobytes() == want_dev
        assert session.backend.managed_view(mgd, 32 * 1024).tobytes() == want_mgd

    def test_untouched_buffer_restores_from_base_of_chain(self, session):
        store = CheckpointStore()
        dev = session.backend.malloc(4096)
        session.backend.device_view(dev, 4096)[:] = 9
        base = session.checkpoint(store=store)
        # Three cuts that never touch `dev` again.
        prev = base
        for _ in range(3):
            prev = session.checkpoint(
                incremental=True, parent=prev, store=store
            )
        session.kill()
        session.restart_latest(store)
        assert session.backend.device_view(dev, 4096).tobytes() == b"\x09" * 4096


class TestRestoreCopiesSnapshot:
    def test_restarting_twice_reads_the_cuts_bytes(self, session):
        store = CheckpointStore()
        dev = session.backend.malloc(4096)
        session.backend.device_view(dev, 4096)[:] = 7
        base = session.checkpoint(store=store)
        session.backend.device_view(dev, 256, offset=1024)[:] = 9
        inc = session.checkpoint(incremental=True, parent=base, store=store)
        for image in (base, inc):
            spans = image.blob("crac/buffers")[dev]["snapshot"]["spans"]
            assert spans and {type(s) for s in spans.values()} == {bytes}
        full = b"\x07" * 4096
        for image, want in ((base, full), (inc, full[:1024] + b"\x09" * 256 + full[1280:])):
            for _ in range(2):
                session.kill()
                session.restart(image)
                assert session.backend.device_view(dev, 4096).tobytes() == want
                # Writes to the restored buffer must not reach the image.
                session.backend.device_view(dev, 4096)[:] = 5


class TestUidGuard:
    def test_recycled_address_does_not_inherit_stale_bytes(self, session):
        """free(A) then malloc(B) reuses A's arena address. B's delta
        must stack onto B's fresh zero-filled replay buffer, never onto
        A's bytes from the base image."""
        store = CheckpointStore()
        a = session.backend.malloc(8192)
        session.backend.device_view(a, 8192)[:] = 0xAA
        base = session.checkpoint(store=store)

        session.backend.free(a)
        b = session.backend.malloc(8192)
        assert b == a, "arena should recycle the freed address"
        # Touch only the first 256 bytes of B.
        session.backend.device_view(b, 256)[:] = 0xBB
        inc = session.checkpoint(incremental=True, parent=base, store=store)

        uid_a = base.blob("crac/buffers")[a]["uid"]
        uid_b = inc.blob("crac/buffers")[b]["uid"]
        assert uid_a != uid_b

        session.kill()
        session.restart_latest(store)
        got = session.backend.device_view(b, 8192).tobytes()
        assert got[:256] == b"\xbb" * 256
        assert got[256:] == b"\x00" * (8192 - 256), (
            "recycled address leaked the dead buffer's bytes through "
            "the delta chain"
        )
