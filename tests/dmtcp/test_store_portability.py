"""Portable generation records: export/import across stores, integrity."""

import numpy as np
import pytest

from repro.cluster import ClusterNode, Interconnect, ship_chain
from repro.core.session import CracSession
from repro.cuda.api import FatBinary
from repro.dmtcp.image import CheckpointImage, SavedRegion
from repro.dmtcp.store import CheckpointStore
from repro.errors import CheckpointStoreError, CorruptCheckpointError
from tests.conftest import counted_calls

FB = FatBinary("portable.fatbin", ("mutate",))
N = 64
NBYTES = 4 * N


def make_session(seed=7):
    session = CracSession(seed=seed)
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


def chain_in_store(store, session, ptr):
    """Commit a full + incremental pair; returns the images."""
    bump(session, ptr)
    full = session.checkpoint(store=store)
    bump(session, ptr)
    inc = session.checkpoint(store=store, incremental=True, parent=full)
    return full, inc


class TestCrossStoreRoundTrip:
    def test_imported_chain_verifies_and_restores_bit_exact(self):
        a, b = CheckpointStore(), CheckpointStore()
        session, ptr = make_session()
        chain_in_store(a, session, ptr)
        records = a.export_chain(a.latest())
        assert len(records) == 2
        gens = b.import_chain(records)
        for gen in gens:
            b.verify(gen)
        session.kill()
        session.restart_latest(b)
        out = np.empty(N, dtype=np.float32)
        session.backend.memcpy(out, ptr, NBYTES, "d2h")
        assert np.array_equal(out, np.arange(N, dtype=np.float32) + 2.0)
        session.kill()

    def test_export_is_verified_on_the_source_first(self):
        a = CheckpointStore()
        session, ptr = make_session()
        bump(session, ptr)
        session.checkpoint(store=a)
        record = a.export_generation(a.latest())
        assert record["payload_crc"] > 0
        assert record["size_bytes"] > 0
        assert record["parent_generation"] is None
        session.kill()


class TestArrivalIntegrity:
    def _record(self):
        a = CheckpointStore()
        session, ptr = make_session()
        bump(session, ptr)
        session.checkpoint(store=a)
        record = a.export_generation(a.latest())
        session.kill()
        return record

    def test_wire_corruption_is_rejected_by_the_payload_crc(self):
        record = self._record()
        payload = bytearray(record["payload"])
        payload[len(payload) // 2] ^= 0xFF
        bad = {**record, "payload": bytes(payload)}
        b = CheckpointStore()
        with pytest.raises(CorruptCheckpointError):
            b.import_generation(bad)
        assert b.generations == []

    def test_region_checksum_tamper_is_rejected(self):
        record = self._record()
        tampered = dict(record["checksums"])
        first = sorted(tampered)[0]
        tampered[first] ^= 0xDEAD
        bad = {**record, "checksums": tampered}
        b = CheckpointStore()
        with pytest.raises(CorruptCheckpointError):
            b.import_generation(bad)

    def test_incremental_record_requires_its_parent(self):
        a, b = CheckpointStore(), CheckpointStore()
        session, ptr = make_session()
        chain_in_store(a, session, ptr)
        inc_record = a.export_generation(a.latest())
        assert inc_record["incremental"]
        with pytest.raises(CheckpointStoreError):
            b.import_generation(inc_record)
        session.kill()


class TestPortability:
    def test_payload_carries_no_parent_or_runtime_state(self):
        a = CheckpointStore()
        session, ptr = make_session()
        # Enough upper-half ballast that a full image dwarfs a delta.
        session.split.upper_mmap(256 << 10)
        full, _ = chain_in_store(a, session, ptr)
        records = a.export_chain(a.latest())
        full_rec, inc_rec = records
        # The incremental record ships without its ancestor's data: its
        # wire size is the delta, not the base, and the chain is
        # re-linked at import time by parent_generation ids.
        assert inc_rec["size_bytes"] < full_rec["size_bytes"]
        orphan = CheckpointImage.from_payload(inc_rec["payload"])
        assert orphan.parent is None
        assert orphan.incremental
        orphan_full = CheckpointImage.from_payload(full_rec["payload"])
        assert orphan_full.parent is None
        assert not orphan_full.incremental
        session.kill()


def three_long_chain(store):
    """Commit full → incremental → incremental, each holding upper-half
    bytes; returns the (killed) session."""
    session, ptr = make_session()
    ballast = session.split.upper_mmap(4096)
    session.process.vas.write(ballast, b"base bytes")
    full, inc = chain_in_store(store, session, ptr)
    session.process.vas.write(ballast, b"third cut")
    bump(session, ptr)
    session.checkpoint(store=store, incremental=True, parent=inc)
    session.kill()
    return session


def flip_first_byte(image):
    """Rot one byte of ``image``'s first region that holds any."""
    region = next(r for r in image.regions if r.pages)
    pg = min(region.pages)
    data = bytearray(region.pages[pg])
    data[0] ^= 0xFF
    region.pages[pg] = bytes(data)


class TestChainExport:
    def test_export_chain_checksums_each_region_once(self):
        a = CheckpointStore()
        three_long_chain(a)
        latest = a.latest()
        assert a.chain_generations(latest) == a.generations == [1, 2, 3]
        with counted_calls(SavedRegion, "checksum") as calls:
            records = a.export_chain(latest)
        checked = [region for (region,) in calls]
        regions = [r for g in a.generations for r in a.get(g).image.regions]
        assert len(checked) == len(regions)
        assert {id(r) for r in checked} == {id(r) for r in regions}
        assert [r["generation"] for r in records] == [1, 2, 3]
        assert records == [a.export_generation(g) for g in a.generations]

    def test_corrupt_ancestor_fails_export_chain_and_ship_chain(self):
        src, dst = ClusterNode("a"), ClusterNode("b")
        three_long_chain(src.store)
        flip_first_byte(src.store.get(1).image)
        with pytest.raises(CorruptCheckpointError, match="generation 1"):
            src.store.export_chain(src.store.latest())
        with pytest.raises(CorruptCheckpointError, match="generation 1"):
            ship_chain(src, dst, Interconnect())
        assert dst.store.generations == []
        assert src.store.pinned() == []


class TestExportMissing:
    def test_exports_only_the_missing_members_base_first(self):
        a = CheckpointStore()
        three_long_chain(a)
        latest = a.latest()
        for present, want in [((), [1, 2, 3]), ({1}, [2, 3]),
                              ({2}, [1, 3]), ({1, 2, 3}, [])]:
            records = a.export_missing(latest, present)
            assert [r["generation"] for r in records] == want
            assert records == [a.export_generation(g) for g in want]

    def test_corrupt_ancestor_raises_before_any_record(self, monkeypatch):
        a = CheckpointStore()
        three_long_chain(a)
        flip_first_byte(a.get(1).image)
        built = []
        original = CheckpointImage.export_payload

        def counting_export(image):
            built.append(image)
            return original(image)

        monkeypatch.setattr(CheckpointImage, "export_payload", counting_export)
        with pytest.raises(CorruptCheckpointError, match="generation 1"):
            a.export_missing(a.latest(), {1})
        assert built == []

    def test_verify_runs_once_per_call(self, monkeypatch):
        a = CheckpointStore()
        three_long_chain(a)
        verified = []
        original = CheckpointStore.verify

        def counting_verify(store, generation):
            verified.append(generation)
            return original(store, generation)

        monkeypatch.setattr(CheckpointStore, "verify", counting_verify)
        records = a.export_missing(a.latest(), {1})
        assert verified == [a.latest()]
        assert [r["generation"] for r in records] == [2, 3]


class TestPins:
    def test_pinned_generation_survives_keep_n_pressure(self):
        a = CheckpointStore(keep_generations=1)
        session, ptr = make_session()
        bump(session, ptr)
        session.checkpoint(store=a)
        first = a.latest()
        a.pin(first)
        for _ in range(3):
            bump(session, ptr)
            session.checkpoint(store=a)
        assert first in a.generations
        assert a.pinned() == [first]
        a.unpin(first)
        a.gc()
        assert first not in a.generations
        assert a.pinned() == []
        session.kill()


class TestWireForm:
    def test_flipped_stored_payload_fails_load_and_restart_falls_back(self):
        a, b = CheckpointStore(), CheckpointStore()
        session = three_long_chain(a)
        assert b.import_chain(a.export_chain(a.latest())) == [1, 2, 3]
        entry = b._generations[3]  # still in wire form: no image built
        assert entry.image is None
        flipped = bytearray(entry.payload)
        flipped[len(flipped) // 2] ^= 0xFF
        entry.payload = bytes(flipped)
        # The CRC, not unpickling or a region checksum, rejects it.
        with pytest.raises(
            CorruptCheckpointError, match="generation 3: stored payload"
        ):
            b.load()
        report = session.restart_latest(b)
        assert report.generation == 2
        assert [(t.generation, t.succeeded) for t in report.attempts] == [
            (3, False), (2, True),
        ]
        session.kill()


def owned_chain(store, generation):
    """``generation``'s restore chain by its images: ``image.chain()``
    filtered to the images ``store`` holds, as local ids."""
    owners = {id(store.get(g).image): g for g in store.generations}
    chain = store.get(generation).image.chain()
    return [owners[id(img)] for img in chain if id(img) in owners]


class TestChainLinks:
    def test_a_chain_crossing_stores_links_like_its_images(self):
        x = CheckpointStore()
        y = CheckpointStore(keep_generations=1)
        z = CheckpointStore(keep_generations=1)
        session, ptr = make_session()
        bump(session, ptr)
        base = session.checkpoint(store=x)
        # Two deltas on x's base go to y: y's chain starts past its base.
        bump(session, ptr)
        inc = session.checkpoint(store=y, incremental=True, parent=base)
        bump(session, ptr)
        session.checkpoint(store=y, incremental=True, parent=inc)
        # A failover: x's chain lands in z, which restores from it and
        # goes on cutting deltas on the imported image.
        z.import_chain(x.export_chain(x.latest()))
        session.kill()
        session.restart_latest(z)
        for _ in range(2):
            bump(session, ptr)
            session.checkpoint(
                store=z, incremental=True, parent=z.get(z.latest()).image
            )
        for store, want in ((y, [1, 2]), (z, [1, 2, 3])):
            assert store.chain_generations(store.latest()) == want
            for gen in store.generations:
                assert store.chain_generations(gen) == owned_chain(store, gen)
        # keep-1 GC keeps exactly the newest generation's chain.
        bump(session, ptr)
        session.checkpoint(store=y)  # a new base on y: its old chain goes
        session.checkpoint(
            store=z, incremental=True, parent=z.get(z.latest()).image
        )
        assert y.generations == owned_chain(y, y.latest()) == [3]
        assert z.generations == owned_chain(z, z.latest()) == [1, 2, 3, 4]
        session.kill()
