"""Tests for checkpoint-image serialization and integrity checking."""

import pickle

import pytest

from repro.dmtcp import CheckpointImage, DmtcpCheckpointer
from repro.errors import CheckpointError, CorruptCheckpointError
from repro.linux import PAGE_SIZE, SimProcess


def make_image():
    proc = SimProcess(aslr=False, seed=51)
    a = proc.vas.mmap(4 * PAGE_SIZE, tag="upper:data")
    proc.vas.write(a, b"persist me")
    image = DmtcpCheckpointer(proc).checkpoint()
    return proc, a, image


class TestChecksum:
    def test_checksum_stable(self):
        _, _, image = make_image()
        assert image.content_checksum() == image.content_checksum()

    def test_checksum_changes_with_content(self):
        _, _, image = make_image()
        before = image.content_checksum()
        image.regions[0].pages[0] = b"\x00" * PAGE_SIZE
        assert image.content_checksum() != before

    def test_verify_requires_seal(self):
        _, _, image = make_image()
        assert not image.verify()
        image.seal()
        assert image.verify()


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        proc, a, image = make_image()
        path = tmp_path / "job.dmtcp"
        nbytes = image.save(path)
        assert nbytes > 0
        loaded = CheckpointImage.load(path)
        assert loaded.pid == image.pid
        assert loaded.regions[0].pages[0][:10] == b"persist me"

    def test_restore_from_loaded_image(self, tmp_path):
        proc, a, image = make_image()
        path = tmp_path / "job.dmtcp"
        image.save(path)
        loaded = CheckpointImage.load(path)
        fresh = SimProcess(aslr=False)
        DmtcpCheckpointer(proc).restore_memory(loaded, fresh)
        assert fresh.vas.read(a, 10) == b"persist me"

    def test_corrupt_file_rejected(self, tmp_path):
        _, _, image = make_image()
        path = tmp_path / "job.dmtcp"
        image.save(path)
        # Corrupt the payload in a way that survives unpickling: flip a
        # saved page in a re-pickled copy.
        loaded = pickle.loads(path.read_bytes())
        loaded.regions[0].pages[0] = b"\xff" * PAGE_SIZE
        path.write_bytes(pickle.dumps(loaded))
        with pytest.raises(CorruptCheckpointError, match="checksum"):
            CheckpointImage.load(path)

    def test_non_image_file_rejected(self, tmp_path):
        path = tmp_path / "junk.dmtcp"
        path.write_bytes(pickle.dumps({"not": "an image"}))
        with pytest.raises(CheckpointError, match="not a checkpoint image"):
            CheckpointImage.load(path)

    def test_unreadable_file_rejected(self, tmp_path):
        path = tmp_path / "torn.dmtcp"
        path.write_bytes(b"not a pickle")
        with pytest.raises(CheckpointError, match="does not deserialize"):
            CheckpointImage.load(path)

    def test_crac_session_image_roundtrips(self, tmp_path):
        from repro.core import CracSession
        from repro.cuda.api import FatBinary

        session = CracSession(seed=53)
        session.backend.register_app_binary(FatBinary("f.fatbin", ("k",)))
        p = session.backend.malloc(128)
        image = session.checkpoint()
        path = tmp_path / "crac.dmtcp"
        image.save(path)
        loaded = CheckpointImage.load(path)
        session.kill()
        session.restart(loaded)
        assert p in session.runtime.allocations

    def test_pickle_keeps_every_persisted_field(self):
        proc, a, image = make_image()
        image.seal()
        image.record_region_capture(proc.vas.find(a), frozenset({0}), 1)
        image.sync_hook = print
        copy = pickle.loads(pickle.dumps(image))
        # Equality compares every field but the runtime-only ones.
        assert copy == image and copy.sealed_checksum is not None
        assert (copy.region_captures, copy.sync_hook) == ([], None)
