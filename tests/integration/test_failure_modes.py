"""Failure-mode fidelity (DESIGN.md §4): what must break, where, and how."""

import numpy as np
import pytest

from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.errors import (
    CudaError,
    ReplayDivergenceError,
    RestartError,
    UnsupportedFeatureError,
)
from repro.gpu.uvm import UVM_PAGE

FB = FatBinary("fm.fatbin", ("k",))


class TestAslrBreaksReplay:
    def test_replay_diverges_with_aslr_enabled(self):
        """§3.2.4: CRAC disables ASLR; a restart on an ASLR'd process
        cannot reproduce the original allocation addresses."""
        session = CracSession(seed=7)
        b = session.backend
        b.register_app_binary(FB)
        b.malloc(4096)
        image = session.checkpoint()
        session.kill()

        # Sabotage: build the fresh lower half with ASLR re-enabled.
        fresh = SplitProcess(seed=1234, load_upper=False)
        fresh.process.personality(0)  # re-enable ASLR
        fresh.process.vas.aslr = True
        log = image.blob("crac/replay-log")
        with pytest.raises(ReplayDivergenceError):
            log.replay(fresh.runtime)


class TestCorruptedImage:
    def test_restart_detects_missing_buffer(self):
        session = CracSession(seed=8)
        b = session.backend
        b.register_app_binary(FB)
        b.malloc(4096)
        image = session.checkpoint()
        session.kill()
        # Corrupt: truncate the replay log so the buffer never reappears.
        image.blob("crac/replay-log").records.clear()
        with pytest.raises(RestartError):
            session.restart(image)


class TestKernelWithoutReregistration:
    def test_fresh_library_rejects_unregistered_kernel(self):
        """§3.2.5: without fat-binary re-registration, launches fail on
        the fresh lower half."""
        split = SplitProcess(seed=9)
        from repro.cuda.interface import NativeBackend

        backend = NativeBackend(split.runtime)
        backend.register_app_binary(FB)
        backend.launch("k")
        # A fresh library (as after restart) without re-registration:
        fresh = SplitProcess(seed=9)
        fresh_backend = NativeBackend(fresh.runtime)
        with pytest.raises(CudaError, match="not registered"):
            fresh_backend.launch("k")


class TestLowerHalfClobber:
    def test_untracked_library_mmap_corrupts_upper_half_silently(self):
        """§3.2.2: if library allocations are NOT confined to the lower
        window (no loader interposition), they can land on upper-half
        pages and silently destroy them."""
        split = SplitProcess(seed=10)
        proc = split.process
        upper_addr = split.upper_mmap(8192)
        proc.vas.write(upper_addr, b"application state")
        # A rogue MAP_FIXED from library code that bypassed the loader:
        proc.vas.mmap(8192, addr=upper_addr, fixed=True, tag="lower:rogue-arena")
        # No exception — the corruption is silent...
        assert proc.vas.read(upper_addr, 17) == b"\0" * 17
        # ...but the model records it, and CRAC's design prevents it by
        # construction (the loader keeps lower mmaps inside the window).
        assert any(
            e.victim_tag.startswith("upper:") for e in proc.vas.clobber_events
        )

    def test_crac_loader_confines_library_mmaps(self):
        session = CracSession(seed=11)
        b = session.backend
        b.register_app_binary(FB)
        upper_addr = session.split.upper_mmap(8192)
        session.process.vas.write(upper_addr, b"application state")
        # Heavy allocation activity from the CUDA library:
        ptrs = [b.malloc(1 << 20) for _ in range(32)]
        p = b.malloc_managed(UVM_PAGE)
        assert session.process.vas.read(upper_addr, 17) == b"application state"
        assert not session.process.vas.clobber_events


class TestProxyLimits:
    def test_crcuda_cannot_run_uvm_app(self):
        from repro.apps import UnifiedMemoryStreams
        from repro.harness import run_app

        with pytest.raises(UnsupportedFeatureError):
            run_app(UnifiedMemoryStreams(scale=0.01), mode="crcuda", noise=False)

    def test_hypre_pattern_violates_crum(self):
        """HYPRE's host+device simultaneous UVM work across streams is
        exactly what CRUM's read-modify-write restriction forbids; CRAC
        runs it (tests/apps cover that)."""
        from repro.core.halves import SplitProcess
        from repro.cuda.api import ManagedUse
        from repro.proxy import CrumBackend

        split = SplitProcess(seed=12)
        crum = CrumBackend(split.runtime)
        crum.register_app_binary(FB)
        ptr = crum.malloc_managed(UVM_PAGE)
        s = crum.stream_create()
        crum.launch("k", duration_ns=5_000_000, stream=s,
                    managed=[ManagedUse(ptr, 0, UVM_PAGE, "w")])
        with pytest.raises(UnsupportedFeatureError):
            crum.managed_view(ptr, 64)  # host touch while kernel in flight


class TestRestoredMemoryIntegrity:
    def test_every_restored_byte_matches(self):
        """Exhaustive byte-level comparison of upper-half memory across
        a checkpoint/restart cycle."""
        session = CracSession(seed=13)
        b = session.backend
        b.register_app_binary(FB)
        rng = np.random.default_rng(3)
        writes = []
        for _ in range(20):
            addr = session.split.upper_mmap(16384)
            data = rng.bytes(1000)
            off = int(rng.integers(0, 15000))
            session.process.vas.write(addr + off, data)
            writes.append((addr + off, data))
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        for addr, data in writes:
            assert session.process.vas.read(addr, len(data)) == data
