"""Address virtualization — the first of §3.2.4's three future-work
optimizations, implemented: the application holds stable virtual
pointers and restart no longer depends on allocator determinism, ASLR,
or the same-platform requirement."""

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary, ManagedUse
from repro.gpu.uvm import UVM_PAGE

FB = FatBinary("av.fatbin", ("k",))


def make_session(**kw):
    session = CracSession(seed=141, address_virtualization=True, **kw)
    session.backend.register_app_binary(FB)
    return session


class TestVirtualPointers:
    def test_app_sees_virtual_range(self):
        session = make_session()
        p = session.backend.malloc(4096)
        assert p >= session.backend.VIRT_BASE
        assert p not in session.runtime.allocations  # not the real address

    def test_data_path_translates(self):
        session = make_session()
        b = session.backend
        p = b.malloc(1024)
        data = np.arange(256, dtype=np.float32)
        b.memcpy(p, data, data.nbytes, "h2d")
        out = np.zeros_like(data)
        b.memcpy(out, p, out.nbytes, "d2h")
        np.testing.assert_array_equal(out, data)

    def test_views_translate(self):
        session = make_session()
        b = session.backend
        p = b.malloc(64)
        b.device_view(p, 8)[:] = np.frombuffer(b"virtdata", np.uint8)
        assert b.device_view(p, 8).tobytes() == b"virtdata"

    def test_managed_translates(self):
        session = make_session()
        b = session.backend
        p = b.malloc_managed(UVM_PAGE)
        v = b.managed_view(p, 16, np.float32)
        v[:] = 2.5
        b.launch("k", managed=[ManagedUse(p, 0, UVM_PAGE, "rw")])
        b.device_synchronize()
        assert np.all(b.managed_view(p, 16, np.float32) == 2.5)

    def test_free_through_virtual_pointer(self):
        session = make_session()
        b = session.backend
        p = b.malloc(64)
        b.free(p)  # must translate and unmap the binding

    def test_pointer_attributes_translate(self):
        session = make_session()
        b = session.backend
        p = b.malloc_managed(UVM_PAGE)
        assert b.pointer_get_attributes(p)["type"] == "managed"


class TestVirtualizedRestart:
    def test_restart_survives_divergent_replay(self):
        """Make the replayed allocations land at *different* real
        addresses (an alloc/free hole the fresh allocator fills
        differently is simulated by pre-touching the fresh arena):
        baseline CRAC would raise ReplayDivergenceError; virtualization
        patches the pointer table and continues."""
        session = make_session()
        b = session.backend
        p = b.malloc(256)
        b.device_view(p, 8)[:] = np.frombuffer(b"survives", np.uint8)
        old_real = b._to_real(p)
        image = session.checkpoint()
        session.kill()

        # Divert the fresh allocator: allocate a block before the replay
        # runs so the replayed malloc cannot land at its original spot.
        from repro.core.halves import SplitProcess as _SP

        original_init = _SP.__init__

        def diverted_init(self_sp, **kw):
            original_init(self_sp, **kw)
            if not kw.get("load_upper", True):
                self_sp.runtime.cudaMalloc(4096)  # occupies the old slot

        _SP.__init__ = diverted_init
        try:
            report = session.restart(image)
        finally:
            _SP.__init__ = original_init
        # The virtual pointer still resolves, now to a moved real address.
        assert b.device_view(p, 8).tobytes() == b"survives"
        assert b._to_real(p) != old_real
        assert report.replayed_calls >= 1

    def test_cross_platform_restart_allowed_with_virtualization(self):
        """The same-platform requirement disappears: a V100 image
        restarts on a K600 node (capacity permitting)."""
        session = make_session(gpu="V100")
        b = session.backend
        p = b.malloc(256)
        b.device_view(p, 4)[:] = np.frombuffer(b"xGPU", np.uint8)
        image = session.checkpoint()
        session.kill()

        other = CracSession(seed=150, gpu="K600", address_virtualization=True)
        # Carry the application's handle table over (same app process).
        other.backend.fatbin_registry = session.backend.fatbin_registry
        other.backend._v2r = session.backend._v2r
        other.backend.live_streams = session.backend.live_streams
        other.backend.live_events = session.backend.live_events
        other.restart(image)
        assert other.backend.device_view(p, 4).tobytes() == b"xGPU"

    def test_baseline_still_rejects_cross_platform(self):
        session = CracSession(seed=151, gpu="V100")
        session.backend.register_app_binary(FB)
        session.backend.malloc(64)
        image = session.checkpoint()
        session.kill()
        other = CracSession(seed=152, gpu="K600")
        from repro.errors import RestartError

        with pytest.raises(RestartError, match="platform mismatch"):
            other.restart(image)

    def test_virtualized_full_cycle_content_exact(self):
        session = make_session()
        b = session.backend
        ptrs = [b.malloc(128) for _ in range(6)]
        for i, p in enumerate(ptrs):
            b.device_view(p, 16, np.float32)[:] = float(i)
        b.free(ptrs[3])
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        for i, p in enumerate(ptrs):
            if i == 3:
                continue
            v = session.backend.device_view(p, 16, np.float32)
            np.testing.assert_array_equal(v, np.full(4, float(i), np.float32))
