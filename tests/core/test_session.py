"""End-to-end CRAC session tests: checkpoint → kill → restart."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import CracSession
from repro.cuda.api import FatBinary, ManagedUse
from repro.gpu.uvm import UVM_PAGE

FB = FatBinary("app.fatbin", ("scale", "k"))


@pytest.fixture
def session():
    return CracSession(seed=8)


def run_app_phase1(session):
    """Allocate, compute, leave state on the device and in managed memory."""
    b = session.backend
    b.register_app_binary(FB)
    state = {}
    state["dev"] = b.malloc(4 * 256)
    x = np.arange(256, dtype=np.float32)
    b.memcpy(state["dev"], x, x.nbytes, "h2d")
    view = b.device_view(state["dev"], 4 * 256, np.float32)
    b.launch("scale", lambda: view.__imul__(2.0))

    state["managed"] = b.malloc_managed(UVM_PAGE)
    mv = b.managed_view(state["managed"], 4 * 16, np.float32)
    mv[:] = 7.0
    b.launch(
        "k",
        lambda: None,
        managed=[ManagedUse(state["managed"], 0, UVM_PAGE, "rw")],
    )

    state["pinned"] = b.malloc_host(1024)
    b.device_view(state["pinned"], 5)[:] = np.frombuffer(b"hello", np.uint8)
    state["hostalloc"] = b.host_alloc(2048)
    b.device_view(state["hostalloc"], 5)[:] = np.frombuffer(b"world", np.uint8)

    state["stream"] = b.stream_create()
    b.device_synchronize()
    state["expect_dev"] = (x * 2.0).copy()
    return state


class TestCheckpoint:
    def test_checkpoint_excludes_lower_half(self, session):
        run_app_phase1(session)
        image = session.checkpoint()
        for region in image.regions:
            assert not region.tag.startswith("lower:")

    def test_checkpoint_stages_active_buffers(self, session):
        state = run_app_phase1(session)
        image = session.checkpoint()
        buffers = image.blob("crac/buffers")
        assert state["dev"] in buffers
        assert state["managed"] in buffers
        assert state["pinned"] in buffers
        assert state["hostalloc"] in buffers

    def test_checkpoint_size_counts_buffers_not_arenas(self, session):
        """§3.2.3: only active mallocs are saved, not the 64 MB arenas."""
        run_app_phase1(session)
        image = session.checkpoint()
        assert image.blob_bytes < 1 << 20  # few KB of buffers, no arena

    def test_checkpoint_time_recorded(self, session):
        run_app_phase1(session)
        image = session.checkpoint()
        assert image.checkpoint_time_ns > 0

    def test_checkpoint_drains_pending_work(self, session):
        b = session.backend
        b.register_app_binary(FB)
        b.launch("k", duration_ns=50_000_000)  # 50 ms of device work
        t0 = session.process.clock_ns
        session.checkpoint()
        assert session.process.clock_ns - t0 >= 50_000_000


class TestRestart:
    def test_full_cycle_restores_all_contents(self, session):
        state = run_app_phase1(session)
        image = session.checkpoint()
        session.kill()
        report = session.restart(image)
        b = session.backend

        dev = b.device_view(state["dev"], 4 * 256, np.float32)
        np.testing.assert_array_equal(dev, state["expect_dev"])
        mv = b.managed_view(state["managed"], 4 * 16, np.float32)
        np.testing.assert_array_equal(mv, np.full(16, 7.0, np.float32))
        assert b.device_view(state["pinned"], 5).tobytes() == b"hello"
        assert b.device_view(state["hostalloc"], 5).tobytes() == b"world"
        assert report.replayed_calls > 0

    def test_restart_restores_upper_memory(self, session):
        upper = session.split.upper_mmap(8192)
        session.process.vas.write(upper, b"app state survives")
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        assert session.process.vas.read(upper, 18) == b"app state survives"

    def test_app_continues_after_restart(self, session):
        state = run_app_phase1(session)
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        b = session.backend
        # Continue computing with the same pointers and handles.
        view = b.device_view(state["dev"], 4 * 256, np.float32)
        b.launch("scale", lambda: view.__imul__(10.0), stream=state["stream"])
        b.device_synchronize()
        np.testing.assert_array_equal(
            b.device_view(state["dev"], 4 * 256, np.float32),
            state["expect_dev"] * 10.0,
        )

    def test_restart_reregisters_fatbins(self, session):
        run_app_phase1(session)
        image = session.checkpoint()
        session.kill()
        report = session.restart(image)
        assert report.reregistered_fatbins >= 1
        session.backend.launch("k")  # would fail if not re-registered

    def test_restart_adopts_streams(self, session):
        state = run_app_phase1(session)
        image = session.checkpoint()
        session.kill()
        report = session.restart(image)
        assert report.adopted_streams == 1
        assert state["stream"].sid in session.runtime.streams

    def test_virtual_time_monotone_across_restart(self, session):
        run_app_phase1(session)
        t_before = session.process.clock_ns
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        assert session.process.clock_ns >= t_before

    def test_malloc_after_restart_works(self, session):
        run_app_phase1(session)
        image = session.checkpoint()
        session.kill()
        session.restart(image)
        p = session.backend.malloc(64)
        assert p in session.runtime.allocations

    def test_second_checkpoint_after_restart(self, session):
        state = run_app_phase1(session)
        image1 = session.checkpoint()
        session.kill()
        session.restart(image1)
        image2 = session.checkpoint()
        session.kill()
        session.restart(image2)
        dev = session.backend.device_view(state["dev"], 4 * 256, np.float32)
        np.testing.assert_array_equal(dev, state["expect_dev"])

    def test_old_image_without_pcie_bytes_charges_resident_pages(self):
        """Images written before entries carried ``pcie_bytes`` must fall
        back to the old accounting: device-resident managed pages cross
        PCIe at refill time, not zero bytes."""
        session = CracSession(seed=8)
        b = session.backend
        b.register_app_binary(FB)
        mgd = b.malloc_managed(4 * UVM_PAGE)
        b.launch(
            "k", lambda: None, managed=[ManagedUse(mgd, 0, 4 * UVM_PAGE, "w")]
        )
        b.device_synchronize()
        image = session.checkpoint()
        entry = image.blob("crac/buffers")[mgd]
        resident = int((entry["residency"] == 1).sum())
        assert resident == 4
        del entry["pcie_bytes"]  # simulate the old on-disk entry format

        session.kill()
        report = session.restart(image)
        assert report.refilled_bytes >= resident * UVM_PAGE

    @pytest.mark.parametrize("chain", ["full", "full-incremental"])
    def test_restart_steps_sum_to_restart_time(self, session, chain):
        """The per-step split of a restart covers it exactly, and the
        restart trace span carries the same split."""
        tracer = session.enable_trace()
        state = run_app_phase1(session)
        image = session.checkpoint()
        if chain == "full-incremental":
            session.backend.device_view(state["dev"], 16)[:] = 1
            image = session.checkpoint(incremental=True, parent=image)
        session.kill()
        r = session.restart(image)
        steps = {
            "bootstrap_ns": r.bootstrap_ns,
            "replay_ns": r.replay_ns,
            "fatbin_ns": r.fatbin_ns,
            "refill_ns": r.refill_ns,
            "adopt_ns": r.adopt_ns,
        }
        assert all(v > 0 for v in steps.values()), steps
        assert (
            r.bootstrap_ns + r.replay_ns + r.fatbin_ns + r.refill_ns
            + r.adopt_ns
        ) == r.restart_time_ns
        (span,) = [s for s in tracer.spans if s.name == "restart"]
        assert {k: v for k, v in span.args if k in steps} == steps

    def test_restart_time_grows_with_log_length(self):
        """Streamcluster/Heartwall behaviour: many mallocs/frees ⇒ restart
        slower than checkpoint (§4.4.1)."""

        def cycle(n_allocs):
            s = CracSession(seed=3)
            b = s.backend
            b.register_app_binary(FB)
            for _ in range(n_allocs):
                p = b.malloc(4096)
                b.free(p)
            img = s.checkpoint()
            s.kill()
            return s.restart(img).restart_time_ns

        assert cycle(2000) > cycle(10)


class TestResumeAfterCheckpoint:
    def test_process_continues_without_restart(self, session):
        """Checkpoint-and-continue (resume) must not disturb the app."""
        state = run_app_phase1(session)
        session.checkpoint()
        b = session.backend
        view = b.device_view(state["dev"], 4 * 256, np.float32)
        b.launch("scale", lambda: view.__imul__(3.0))
        b.device_synchronize()
        np.testing.assert_array_equal(
            b.device_view(state["dev"], 4 * 256, np.float32),
            state["expect_dev"] * 3.0,
        )


@pytest.mark.parametrize("cuts", ["none", "forked", "speculative", "restart"])
def test_finished_session_is_freed_by_reference_counting(cuts):
    """No reference cycle holds a session: once the last outside reference
    goes, it and its runtime are freed at once, without waiting for the
    cycle collector (which would keep finished sessions' logs and
    buffers alive until its next pass)."""
    from repro.dmtcp.store import CheckpointStore

    gc.collect()
    gc.disable()
    try:
        session = CracSession(seed=8)
        run_app_phase1(session)
        store = CheckpointStore()
        base = None
        if cuts != "none":
            base = session.checkpoint(store=store)
            if cuts == "restart":
                session.kill()
                session.restart_latest(store)
            else:
                session.checkpoint(store=store, incremental=True, parent=base,
                                   **{cuts: True})
                session.finish_forked_checkpoints()
        refs = [weakref.ref(session), weakref.ref(session.runtime)]
        del session, store, base
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
