"""The never-built record accounts cuts and restarts exactly like
per-address entries.

The reference model is the staging and refill chain walk the record
replaced: a cut stages one entry per live allocation (a never-built one
copies nothing), and restart walks every entry's delta run. A twin
session runs the model. Hypothesis drives both sessions through the same
steps: device, pinned and managed allocations, writes, zero memsets,
frees, cuts in every mode, and ``kill`` plus ``restart_latest``. After
every step the two must agree bit for bit: each image's
``crac/buffers`` accounted bytes, each cut's stage charge, each
restart's refilled bytes and time, each background write's
copy-on-write and validation charge, the process clocks and every live
buffer's bytes.
"""

import zlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import CracSession
from repro.core.plugin import CracPlugin, _resident_dirty_bytes
from repro.dmtcp.checkpointer import Cut
from repro.dmtcp.store import CheckpointStore
from repro.gpu.memory import DeviceBuffer
from repro.gpu.timing import NS_PER_S
from repro.gpu.uvm import UVM_PAGE, ManagedBuffer

# -- the reference model: one entry per live allocation ----------------------


class ReferencePlugin(CracPlugin):
    """Stages every live allocation as its own ``crac/buffers`` entry."""

    def _capture_buffers(self, image, runtime, tracer) -> None:
        delta = image.incremental
        buffers: dict[int, dict] = {}
        drain_bytes = 0
        image_bytes_total = 0
        captures = image.contents_captures
        for buf in runtime.active_allocations():
            is_managed = isinstance(buf, ManagedBuffer)
            if not is_managed and buf.unbuilt is not None:  # never built
                image_bytes = 0 if delta else buf.size
                pcie_bytes = image_bytes if buf.kind == "device" else 0
                drain_bytes += pcie_bytes
                image_bytes_total += image_bytes
                buffers[buf.addr] = {
                    "kind": buf.kind, "size": buf.size, "uid": buf.uid,
                    "delta": delta, "snapshot": None,
                    "image_bytes": image_bytes, "pcie_bytes": pcie_bytes,
                }
                captures.append((buf, (), buf.write_seq))
                continue
            contents = buf.contents
            kind = "managed" if is_managed else buf.kind
            dirty_spans = tuple(contents.dirty_spans())
            entry = {
                "kind": kind, "size": buf.size, "uid": buf.uid,
                "delta": delta,
                "snapshot": (
                    contents.dirty_snapshot() if delta else contents.snapshot()
                ),
                "image_bytes": contents.dirty_byte_count if delta else buf.size,
            }
            if is_managed:
                entry["residency"] = buf.residency.copy()
                entry["pcie_bytes"] = (
                    _resident_dirty_bytes(buf)
                    if delta
                    else int((buf.residency == 1).sum()) * UVM_PAGE
                )
            elif kind == "device":
                entry["pcie_bytes"] = entry["image_bytes"]
            else:
                entry["pcie_bytes"] = 0
            drain_bytes += entry["pcie_bytes"]
            image_bytes_total += entry["image_bytes"]
            buffers[buf.addr] = entry
            captures.append((contents, dirty_spans, contents.write_seq))
        image.cut.charge(
            "stage", drain_bytes / runtime.device.spec.pcie_bw * NS_PER_S
        )
        image.add_blob(
            "crac/buffers", buffers, accounted_bytes=image_bytes_total
        )


def reference_refill(image, runtime, translation) -> int:
    """Walks every entry's delta run, newest image first."""
    buffers = image.blob("crac/buffers")
    older = [img.blob("crac/buffers") for img in image.chain()][-2::-1]
    refill_bytes = 0
    runs: dict[int, list[dict]] = {}
    for addr, entry in buffers.items():
        refill_bytes += entry["pcie_bytes"]
        kept = [entry] if entry["snapshot"] is not None else []
        if entry["delta"]:
            for payload in older:
                prev = payload.get(addr)
                if prev is None:
                    continue
                if prev["uid"] != entry["uid"]:
                    break
                refill_bytes += prev["pcie_bytes"]
                if prev["snapshot"] is not None:
                    kept.append(prev)
                if not prev["delta"]:
                    break
        if kept:
            runs[addr] = kept
    for addr, entries in runs.items():
        buf = runtime.buffers[translation.get(addr, addr)]
        contents = buf.contents
        for entry in reversed(entries):
            if entry["delta"]:
                contents.apply_delta(entry["snapshot"])
            else:
                contents.restore(entry["snapshot"])
        if buffers[addr]["kind"] == "managed":
            buf.residency[:] = buffers[addr]["residency"]
        contents.clear_dirty()
    return refill_bytes


def reference_session(seed: int) -> CracSession:
    session = CracSession(seed=seed)
    session.plugin.__class__ = ReferencePlugin
    session.plugin._refill = reference_refill
    return session


# -- running a script ------------------------------------------------------------

SIZES = (256, 4096, 3 * 4096 + 512)
ALLOCS = {
    "device": ("malloc", "free"),
    "pinned": ("malloc_host", "free_host"),
    "hostalloc": ("host_alloc", "free_host"),
    "managed": ("malloc_managed", "free"),
}
FAMILY_OF_OP = {ops[0]: family for family, ops in ALLOCS.items()}
WRITE_MODES = {
    "inline": {},
    "forked": {"forked": True},
    "speculative": {"speculative": True},
}

alloc = st.tuples(
    st.just("alloc"), st.sampled_from(sorted(ALLOCS)), st.sampled_from(SIZES)
)
# incremental (on the session's newest image) three times in four
cut = st.tuples(
    st.just("cut"), st.sampled_from(sorted(WRITE_MODES)),
    st.sampled_from((False, True, True, True)),
)
write = st.tuples(st.just("write"), st.integers(0, 63), st.integers(0, 255))
steps = st.one_of(
    alloc, alloc, cut, cut, write, write,
    st.tuples(st.just("memset0"), st.integers(0, 63)),
    st.tuples(st.just("free"), st.integers(0, 63)),
    # free, then allocate the same again: a new buffer at the address
    st.tuples(st.just("realloc"), st.integers(0, 63)),
    st.tuples(st.just("advance"), st.integers(1, 8)),
    st.tuples(st.just("finish"),),
    st.tuples(st.just("restart"),),
)


class SessionRun:
    """One session, the pointers it holds and its cut chain."""

    def __init__(self, session: CracSession) -> None:
        self.session = session
        self.store = CheckpointStore()
        self.ptrs: list[tuple[int, str, int]] = []  # (addr, family, size)
        self.last_image = None
        self.images: list = []
        self.reports: list = []

    def step(self, step: tuple) -> None:
        backend = self.session.backend
        op = step[0]
        if op == "alloc":
            family, size = step[1], step[2]
            if family == "managed":
                size = UVM_PAGE
            addr = getattr(backend, ALLOCS[family][0])(size)
            self.ptrs.append((addr, family, size))
        elif op in ("write", "memset0", "free", "realloc"):
            if not self.ptrs:
                return
            addr, family, size = self.ptrs[step[1] % len(self.ptrs)]
            if op in ("free", "realloc"):
                self.ptrs.remove((addr, family, size))
                getattr(backend, ALLOCS[family][1])(addr)
                if op == "realloc":
                    self.step(("alloc", family, size))
            elif op == "memset0":
                if family != "managed":
                    backend.memset(addr, 0, size)
            else:
                offset = (step[2] * 37) % size
                nbytes = min(200, size - offset)
                view = (
                    backend.managed_view if family == "managed"
                    else backend.device_view
                )
                view(addr, nbytes, offset=offset)[:] = step[2] % 255 + 1
        elif op == "cut":
            kwargs = dict(WRITE_MODES[step[1]])
            if step[2] and self.last_image is not None:
                kwargs.update(incremental=True, parent=self.last_image)
            # A forked or speculative write stays open until the next
            # cut, a "finish" step or a restart: writes in between land
            # in its window.
            image = self.session.checkpoint(store=self.store, **kwargs)
            self.last_image = image
            self.images.append(image)
        elif op == "finish":
            self.session.finish_forked_checkpoints()
        elif op == "advance":
            self.session.process.advance(step[1] * 250_000.0)
        elif op == "restart":
            if self.store.latest() is None:
                return
            self.session.kill()
            report = self.session.restart_latest(self.store)
            self.reports.append(report)
            # The app goes on from the restored cut: it holds the
            # allocations live there.
            log = self.store.get(report.generation).image.blob("crac/replay-log")
            self.ptrs = [
                (addr, FAMILY_OF_OP[e.op], e.nbytes)
                for addr, e in sorted(log.active_allocations().items())
            ]

    def observed(self) -> dict:
        session = self.session
        runtime = session.runtime
        return {
            "clock_ns": session.process.clock_ns,
            "accounted": [
                img.blobs["crac/buffers"].accounted_bytes for img in self.images
            ],
            "size_bytes": [img.size_bytes for img in self.images],
            # forked copy-on-write and speculative validation charges
            "writers": [
                (getattr(w, "cow_bytes", None), getattr(w, "replayed_bytes", None),
                 getattr(w, "invalidated", None))
                for w in (img.forked_writer for img in self.images)
                if w is not None
            ],
            "restarts": [
                (r.refilled_bytes, r.restart_time_ns, r.refill_ns,
                 r.replayed_calls)
                for r in self.reports
            ],
            "buffers": {
                addr: _digest(buf) for addr, buf in sorted(runtime.buffers.items())
            },
        }


def _digest(buf) -> int:
    """CRC of a buffer's bytes, read without building its contents (a
    build would take it out of the never-built tables)."""
    if isinstance(buf, DeviceBuffer) and buf.unbuilt is not None:
        return zlib.crc32(bytes(buf.size))
    return zlib.crc32(buf.contents.read_bytes(0, buf.size))


@pytest.fixture
def stage_charges(monkeypatch):
    """The ``stage`` charges made since the list was last cleared."""
    charges: list[float] = []
    original = Cut.charge

    def charge(self, stage, ns):
        if stage == "stage":
            charges.append(ns)
        original(self, stage, ns)

    monkeypatch.setattr(Cut, "charge", charge)
    return charges


#: scripts every run checks: a never-written buffer at a reused address
#: (its uid ends the run), uids renumbered by a restart around a
#: cudaHostAlloc, a buffer zeroed by memset and clean after its cut,
#: first writes inside forked and speculative windows, and a
#: never-written buffer whose address and uid meet a written one's in
#: an older image again after a restart (a freed cudaHostAlloc is not
#: replayed, so the uids repeat)
SCRIPTS = [
    [("alloc", "device", 256), ("write", 0, 5), ("cut", "inline", False),
     ("realloc", 0), ("cut", "inline", True), ("restart",)],
    [("alloc", "hostalloc", 256), ("alloc", "hostalloc", 256),
     ("alloc", "device", 256), ("cut", "inline", False), ("free", 2),
     ("alloc", "device", 4096), ("free", 2), ("alloc", "device", 256),
     ("cut", "inline", True), ("restart",), ("cut", "inline", True),
     ("restart",)],
    [("alloc", "device", 4096), ("memset0", 0), ("cut", "inline", False),
     ("cut", "inline", False), ("restart",), ("cut", "inline", True),
     ("restart",)],
    [("alloc", "device", 4096), ("alloc", "pinned", 256),
     ("cut", "forked", False), ("write", 0, 1), ("write", 1, 2),
     ("advance", 4), ("finish",), ("alloc", "device", 256),
     ("cut", "speculative", True), ("write", 2, 3), ("realloc", 0),
     ("advance", 2), ("cut", "inline", True), ("restart",)],
    [("alloc", "hostalloc", 256), ("alloc", "device", 256), ("write", 1, 5),
     ("cut", "inline", False), ("free", 0), ("free", 0),
     ("cut", "inline", True), ("restart",), ("alloc", "device", 256),
     ("cut", "inline", True), ("restart",)],
]


@settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(0, 3), script=st.lists(steps, min_size=12, max_size=40))
@example(seed=0, script=SCRIPTS[0])
@example(seed=0, script=SCRIPTS[1])
@example(seed=0, script=SCRIPTS[2])
@example(seed=0, script=SCRIPTS[3])
@example(seed=0, script=SCRIPTS[4])
def test_never_built_record_matches_per_address_entries(
    seed, script, stage_charges
):
    real = SessionRun(CracSession(seed=seed))
    model = SessionRun(reference_session(seed))
    for step in script:
        stage_charges.clear()
        real.step(step)
        real_charges = list(stage_charges)
        stage_charges.clear()
        model.step(step)
        assert real_charges == stage_charges, step
        assert real.observed() == model.observed(), step
