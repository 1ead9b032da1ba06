"""A cut and a restart pay per stateful buffer, not per allocation.

Structural guard, no wall clock: a session holding thousands of
never-written ``cudaMalloc`` buffers next to a few written ones is cut
in every write mode, committed, killed, restarted from its store and cut
again. The untouched buffers never build a ``PagedContents``, and the
per-buffer copy, commit and refill work (``snapshot``,
``dirty_snapshot``, ``clear_dirty``, ``restore``, ``apply_delta``)
touches only the written buffers.
"""

import pytest

from repro.core import CracSession
from repro.dmtcp.store import CheckpointStore
from repro.gpu.memory import PagedContents
from tests.conftest import python_lines

UNTOUCHED = 5000
WRITTEN = 3
MODES = {
    "full": {},
    "incremental": {"incremental": True},
    "forked": {"incremental": True, "forked": True},
    "speculative": {"incremental": True, "speculative": True},
}
COUNTED = ("snapshot", "dirty_snapshot", "clear_dirty", "restore", "apply_delta")


def _cut(session, store, mode, parent):
    """One committed cut in ``mode`` (incremental ones on ``parent``)."""
    kwargs = dict(MODES[mode])
    if kwargs.get("incremental"):
        kwargs["parent"] = parent
    image = session.checkpoint(store=store, **kwargs)
    session.finish_forked_checkpoints()
    assert image.committed
    return image


def _accounted_allocations(image) -> int:
    """Live allocations the image accounts for: its explicit entries plus
    the buffers in its never-built record."""
    never_built = image.blob("crac/never-built").uids
    return len(image.blob("crac/buffers")) + len(never_built)


def _count_calls(monkeypatch):
    """Record which contents each counted method ran on, and the id of
    every ``PagedContents`` built from here on."""
    calls: dict[str, set[int]] = {name: set() for name in COUNTED}
    for name, seen in calls.items():
        original = getattr(PagedContents, name)

        def counted(self, *args, _original=original, _seen=seen, **kwargs):
            _seen.add(id(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PagedContents, name, counted)
    built: list[int] = []
    original_init = PagedContents.__init__

    def counting_init(self, *args, **kwargs):
        built.append(id(self))
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(PagedContents, "__init__", counting_init)
    return calls, built


@pytest.mark.parametrize("mode", MODES)
def test_cut_and_commit_touch_only_written_buffers(mode, monkeypatch):
    """Cut and commit, then kill, restart and cut again."""
    session = CracSession(seed=3)
    backend = session.backend
    ptrs = [backend.malloc(256) for _ in range(UNTOUCHED + WRITTEN)]
    written = ptrs[:: (UNTOUCHED + WRITTEN) // WRITTEN][:WRITTEN]
    store = CheckpointStore()
    base = session.checkpoint(store=store)
    for i, p in enumerate(written):
        backend.device_view(p, 64, offset=32 * i)[:] = i + 1

    def written_contents() -> set[int]:
        return {id(session.runtime.buffer(p).contents) for p in written}

    calls, built = _count_calls(monkeypatch)

    # Cut and commit.
    before = written_contents()
    image = _cut(session, store, mode, base)
    assert calls["snapshot"] | calls["dirty_snapshot"] == before
    assert calls["clear_dirty"] == before
    assert _accounted_allocations(image) == UNTOUCHED + WRITTEN
    assert built == []
    for seen in calls.values():
        seen.clear()

    # Kill and restart: replay recreates every buffer, refill builds
    # contents for the written ones only.
    session.kill()
    session.restart_latest(store)
    after = written_contents()
    assert set(built) == after and len(built) == WRITTEN
    assert calls["restore"] | calls["apply_delta"] == after
    assert calls["clear_dirty"] == after
    for seen in calls.values():
        seen.clear()

    # A second cut in the restarted process.
    again = _cut(session, store, mode, image)
    assert calls["snapshot"] | calls["dirty_snapshot"] == after
    assert _accounted_allocations(again) == UNTOUCHED + WRITTEN
    assert len(built) == WRITTEN


#: untouched buffers of the small and the large session the guard compares
FEW, MANY = 100, 5000


def _lines_per_untouched(mode: str, untouched: int) -> tuple[int, int]:
    """Python lines of one warm committed cut in ``mode``, and of the
    ``restart_latest`` after it outside the replay log's own methods, in
    a session holding ``untouched`` never-written buffers."""
    session = CracSession(seed=3)
    backend = session.backend
    ptrs = [backend.malloc(256) for _ in range(untouched + WRITTEN)]
    store = CheckpointStore()
    for i, p in enumerate(ptrs[:WRITTEN]):
        backend.device_view(p, 64)[:] = i + 1
    base = _cut(session, store, "full", None)  # warm: the store exists
    for i, p in enumerate(ptrs[:WRITTEN]):
        backend.device_view(p, 32, offset=64)[:] = i + 1
    _, cut_lines = python_lines(_cut, session, store, mode, base)
    session.kill()
    _, restart_lines = python_lines(
        session.restart_latest, store, exclude=("ReplayLog.",)
    )
    assert len(session.runtime.allocations) == untouched + WRITTEN
    return cut_lines, restart_lines


@pytest.mark.parametrize("mode", MODES)
def test_cut_and_restart_lines_do_not_grow_per_untouched_buffer(mode):
    """Less than one executed line per untouched buffer, in the cut and
    in restart outside the malloc-log replay."""
    few = _lines_per_untouched(mode, FEW)
    many = _lines_per_untouched(mode, MANY)
    cut_growth, restart_growth = (
        (b - a) / (MANY - FEW) for a, b in zip(few, many)
    )
    assert cut_growth < 1, (few, many)
    assert restart_growth < 1, (few, many)
