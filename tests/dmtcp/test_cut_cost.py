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
        return {id(session.runtime.buffers[p].contents) for p in written}

    calls, built = _count_calls(monkeypatch)

    # Cut and commit.
    before = written_contents()
    image = _cut(session, store, mode, base)
    assert calls["snapshot"] | calls["dirty_snapshot"] == before
    assert calls["clear_dirty"] == before
    assert len(image.blob("crac/buffers")) == UNTOUCHED + WRITTEN
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
    assert len(again.blob("crac/buffers")) == UNTOUCHED + WRITTEN
    assert len(built) == WRITTEN
