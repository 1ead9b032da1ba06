"""A cut pays per stateful buffer, not per allocation handle.

Structural guard, no wall clock: a session holding thousands of
never-written ``cudaMalloc`` buffers next to a few written ones is cut
in every write mode, and the per-buffer copy and commit work
(``PagedContents.snapshot``, ``dirty_snapshot``, ``clear_dirty``) must
touch only the written buffers.
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


@pytest.fixture(scope="module")
def many_buffers():
    """Per mode: a session past its base cut, the base image, its store
    and the written buffers' contents."""
    out = {}
    for mode in MODES:
        session = CracSession(seed=3)
        backend = session.backend
        ptrs = [backend.malloc(256) for _ in range(UNTOUCHED + WRITTEN)]
        written = ptrs[:: (UNTOUCHED + WRITTEN) // WRITTEN][:WRITTEN]
        store = CheckpointStore()
        base = session.checkpoint(store=store)
        for i, p in enumerate(written):
            backend.device_view(p, 64, offset=32 * i)[:] = i + 1
        contents = {id(session.runtime.buffers[p].contents) for p in written}
        out[mode] = (session, base, store, contents)
    return out


@pytest.mark.parametrize("mode", MODES)
def test_cut_and_commit_touch_only_written_buffers(
    mode, many_buffers, monkeypatch
):
    session, base, store, written = many_buffers[mode]
    calls: dict[str, set[int]] = {
        "snapshot": set(), "dirty_snapshot": set(), "clear_dirty": set(),
    }
    for name, seen in calls.items():
        original = getattr(PagedContents, name)

        def counted(self, *args, _original=original, _seen=seen, **kwargs):
            _seen.add(id(self))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(PagedContents, name, counted)

    kwargs = dict(MODES[mode])
    if kwargs.get("incremental"):
        kwargs["parent"] = base
    image = session.checkpoint(store=store, **kwargs)
    session.finish_forked_checkpoints()
    assert image.committed

    assert calls["snapshot"] | calls["dirty_snapshot"] == written
    assert calls["clear_dirty"] == written
    assert len(image.blob("crac/buffers")) == UNTOUCHED + WRITTEN
