"""What one cudaMalloc-family call costs the simulator on the host.

Virtual time is pinned by ``test_alloc_path_parity.py``; these tests pin
the host side deterministically instead of with a wall-clock gate: the
objects an allocation creates carry no per-instance ``__dict__``, the
replay log is a list of plain tuples that survives an image's export,
one warm ``malloc`` or ``free`` through the trampoline stays within a
fixed budget of Python-level calls, and so does each never-written
``cudaMalloc`` that restart replays.
"""

from repro.core import CracSession
from repro.core.replay_log import LogEntry
from repro.dmtcp.image import CheckpointImage
from repro.gpu.memory import DeviceBuffer, PagedContents, _FreeBlock
from tests.conftest import python_calls

#: Python-level calls one warm ``CracBackend.malloc(256)`` or ``free``
#: may make, from the trampoline through the runtime, the arena and the
#: replay log (28 each before the path was made lean)
CALL_BUDGET = 18
#: Python-level calls ``restart`` may make per replayed ``cudaMalloc`` of
#: a buffer nothing ever wrote: the runtime entry point, the arena and
#: the buffer object, no contents (6 while every buffer built its
#: contents and dirty index up front)
RESTART_MALLOC_CALL_BUDGET = 4


def test_warm_malloc_and_free_stay_within_call_budget():
    session = CracSession(seed=3)
    backend = session.backend
    for _ in range(3):  # warm: the arena exists, the free list is split
        backend.free(backend.malloc(256))
    keep = backend.malloc(256)
    addr, malloc_calls = python_calls(backend.malloc, 256)
    _, free_calls = python_calls(backend.free, addr)
    assert malloc_calls <= CALL_BUDGET, malloc_calls
    assert free_calls <= CALL_BUDGET, free_calls
    assert keep in session.runtime.buffers and addr not in session.runtime.buffers


def _restart_calls(n_buffers: int) -> int:
    """Python calls of one ``restart`` replaying ``n_buffers`` untouched
    ``cudaMalloc`` buffers."""
    session = CracSession(seed=3)
    for _ in range(n_buffers):
        session.backend.malloc(256)
    image = session.checkpoint()
    session.kill()
    _, calls = python_calls(session.restart, image)
    assert len(session.runtime.buffers) == n_buffers
    return calls


def test_restart_replays_untouched_malloc_within_call_budget():
    per_malloc = (_restart_calls(150) - _restart_calls(50)) / 100
    assert per_malloc <= RESTART_MALLOC_CALL_BUDGET, per_malloc


def test_device_buffer_builds_contents_on_first_use(monkeypatch):
    built = []
    original = PagedContents.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PagedContents, "__init__", counting_init)
    buf = DeviceBuffer(0x1000, 512, "device")
    assert buf.pristine and buf.write_seq == 0 and buf.dirty_bytes_since(0) == 0
    assert built == []
    contents = buf.contents
    assert built == [contents] and buf.contents is contents
    assert contents.size == 512 and contents.pristine
    assert not hasattr(buf, "__dict__")


def test_hot_objects_carry_no_instance_dict():
    buf = DeviceBuffer(0x1000, 512, "device")
    for obj in (buf, buf.contents, PagedContents(64), _FreeBlock(0, 256)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
    entry = LogEntry("malloc", 64, 0x1000)
    assert isinstance(entry, tuple)
    assert entry == ("malloc", 64, 0x1000, 0)


def test_replay_log_survives_image_export():
    session = CracSession(seed=3)
    backend = session.backend
    a = backend.malloc(4096)
    backend.malloc_managed(1 << 16)
    backend.host_alloc(2048)
    backend.free(a)
    backend.malloc_host(512)
    image = session.checkpoint()
    restored = CheckpointImage.from_payload(image.export_payload())
    before = image.blob("crac/replay-log").entries
    after = restored.blob("crac/replay-log").entries
    assert len(after) == 5
    assert after == before
    assert all(type(e) is LogEntry for e in after)
