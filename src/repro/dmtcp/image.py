"""Checkpoint image container.

An image holds the saved upper-half memory regions plus named *blobs*
contributed by plugins (CRAC stores drained device buffers, the
malloc/free replay log and device/platform metadata as blobs).

Sizes are accounted in *virtual* bytes — a 1 GB device buffer drained
into the image accounts 1 GB even though its sparse backing may be tiny —
so checkpoint-image sizes are directly comparable to the paper's
Figure 3 / Figure 5c annotations.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import CheckpointError, CorruptCheckpointError
from repro.linux.address_space import PAGE_SIZE

if TYPE_CHECKING:
    from repro.cuda.api import RowWatch
    from repro.dmtcp.checkpointer import Cut
    from repro.dmtcp.forked import BackgroundWriter
    from repro.gpu.memory import DeviceBuffer, PagedContents
    from repro.gpu.uvm import ManagedBuffer
    from repro.linux.address_space import MemoryRegion


@dataclass(slots=True)
class SavedRegion:
    """One saved memory region (content + metadata).

    For incremental images ``pages`` holds only the pages dirtied since
    the parent checkpoint; ``size`` is always the full virtual size so
    restore can recreate the mapping. ``fresh`` marks an incremental
    region whose range was mapped since the parent cut: restore fills
    it from this link and later ones only, never from an older link.

    Slotted, like every record that crosses a pickle (:class:`SavedBlob`,
    :class:`CheckpointImage`, the replay log): pickling rebuilds no
    instance ``__dict__`` for it, and the round trip stays in C.
    """

    start: int
    size: int
    perms: str
    tag: str
    pages: dict[int, bytes]
    incremental: bool = False
    fresh: bool = False

    @property
    def backed_bytes(self) -> int:
        return sum(len(p) for p in self.pages.values())

    def checksum(self) -> int:
        """CRC32 over this region's metadata and page contents.

        The checkpoint store records this per region at save time and
        re-verifies it at restore, so a single flipped byte is caught
        before it reaches the restored address space.
        """
        fresh = ":fresh" if self.fresh else ""
        crc = zlib.crc32(f"{self.start:x}:{self.size:x}:{self.perms}{fresh}".encode())
        for pg in sorted(self.pages):
            crc = zlib.crc32(self.pages[pg], zlib.crc32(str(pg).encode(), crc))
        return crc


@dataclass(slots=True)
class SavedBlob:
    """A plugin-contributed payload.

    ``accounted_bytes`` is the virtual size the blob represents in the
    image (e.g. the full size of a drained device buffer).
    """

    name: str
    payload: Any
    accounted_bytes: int


#: The :class:`CheckpointImage` fields a pickle carries, in order; the
#: rest are runtime-only (live dirty captures, the cut, the forked
#: writer, the sanitizer hook) and come back at their defaults.
_PERSISTED = (
    "pid", "created_at_ns", "gzip", "regions", "blobs", "incremental",
    "parent", "checkpoint_time_ns", "sealed_checksum", "speculative",
    "committed",
)
_persisted_state = attrgetter(*_PERSISTED)


@dataclass(slots=True)
class CheckpointImage:
    """A complete checkpoint of one process (DMTCP ``.dmtcp`` file model).

    ``parent`` links incremental images into a chain ending at a full
    base image; restore walks the chain base-first.
    """

    pid: int
    created_at_ns: int
    gzip: bool = False
    regions: list[SavedRegion] = field(default_factory=list)
    blobs: dict[str, SavedBlob] = field(default_factory=dict)
    incremental: bool = False
    parent: "CheckpointImage | None" = None
    #: Virtual-time cost of taking this checkpoint (set by the
    #: checkpointer; what Figures 3/5c report).
    checkpoint_time_ns: int = 0
    #: CRC recorded by :meth:`seal` (``None`` until sealed).
    sealed_checksum: int | None = None
    #: True for a validated-speculation cut (no quiesce; capture runs
    #: concurrently with the application and commit moves to the
    #: :class:`repro.spec.SpeculativeCheckpoint` writer's validation).
    speculative: bool = False
    #: True once the image is durably committed (store commit, or the
    #: end of a direct store-less checkpoint). Dirty-state clearing in
    #: the live process happens only at this point, so an aborted or
    #: torn checkpoint never loses the dirty bits the next incremental
    #: cut depends on.
    committed: bool = False
    #: live-process dirty state captured at snapshot time — (object,
    #: captured pages/spans, snapshot write epoch) — cleared (only the
    #: captured part, and only where the last write precedes the
    #: snapshot epoch) when the image commits. Runtime-only, never
    #: pickled.
    region_captures: list[tuple["MemoryRegion", frozenset[int], int]] = field(
        default_factory=list, repr=False, compare=False
    )
    #: GPU buffers: the :class:`PagedContents` of each buffer that built
    #: its contents (a never-built one is watched by ``unbuilt_capture``)
    contents_captures: list[
        tuple["PagedContents", tuple[tuple[int, int], ...], int]
    ] = field(default_factory=list, repr=False, compare=False)
    #: the never-built allocations of a background cut, watched as they
    #: become objects (see ``built_since_cut``). Runtime-only.
    unbuilt_capture: "RowWatch | None" = field(
        default=None, repr=False, compare=False
    )
    #: the cut charging each stage, set only while the checkpointer runs
    #: (plugins charge their stages through it). Runtime-only.
    cut: "Cut | None" = field(default=None, repr=False, compare=False)
    #: the writer owning the rest of a forked or speculative cut (its
    #: background window, commit and abort). Runtime-only.
    forked_writer: "BackgroundWriter | None" = field(
        default=None, repr=False, compare=False
    )
    #: sanitizer synccheck callback, called with the image at commit
    #: (armed by ``Sanitizer.watch_image``). Runtime-only.
    sync_hook: "Callable[[CheckpointImage], None] | None" = field(
        default=None, repr=False, compare=False
    )

    # -- commit point ----------------------------------------------------------

    def record_region_capture(
        self, region: "MemoryRegion", pages: frozenset[int], epoch: int
    ) -> None:
        """Remember which dirty pages of ``region`` this image captured,
        and the region's write epoch at snapshot time."""
        self.region_captures.append((region, pages, epoch))

    def mark_committed(self) -> None:
        """The image became durable: clear exactly the captured dirty
        state from the live process (idempotent).

        Clearing is epoch-bounded: a page/span dirtied *after* the
        snapshot — including one the image captured that was re-written
        while a forked write was still in flight — keeps its dirty bit,
        because the image holds the pre-window bytes and the next
        incremental cut must save the new content.
        """
        if self.committed:
            return
        if self.sync_hook is not None:
            # Sanitizer synccheck: flags a commit while device work the
            # image claims to cover is still in flight.
            self.sync_hook(self)
        for region, pages, epoch in self.region_captures:
            region.clear_dirty(pages, up_to_epoch=epoch)
        for contents, spans, epoch in self.contents_captures:
            if spans:  # a buffer clean at the cut has nothing to clear
                contents.clear_dirty(list(spans), up_to_epoch=epoch)
        self.drop_captures()
        self.committed = True

    def drop_captures(self) -> None:
        """Forget the live dirty state this image captured (at commit, or
        when its write is abandoned)."""
        self.region_captures = []
        self.contents_captures = []
        if self.unbuilt_capture is not None:
            self.unbuilt_capture.close()
            self.unbuilt_capture = None

    def built_since_cut(self) -> list["DeviceBuffer | ManagedBuffer"]:
        """The buffers that had never built contents at the cut and have
        built them since: only the recorded allocations that became
        objects are looked at, so the ones still rows cost no step. Every
        byte such a buffer holds dirty was written after the cut (its
        snapshot epoch is 0)."""
        if self.unbuilt_capture is None:
            return []
        return self.unbuilt_capture.built()

    def new_dirty_bytes(self) -> int:
        """Bytes dirtied since this image's snapshot (the forked
        checkpoint's copy-on-write exposure). Re-writes of captured
        pages/spans count too — the forked child still holds the old
        bytes, so they must be COW-duplicated like any other write."""
        total = 0
        for region, _pages, epoch in self.region_captures:
            total += region.dirty_pages_since(epoch) * PAGE_SIZE
        for contents, _spans, epoch in self.contents_captures:
            total += contents.dirty_bytes_since(epoch)
        for buf in self.built_since_cut():
            total += buf.dirty_bytes_since(0)
        return total

    def __getstate__(self) -> tuple:
        # Captures reference live process objects; they exist only until
        # commit and must never be serialized with the image.
        return _persisted_state(self)

    def __setstate__(self, state: tuple) -> None:
        # The runtime-only fields come back at their defaults.
        self.__init__(**dict(zip(_PERSISTED, state)))

    def export_payload(self) -> bytes:
        """Portable pickled form of *this image alone* (parent stripped).

        Chains ship one generation per payload so a migration can move
        them incrementally; the receiving store re-links parents from
        its own imported copies (``CheckpointStore.import_chain``).
        Runtime-only state (dirty captures, forked writer, sanitizer
        hook) never serializes, so the payload carries nothing tied to
        the source host or its filesystem.
        """
        parent = self.parent
        self.parent = None
        try:
            return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            self.parent = parent

    @classmethod
    def from_payload(
        cls, payload: bytes, *, parent: "CheckpointImage | None" = None
    ) -> "CheckpointImage":
        """Rebuild an image from :meth:`export_payload` bytes, re-linking
        ``parent`` for incremental images. Callers are expected to have
        CRC-verified the payload first (the store's import path does)."""
        image = cls._unpickle(pickle.loads, payload, "payload")
        image.parent = parent
        return image

    @classmethod
    def _unpickle(
        cls, load: Callable[[Any], Any], source: Any, what: str
    ) -> "CheckpointImage":
        """``load(source)`` as an image, or :class:`CheckpointError`
        naming ``what`` when it does not unpickle or is no image."""
        try:
            image = load(source)
        except Exception as exc:
            raise CheckpointError(f"{what} does not deserialize: {exc!r}") from exc
        if not isinstance(image, cls):
            raise CheckpointError(f"{what} is not a checkpoint image")
        return image

    def chain(self) -> list["CheckpointImage"]:
        """The restore chain, base (full) image first."""
        out: list[CheckpointImage] = []
        img: CheckpointImage | None = self
        while img is not None:
            out.append(img)
            img = img.parent
        return list(reversed(out))

    def add_region(self, region: SavedRegion) -> None:
        """Append one saved memory region."""
        self.regions.append(region)

    def add_blob(self, name: str, payload: Any, accounted_bytes: int = 0) -> None:
        """Attach a named plugin payload (accounted in the image size)."""
        if name in self.blobs:
            raise ValueError(f"duplicate blob {name!r}")
        self.blobs[name] = SavedBlob(name, payload, accounted_bytes)

    def blob(self, name: str) -> Any:
        """Fetch a plugin payload by name."""
        return self.blobs[name].payload

    @property
    def region_bytes(self) -> int:
        """Bytes of saved memory: full virtual size for a base image,
        only the dirtied pages for an incremental one."""
        if self.incremental:
            return sum(r.backed_bytes for r in self.regions)
        return sum(r.size for r in self.regions)

    @property
    def blob_bytes(self) -> int:
        return sum(b.accounted_bytes for b in self.blobs.values())

    @property
    def size_bytes(self) -> int:
        """Total image size (what Figure 3 annotates), virtual bytes."""
        return self.region_bytes + self.blob_bytes

    def describe(self) -> str:
        """One-line human-readable summary."""
        mb = self.size_bytes / (1 << 20)
        return (
            f"<CheckpointImage pid={self.pid} {len(self.regions)} regions, "
            f"{len(self.blobs)} blobs, {mb:.1f} MB>"
        )

    # -- integrity --------------------------------------------------------

    def content_checksum(self) -> int:
        """CRC32 over all region contents (structure-independent)."""
        crc = 0
        for r in sorted(self.regions, key=lambda r: r.start):
            crc = zlib.crc32(
                f"{r.start:x}:{r.size:x}:{r.perms}".encode(), crc
            )
            for pg in sorted(r.pages):
                crc = zlib.crc32(r.pages[pg], zlib.crc32(str(pg).encode(), crc))
        return crc

    def seal(self) -> None:
        """Record the current checksum (done automatically by save())."""
        self.sealed_checksum = self.content_checksum()

    def verify(self) -> bool:
        """True if contents still match the sealed checksum."""
        return (
            self.sealed_checksum is not None
            and self.sealed_checksum == self.content_checksum()
        )

    # -- on-disk format (the ``.dmtcp`` file model) ---------------------------

    def save(self, path: str | Path) -> int:
        """Serialize to disk (sealed with a checksum); returns file size."""
        self.seal()
        path = Path(path)
        with path.open("wb") as fh:
            pickle.dump(self, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path.stat().st_size

    @classmethod
    def load(cls, path: str | Path) -> "CheckpointImage":
        """Deserialize and verify integrity. A file that does not unpickle
        to an image raises :class:`CheckpointError`; one whose contents
        fail the sealed checksum raises :class:`CorruptCheckpointError`."""
        with Path(path).open("rb") as fh:
            image = cls._unpickle(pickle.load, fh, str(path))
        if not image.verify():
            raise CorruptCheckpointError(f"{path}: checksum mismatch (corrupt image)")
        return image
