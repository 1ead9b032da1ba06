"""Crash-consistent checkpoint store: two-phase commit, checksums, GC.

Real transparent-checkpointing deployments treat the checkpoint image
itself as a failure domain: a node can die halfway through writing an
image (a *torn* image must never be restored), bytes can rot between
save and restore (CRIUgpu-style integrity validation), and disk budgets
force old generations out (but never a base image that a live
incremental chain still needs). :class:`CheckpointStore` owns that
lifecycle:

- **Two-phase atomic commit.** ``stage()`` writes the image region by
  region into a staging slot; only ``commit()`` makes it a visible
  generation. A crash mid-write (the ``image-write`` fault stage)
  leaves a ``complete=False`` partial that :meth:`discard_partials`
  throws away — committed generations are never torn.
- **Per-region checksums.** CRCs are computed at stage time and
  re-verified by :meth:`load`; any byte flipped in between raises
  :class:`CorruptCheckpointError` deterministically.
- **Generational retention.** ``keep_generations=N`` bounds the store;
  GC walks every retained image's incremental parent chain and never
  evicts a generation that a retained chain still parents. Generations
  being shipped off-node are :meth:`pin`-ned so keep-N cannot race an
  in-flight migration.
- **Portability.** :meth:`export_generation` turns a committed
  generation into a host-independent wire record (parent-stripped
  pickle + the per-region CRCs recorded at stage time + one CRC over
  both); :meth:`import_generation` checks that CRC on arrival and keeps
  the record in wire form. A shadow replica is read only when its
  session fails over, so the image is built the first time the entry is
  fetched (:meth:`get`, hence :meth:`load`, :meth:`verify` and export):
  the CRC is checked again, the parent is re-linked, and the payload is
  dropped. :meth:`load` then re-checksums every region against the
  source's CRCs before a restore reads a byte.
- **Chains link by generation id.** Each entry names the nearest
  ancestor this store holds (``parent_generation``): ``commit`` finds it
  once by walking the image's parents, an import takes it from the
  caller. Verification, export and GC follow those ids and never need
  an entry's image, so a wire-form generation stays unbuilt through
  every later commit's GC.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Container, Iterable, Iterator

from repro.dmtcp.image import CheckpointImage
from repro.errors import CheckpointStoreError, CorruptCheckpointError

if TYPE_CHECKING:  # avoid a dmtcp → harness import cycle at runtime
    from repro.harness.fault_injection import FaultInjector


@dataclass
class StagedCheckpoint:
    """An image in the staging area (phase 1 of the commit protocol).

    ``complete`` flips to True only after every region's bytes and
    checksum have been written; a crash mid-write leaves it False and
    the partial can only be discarded, never committed.
    """

    staging_id: int
    image: CheckpointImage
    checksums: dict[int, int] = field(default_factory=dict)
    complete: bool = False
    aborted: bool = False

    @property
    def written_regions(self) -> int:
        return len(self.checksums)


def _wire_crc(payload: bytes, checksums: dict[int, int]) -> int:
    """The CRC a wire record carries: over its payload, then over its
    per-region CRCs, so a record whose region CRCs were altered in
    transit fails at arrival like one whose bytes were. ``checksums``
    is keyed in region order, as every store keeps it."""
    return zlib.crc32(str(checksums).encode(), zlib.crc32(payload))


@dataclass(slots=True)
class StoredGeneration:
    """One committed generation (phase 2 made it visible).

    ``parent_generation`` is the local id of the nearest ancestor this
    store holds (``None`` for a base image, or a chain whose older links
    live in another store). An imported generation is kept in wire form:
    ``image`` stays ``None`` and ``payload`` holds the CRC-checked bytes
    until :meth:`CheckpointStore.get` first builds the image. The entry
    holds no reference to its store, so a dropped store is freed by
    reference counting alone.
    """

    generation: int
    image: CheckpointImage | None
    checksums: dict[int, int]
    size_bytes: int
    parent_generation: int | None = None
    payload: bytes | None = None
    payload_crc: int = 0


class CheckpointStore:
    """Owns checkpoint-image lifecycle: stage → commit → verify → GC."""

    def __init__(
        self,
        *,
        keep_generations: int = 3,
        fault_injector: "FaultInjector | None" = None,
    ) -> None:
        if keep_generations < 1:
            raise ValueError("must keep at least one generation")
        self.keep_generations = keep_generations
        self.fault_injector = fault_injector
        self._generations: dict[int, StoredGeneration] = {}
        self._staged: dict[int, StagedCheckpoint] = {}
        #: generation → pin count (migration in-flight protection)
        self._pins: dict[int, int] = {}
        self._next_generation = 1
        self._next_staging_id = 1
        self.evicted = 0
        self.discarded_partials = 0

    # -- phase 1: staging ------------------------------------------------------

    def stage(self, image: CheckpointImage) -> StagedCheckpoint:
        """Write ``image`` into the staging area, region by region.

        Computes each region's CRC as it is written. The ``image-write``
        fault stage fires per region: a crash leaves the partial staged
        entry behind (discardable, never committable); a corruption
        fault silently flips a byte *after* the checksum was recorded —
        the classic undetected-at-write error that only restore-time
        verification catches.
        """
        staged = StagedCheckpoint(staging_id=self._next_staging_id, image=image)
        self._next_staging_id += 1
        self._staged[staged.staging_id] = staged
        for idx, region in enumerate(image.regions):
            kind = None
            if self.fault_injector is not None:
                kind = self.fault_injector.check(
                    "image-write", f"region {idx} @{region.start:#x}",
                    corruptible=True,
                )
            staged.checksums[idx] = region.checksum()
            if kind == "corrupt" and region.pages:
                pg = min(region.pages)
                data = bytearray(region.pages[pg])
                if data:
                    data[0] ^= 0xFF
                    region.pages[pg] = bytes(data)
        staged.complete = True
        return staged

    def abort(self, staged: StagedCheckpoint) -> None:
        """Throw a staged image away (phase-1 rollback)."""
        staged.aborted = True
        self._staged.pop(staged.staging_id, None)

    def partials(self) -> list[StagedCheckpoint]:
        """Staged images whose write never completed (torn by a crash)."""
        return [s for s in self._staged.values() if not s.complete]

    def discard_partials(self) -> int:
        """Drop every torn staged image; returns how many were dropped."""
        torn = self.partials()
        for staged in torn:
            self.abort(staged)
        self.discarded_partials += len(torn)
        return len(torn)

    # -- phase 2: commit -------------------------------------------------------

    def commit(self, staged: StagedCheckpoint) -> int:
        """Make a fully-staged image a visible generation; runs GC."""
        if staged.aborted:
            raise CheckpointStoreError(
                f"staging slot {staged.staging_id} was aborted"
            )
        if not staged.complete:
            raise CheckpointStoreError(
                f"staging slot {staged.staging_id} is a partial "
                f"({staged.written_regions}/{len(staged.image.regions)} "
                "regions written) — discard it, a torn image must never "
                "become a generation"
            )
        if staged.staging_id not in self._staged:
            raise CheckpointStoreError(
                f"staging slot {staged.staging_id} is not staged here"
            )
        del self._staged[staged.staging_id]
        gen = self._next_generation
        self._next_generation += 1
        self._generations[gen] = StoredGeneration(
            generation=gen,
            image=staged.image,
            checksums=dict(staged.checksums),
            size_bytes=staged.image.size_bytes,
            parent_generation=self._held_ancestor(staged.image),
        )
        # The image is durable now — this is the one point where the live
        # process's dirty tracking (captured at snapshot time) may be
        # cleared. Aborted/partial stagings never reach here, so a torn
        # checkpoint keeps every dirty bit for the next incremental cut.
        staged.image.mark_committed()
        self.gc()
        return gen

    def _held_ancestor(self, image: CheckpointImage) -> int | None:
        """Local id of ``image``'s nearest ancestor this store holds."""
        parent = image.parent
        while parent is not None:
            for gen, entry in self._generations.items():
                if entry.image is parent:
                    return gen
            parent = parent.parent
        return None

    def put(self, image: CheckpointImage) -> int:
        """Stage + commit in one call (the common single-rank path).

        A crash mid-write propagates after the partial is recorded in
        the staging area; callers recover via :meth:`discard_partials`
        (the self-healing restart path does this automatically).
        """
        return self.commit(self.stage(image))

    # -- lookup ----------------------------------------------------------------

    @property
    def generations(self) -> list[int]:
        """Committed generation ids, oldest first."""
        return sorted(self._generations)

    def latest(self) -> int | None:
        """Newest committed generation id, or ``None`` if empty."""
        return max(self._generations) if self._generations else None

    def get(self, generation: int) -> StoredGeneration:
        """Fetch a committed generation's entry, its image built.

        A wire-form entry is built here, once: its payload must still
        match the CRC it arrived with (else
        :class:`CorruptCheckpointError`), its parent is re-linked by id
        and the payload is dropped. The regions are not re-checksummed;
        :meth:`load` does that."""
        entry = self._generations.get(generation)
        if entry is None:
            raise self._missing(generation)
        if entry.image is None:
            self._build(entry)
        return entry

    def _missing(self, generation: int) -> CheckpointStoreError:
        return CheckpointStoreError(
            f"generation {generation} is not in the store "
            f"(have {self.generations})"
        )

    def _build(self, entry: StoredGeneration) -> None:
        """Turn a wire-form entry into an image linked to its parent."""
        payload = entry.payload
        if _wire_crc(payload, entry.checksums) != entry.payload_crc:
            raise CorruptCheckpointError(
                f"generation {entry.generation}: stored payload failed its "
                "CRC (bytes corrupted since arrival)"
            )
        parent_gen = entry.parent_generation
        parent = None if parent_gen is None else self.get(parent_gen).image
        image = CheckpointImage.from_payload(payload, parent=parent)
        if image.incremental and parent is None:
            raise CorruptCheckpointError(
                f"generation {entry.generation}: an incremental image "
                "arrived as a base"
            )
        entry.image = image
        entry.payload = None

    def iter_restore_candidates(self) -> Iterator[int]:
        """Generations to try at restore, newest first."""
        return iter(sorted(self._generations, reverse=True))

    # -- restore-time verification ---------------------------------------------

    def chain_generations(self, generation: int) -> list[int]:
        """Ids of ``generation``'s restore chain held by this store, base
        first (ancestors that predate the store are left out)."""
        entry = self._generations.get(generation)
        if entry is None:
            raise self._missing(generation)
        ids = [generation]
        parent = entry.parent_generation
        while parent is not None:
            ids.append(parent)
            parent = self._generations[parent].parent_generation
        ids.reverse()
        return ids

    def verify(self, generation: int) -> None:
        """Re-checksum every region of ``generation`` (and of every
        chain ancestor also held by this store), base first; raise
        :class:`CorruptCheckpointError` on the first mismatch."""
        for gen in self.chain_generations(generation):
            self._verify_own(gen)

    def _verify_own(self, generation: int) -> None:
        """Re-checksum the regions ``generation`` itself holds."""
        entry = self.get(generation)
        for idx, region in enumerate(entry.image.regions):
            want = entry.checksums.get(idx)
            if want is None or region.checksum() != want:
                raise CorruptCheckpointError(
                    f"generation {generation}: region {idx} "
                    f"@{region.start:#x} failed checksum verification"
                )

    def load(self, generation: int | None = None) -> CheckpointImage:
        """Fetch a generation's image after verifying its integrity.

        ``generation=None`` loads the newest. This is the only sanctioned
        way to get an image out of the store for restore.
        """
        if generation is None:
            generation = self.latest()
            if generation is None:
                raise CheckpointStoreError("store holds no generations")
        self.verify(generation)
        return self.get(generation).image

    # -- migration pins --------------------------------------------------------

    def pin(self, generation: int) -> None:
        """Protect ``generation`` (and its whole chain) from GC.

        A migration pins every generation it is shipping so keep-N
        retention on the source node cannot evict the image mid-flight;
        the pin is released with :meth:`unpin` once the destination
        acknowledges its commit. Pins nest (pin twice → unpin twice).
        """
        self.get(generation)  # must be a committed generation here
        self._pins[generation] = self._pins.get(generation, 0) + 1

    def unpin(self, generation: int) -> None:
        """Release one pin on ``generation`` (idempotent past zero).

        The generation becomes GC-eligible again at the next
        :meth:`gc` (which every commit runs); nothing is evicted here.
        """
        n = self._pins.get(generation, 0)
        if n <= 1:
            self._pins.pop(generation, None)
        else:
            self._pins[generation] = n - 1

    def pinned(self) -> list[int]:
        """Currently pinned generation ids, oldest first."""
        return sorted(self._pins)

    @contextmanager
    def pin_guard(self, generations: Iterable[int]):
        """Pin ``generations`` for the duration of a ``with`` block.

        The balance guarantee every shipping path needs: however the
        block exits — a clean import acknowledgement, a
        :class:`~repro.errors.CorruptCheckpointError` from arrival
        re-verification, a :class:`~repro.errors.MigrationError` after
        the retry budget, or a dead destination — every pin taken here
        is released, so an abandoned shipment can never wedge keep-N GC.
        Only generations that were successfully pinned are unpinned
        (a missing generation raises before any later pin is taken).
        """
        taken: list[int] = []
        try:
            for gen in generations:
                self.pin(gen)
                taken.append(gen)
            yield taken
        finally:
            for gen in taken:
                self.unpin(gen)

    # -- portability: export / import ------------------------------------------

    def export_generation(self, generation: int) -> dict:
        """Portable wire record of one committed generation.

        The record carries no host- or path-specific state: the image is
        pickled with its ``parent`` link stripped (chains ship one
        generation per record, re-linked at import by
        ``parent_generation``), runtime-only capture state never
        serializes (``CheckpointImage.__getstate__``), and integrity
        travels with the bytes — the per-region CRCs recorded when the
        generation was staged, and one CRC over the payload and them. The
        generation's own regions are verified before export, so rot on
        the source node is caught here, not attributed to the wire; its
        ancestors ship as records of their own and are verified when
        they are exported.
        """
        self._verify_own(generation)
        return self._record(generation)

    def export_chain(self, generation: int) -> list[dict]:
        """Export ``generation`` plus every chain ancestor held by this
        store, base (full) image first — the ship order of a migration.

        The chain is verified once, up front, then each member is
        exported; a corrupt member raises before any record is built.
        """
        return self.export_missing(generation, ())

    def export_missing(
        self, generation: int, present: Container[int]
    ) -> list[dict]:
        """Export the members of ``generation``'s chain whose ids are not
        in ``present``, base first: the re-ship of a chain whose older
        members the destination already holds.

        The whole chain is verified once, up front, so a corrupt member
        (missing or not) raises before any record is built, and every
        record is built before the caller ships any of them.
        """
        self.verify(generation)
        return [
            self._record(gen)
            for gen in self.chain_generations(generation)
            if gen not in present
        ]

    def _record(self, generation: int) -> dict:
        """The wire record of an already-verified generation."""
        entry = self.get(generation)
        image = entry.image
        payload = image.export_payload()
        parent_gen = entry.parent_generation
        if (
            parent_gen is not None
            and image.parent is not self._generations[parent_gen].image
        ):
            # The direct parent lives in another store: a record linked
            # past it would restore without that link's pages.
            parent_gen = None
        checksums = dict(entry.checksums)  # already in region order
        return {
            "generation": entry.generation,
            "parent_generation": parent_gen,
            "incremental": image.incremental,
            "payload": payload,
            "payload_crc": _wire_crc(payload, checksums),
            "checksums": checksums,
            "size_bytes": entry.size_bytes,
        }

    def import_generation(
        self, record: dict, *, parent_generation: int | None = None
    ) -> int:
        """Register an exported generation in *this* store (arrival side).

        The record's CRC covers its payload and the per-region CRCs the
        *source* store recorded at stage time, so bytes or CRCs altered
        on the wire raise :class:`CorruptCheckpointError` here instead of
        becoming a restorable-looking generation. The record is kept in
        wire form: no image is built until the entry is first fetched
        (:meth:`get`), and :meth:`load` re-checksums every region before
        a restore reads it. ``parent_generation`` is the local id of the
        already-imported parent an incremental record links to. Returns
        the new local generation id.
        """
        payload = record["payload"]
        checksums = {
            int(i): int(c) for i, c in sorted(record["checksums"].items())
        }
        if _wire_crc(payload, checksums) != record["payload_crc"]:
            raise CorruptCheckpointError(
                f"imported generation {record['generation']}: payload CRC "
                "mismatch (bytes corrupted in transit)"
            )
        if parent_generation is None:
            if record["incremental"]:
                raise CheckpointStoreError(
                    f"generation {record['generation']} is incremental — "
                    "import its parent first and pass its id as "
                    "parent_generation="
                )
        elif parent_generation not in self._generations:
            raise self._missing(parent_generation)
        gen = self._next_generation
        self._next_generation += 1
        self._generations[gen] = StoredGeneration(
            generation=gen,
            image=None,
            checksums=checksums,
            size_bytes=record["size_bytes"],
            parent_generation=parent_generation,
            payload=payload,
            payload_crc=record["payload_crc"],
        )
        self.gc()
        return gen

    def import_chain(self, records: list[dict]) -> list[int]:
        """Import an exported chain (base first); re-links parents by the
        records' ``parent_generation`` ids. Returns the new local ids."""
        local: dict[int, int] = {}
        imported: list[int] = []
        for record in records:
            gen = self.import_generation(
                record, parent_generation=local.get(record["parent_generation"])
            )
            local[record["generation"]] = gen
            imported.append(gen)
        return imported

    # -- retention -------------------------------------------------------------

    def _protected(self) -> set[int]:
        """Generations that must survive GC: the newest ``keep_generations``
        plus every pinned (in-flight) generation, plus every ancestor a
        retained incremental chain still parents."""
        generations = self._generations
        newest = sorted(generations, reverse=True)[: self.keep_generations]
        roots = set(newest)
        roots.update(g for g in self._pins if g in generations)
        keep = set(roots)
        for gen in roots:
            parent = generations[gen].parent_generation
            while parent is not None and parent not in keep:
                keep.add(parent)
                parent = generations[parent].parent_generation
        return keep

    def gc(self) -> list[int]:
        """Evict unprotected generations; returns the evicted ids."""
        keep = self._protected()
        victims = sorted(g for g in self._generations if g not in keep)
        for gen in victims:
            del self._generations[gen]
        self.evicted += len(victims)
        return victims

    # -- introspection ---------------------------------------------------------

    @property
    def size_bytes(self) -> int:
        """Total virtual bytes across committed generations."""
        return sum(e.size_bytes for e in self._generations.values())

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"<CheckpointStore {len(self._generations)} generations "
            f"(latest {self.latest()}), {len(self._staged)} staged, "
            f"{self.size_bytes / (1 << 20):.1f} MB, keep "
            f"{self.keep_generations}>"
        )
