"""Conflict detection for speculative checkpoints.

A speculative cut captures buffer contents and handle versions *without*
quiescing; the application keeps launching through the capture window.
Validation (at :meth:`repro.spec.SpeculativeCheckpoint.finish`) must
find every resource the application mutated inside the window:

- **buffers** — the image's ``(contents, spans, epoch)`` capture tuples
  record each buffer's ``write_seq`` at the cut; a buffer whose
  ``write_seq`` moved past it was written inside the window, and
  ``dirty_bytes_since(epoch)`` (one pass over the buffer's
  :class:`repro.gpu.intervals.EpochIntervalIndex`) counts exactly the
  bytes whose last write came after it. A buffer that had never built its
  contents at the cut has no tuple: the image's ``built_since_cut()``
  set difference finds it, with epoch 0. In a real system those spans
  are torn in the speculative copy and must be re-copied from the
  version log; here the bytes are cut-consistent by construction
  (snapshots are physical at the cut) and the conflict carries the
  *replay cost* of that re-copy.
- **host regions** — same epoch machinery at page granularity via the
  image's region captures.
- **streams / events / modules** — the :class:`repro.spec.HandleTable`
  version snapshot stored in the image's ``crac/spec-versions`` blob,
  diffed against the live table: any advanced version means ops landed
  on the handle inside the window and its logged suffix replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.linux.address_space import PAGE_SIZE


@dataclass(frozen=True)
class Conflict:
    """One resource invalidated by writes inside the capture window."""

    kind: str  # "buffer" | "region" | "stream" | "event" | "module"
    key: int  # buffer addr-less uid is unavailable here; key = id/sid/eid
    #: version (epoch / write_seq) recorded at the cut
    cut_version: int
    #: live version observed at validation time
    live_version: int
    #: bytes that must be re-copied (0 for pure handle conflicts)
    nbytes: int = 0


def detect_conflicts(image, handle_table=None) -> list[Conflict]:
    """Diff the image's cut-point captures against live state.

    ``image`` is the speculative :class:`~repro.dmtcp.image.CheckpointImage`
    still holding its capture tuples (validation runs strictly before
    ``mark_committed`` empties them). ``handle_table`` is the session's
    live :class:`~repro.spec.HandleTable`; ``None`` skips handle checks
    (buffer-only validation, used by unit tests).
    """
    conflicts: list[Conflict] = []

    # Buffers: write_seq moved past the captured epoch => bytes written
    # inside the window. The replayed span set is exactly the dirty
    # bytes stamped with a later epoch.
    # A buffer never built at the cut has epoch 0.
    captures = [
        *image.contents_captures,
        *((buf, (), 0) for buf in image.built_since_cut()),
    ]
    for contents, _spans, epoch in captures:
        if contents.write_seq > epoch:
            nbytes = contents.dirty_bytes_since(epoch)
            if nbytes > 0:
                conflicts.append(
                    Conflict(
                        kind="buffer",
                        key=id(contents),
                        cut_version=epoch,
                        live_version=contents.write_seq,
                        nbytes=nbytes,
                    )
                )

    # Host regions: page-granular, same epoch rule.
    for region, _pages, epoch in image.region_captures:
        if region.write_seq > epoch:
            n_pages = region.dirty_pages_since(epoch)
            if n_pages:
                conflicts.append(
                    Conflict(
                        kind="region",
                        key=region.start,
                        cut_version=epoch,
                        live_version=region.write_seq,
                        nbytes=n_pages * PAGE_SIZE,
                    )
                )

    # Streams / events / modules: version table diff against the blob
    # snapshot taken at the cut.
    if handle_table is not None:
        versions = image.blobs.get("crac/spec-versions")
        if versions is not None:
            for kind, key, at_cut, live in handle_table.advanced_since(
                versions.payload
            ):
                conflicts.append(
                    Conflict(
                        kind=kind,
                        key=key,
                        cut_version=at_cut,
                        live_version=live,
                    )
                )
    return conflicts


def brute_force_advanced(
    before: dict[str, dict[int, int]], table
) -> list[tuple[str, int, int, int]]:
    """Reference oracle for :meth:`HandleTable.advanced_since`: compare
    every live record against the snapshot dict directly. Used by the
    conflict-detector unit tests to cross-check the production path."""
    rows: list[tuple[str, int, int, int]] = []
    for (kind, key), rec in sorted(table.records.items()):
        at_cut = before.get(kind, {}).get(key, None)
        if at_cut is None:
            if rec.version > 0 or not rec.live:
                rows.append((kind, key, 0, rec.version))
        elif rec.version > at_cut:
            rows.append((kind, key, at_cut, rec.version))
    return rows
