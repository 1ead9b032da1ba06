"""Interval structures for the capture and sanitize hot paths.

Both structures take writes as O(1) appends to a pending list and fold
them in only when queried, so a buffer written many times between two
queries pays for one fold, not one rebuild per write.

- :class:`EpochIntervalIndex` — each GPU buffer's dirty byte ranges:
  sorted disjoint ``(start, end, epoch)`` intervals, where ``epoch`` is
  the monotone write-sequence number of the range's *last* write. It
  backs every cut (incremental images save only the dirtied spans, and
  commit clears only what the snapshot captured, epoch-bounded). It
  holds three plain Python lists and folds each pending write with two
  bisects and one slice assignment: between two cuts a buffer holds
  zero or one interval and a handful of pending writes, and on arrays
  that small one numpy call costs more than the whole Python fold.
  ``tests/gpu/test_dirty_vector_equivalence`` pins every query to a
  per-byte dict model.
- :class:`SpanSet` — a sorted disjoint interval set (no epochs), the
  sanitizer's written-byte coverage (initcheck) and access-summary
  footprints. It keeps numpy arrays and one vectorized sort + merge per
  fold: a sanitized buffer gathers many writes between queries, and
  no benchmarked workload runs the sanitizer.

Flush precondition: ``EpochIntervalIndex.mark()`` must be called with
non-decreasing epochs (the caller's write counter is monotone), which
makes "last write wins" equal to "max epoch wins".
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


def _program_error(code_name: str, msg: str):
    """Classified program-severity error (deferred import: this module
    sits below ``repro.cuda`` in the import graph)."""
    from repro.cuda.errors import CudaErrorCode
    from repro.errors import CudaError

    return CudaError(
        f"{code_name}: {msg}", code=CudaErrorCode[code_name], severity="program"
    )


def _normalize(starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort + merge (possibly overlapping/touching) intervals, vectorized."""
    keep = ends > starts
    starts, ends = starts[keep], ends[keep]
    if starts.size == 0:
        return _EMPTY, _EMPTY
    order = np.argsort(starts, kind="stable")
    s, e = starts[order], ends[order]
    cm = np.maximum.accumulate(e)
    # A new merged group starts where the interval begins past the
    # running maximum end of everything before it.
    new_group = np.empty(s.size, dtype=bool)
    new_group[0] = True
    np.greater(s[1:], cm[:-1], out=new_group[1:])
    gidx = np.flatnonzero(new_group)
    out_s = s[gidx]
    last = np.empty(gidx.size, dtype=np.int64)
    last[:-1] = gidx[1:] - 1
    last[-1] = s.size - 1
    return out_s, cm[last]


class SpanSet:
    """Sorted disjoint byte intervals with O(1) lazy insertion.

    ``add`` appends to a pending list; any query first folds the pending
    intervals into the committed arrays with one vectorized merge. This
    replaces the sanitizer's per-write ``merge_spans(written + [(lo,
    hi)])`` full rebuild with amortized O(1) inserts.
    """

    __slots__ = ("_starts", "_ends", "_pending")

    def __init__(self, spans=()) -> None:
        self._starts = _EMPTY
        self._ends = _EMPTY
        self._pending: list[tuple[int, int]] = [
            (lo, hi) for lo, hi in spans if hi > lo
        ]

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)`` (amortized O(1))."""
        if hi > lo:
            self._pending.append((lo, hi))

    def _flush(self) -> None:
        if not self._pending:
            return
        p = np.asarray(self._pending, dtype=np.int64)
        self._pending.clear()
        self._starts, self._ends = _normalize(
            np.concatenate([self._starts, p[:, 0]]),
            np.concatenate([self._ends, p[:, 1]]),
        )

    def spans(self) -> list[tuple[int, int]]:
        """The merged intervals as a list of ``(lo, hi)`` tuples."""
        self._flush()
        return list(zip(self._starts.tolist(), self._ends.tolist()))

    def holes(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Sub-ranges of ``[lo, hi)`` not covered by the set."""
        if hi <= lo:
            return []
        self._flush()
        # Committed intervals overlapping the query window.
        i = int(np.searchsorted(self._ends, lo, side="right"))
        j = int(np.searchsorted(self._starts, hi, side="left"))
        gap_lo = np.concatenate([[lo], self._ends[i:j]])
        gap_hi = np.concatenate([self._starts[i:j], [hi]])
        gap_lo = np.clip(gap_lo, lo, hi)
        gap_hi = np.clip(gap_hi, lo, hi)
        keep = gap_hi > gap_lo
        return list(zip(gap_lo[keep].tolist(), gap_hi[keep].tolist()))

    def covers(self, lo: int, hi: int) -> bool:
        """True iff ``[lo, hi)`` is entirely inside the set."""
        if hi <= lo:
            return True
        self._flush()
        i = int(np.searchsorted(self._starts, lo, side="right")) - 1
        return i >= 0 and self._ends[i] >= hi

    @property
    def byte_count(self) -> int:
        self._flush()
        return int((self._ends - self._starts).sum())

    def __bool__(self) -> bool:
        return bool(self._pending) or self._starts.size > 0


class EpochIntervalIndex:
    """Disjoint ``(start, end, epoch)`` intervals; epoch = last write.

    The committed state is three parallel Python lists sorted by start:
    the intervals are non-empty and disjoint, and two that touch never
    share an epoch. :meth:`mark` is an O(1) append to a pending buffer;
    queries call :meth:`_flush`, which paints each pending write in
    order (later writes supersede earlier epochs byte for byte) with
    two bisects and one slice assignment per list.
    """

    __slots__ = ("_starts", "_ends", "_epochs", "_pending", "_last_epoch")

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._epochs: list[int] = []
        self._pending: list[tuple[int, int, int]] = []
        self._last_epoch = 0

    # -- write path ----------------------------------------------------------

    def mark(self, lo: int, hi: int, epoch: int) -> None:
        """Record a write of ``[lo, hi)`` at ``epoch`` (amortized O(1)).

        Epochs must be non-decreasing across calls — the flush paints in
        call order, so "last write wins" must coincide with "max epoch
        wins".
        """
        if hi <= lo:
            return
        if epoch < self._last_epoch:
            raise _program_error(
                "INVALID_VALUE",
                f"mark() epoch went backwards ({epoch} < {self._last_epoch})",
            )
        self._last_epoch = epoch
        self._pending.append((lo, hi, epoch))

    def _flush(self) -> None:
        """Paint the pending writes over the committed intervals.

        Each write replaces the intervals it overlaps or touches
        (``[i, j)``) with at most three: the uncovered head of the first,
        the write itself, and the uncovered tail of the last. A head or
        tail whose epoch equals the write's is absorbed into it.
        """
        starts, ends, epochs = self._starts, self._ends, self._epochs
        for lo, hi, ep in self._pending:
            i = bisect_left(ends, lo)
            j = bisect_right(starts, hi, i)
            s_new, e_new, ep_new = [lo], [hi], [ep]
            if i < j:
                if starts[i] < lo:
                    if epochs[i] == ep:
                        s_new[0] = starts[i]
                    else:
                        s_new.insert(0, starts[i])
                        e_new.insert(0, lo)
                        ep_new.insert(0, epochs[i])
                if ends[j - 1] > hi:
                    if epochs[j - 1] == ep:
                        e_new[-1] = ends[j - 1]
                    else:
                        s_new.append(hi)
                        e_new.append(ends[j - 1])
                        ep_new.append(epochs[j - 1])
            starts[i:j] = s_new
            ends[i:j] = e_new
            epochs[i:j] = ep_new
        self._pending.clear()

    # -- queries -------------------------------------------------------------

    def intervals(self) -> list[tuple[int, int, int]]:
        """All ``(start, end, epoch)`` triples (sorted, disjoint)."""
        if self._pending:
            self._flush()
        return list(zip(self._starts, self._ends, self._epochs))

    def spans(self) -> list[tuple[int, int]]:
        """Dirty byte ranges, merged across epochs."""
        if self._pending:
            self._flush()
        out: list[tuple[int, int]] = []
        for s, e in zip(self._starts, self._ends):
            if out and out[-1][1] == s:
                out[-1] = (out[-1][0], e)
            else:
                out.append((s, e))
        return out

    @property
    def byte_count(self) -> int:
        """Total dirty bytes."""
        if self._pending:
            self._flush()
        return sum(self._ends) - sum(self._starts)

    def bytes_since(self, epoch: int) -> int:
        """Bytes whose last write came strictly after ``epoch``."""
        if self._pending:
            self._flush()
        total = 0
        for s, e, ep in zip(self._starts, self._ends, self._epochs):
            if ep > epoch:
                total += e - s
        return total

    # -- clearing ------------------------------------------------------------

    def clear_all(self) -> None:
        """Forget everything (a full-image commit)."""
        self._starts, self._ends, self._epochs = [], [], []
        self._pending.clear()

    def clear(self, spans, up_to_epoch: int | None = None) -> None:
        """Remove ``spans`` (in any order, possibly overlapping) from the
        index, epoch-bounded.

        With ``up_to_epoch`` only bytes whose last write is at or before
        that epoch are cleared — bytes re-written while a (forked) image
        was still flushing stay dirty for the next incremental cut.
        Cutting only removes bytes, so no two intervals come to touch
        that did not before.
        """
        if self._pending:
            self._flush()
        starts, ends, epochs = self._starts, self._ends, self._epochs
        if not starts:
            return
        for lo, hi in spans:
            if hi <= lo:
                continue
            i = bisect_right(ends, lo)
            j = bisect_left(starts, hi, i)
            s_new: list[int] = []
            e_new: list[int] = []
            ep_new: list[int] = []
            for k in range(i, j):
                s, e, ep = starts[k], ends[k], epochs[k]
                if up_to_epoch is not None and ep > up_to_epoch:
                    s_new.append(s)
                    e_new.append(e)
                    ep_new.append(ep)
                    continue
                if s < lo:
                    s_new.append(s)
                    e_new.append(lo)
                    ep_new.append(ep)
                if e > hi:
                    s_new.append(hi)
                    e_new.append(e)
                    ep_new.append(ep)
            starts[i:j] = s_new
            ends[i:j] = e_new
            epochs[i:j] = ep_new

    def __bool__(self) -> bool:
        return bool(self._pending) or bool(self._starts)
