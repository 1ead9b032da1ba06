"""Reference (pre-vectorization) dirty-tracking implementation.

This module preserves the original pure-Python span-list algorithms
that :class:`repro.gpu.memory.PagedContents` used for dirty/epoch
tracking before the numpy :class:`repro.gpu.intervals.EpochIntervalIndex`
replaced them. It exists for two reasons:

- the Hypothesis equivalence suite
  (``tests/gpu/test_dirty_vector_equivalence.py``) runs random op
  sequences against both implementations and asserts observational
  equality, which is what lets the vectorized index claim *exact*
  epoch-bounded-commit semantics rather than "probably the same";
- ``repro bench perf`` measures the micro speedup of the new index
  against this one on synthetic write traces, backing the ROADMAP's
  ≥5x target with an apples-to-apples number.

Do not use this in the runtime path; it is O(spans) per write.
"""

from __future__ import annotations

from repro.gpu.memory import merge_spans, subtract_spans


class LegacyDirtyIndex:
    """The original per-write span-list rebuild, verbatim semantics."""

    __slots__ = ("_dirty",)

    def __init__(self) -> None:
        #: sorted disjoint (start, end, epoch) ranges
        self._dirty: list[tuple[int, int, int]] = []

    def mark(self, lo: int, hi: int, epoch: int) -> None:
        """Record a write of ``[lo, hi)`` at ``epoch`` (O(spans) rebuild)."""
        if hi <= lo:
            return
        out: list[tuple[int, int, int]] = []
        for s, e, ep in self._dirty:
            if e <= lo or s >= hi:
                out.append((s, e, ep))
                continue
            # The new write supersedes the overlapped part's epoch.
            if s < lo:
                out.append((s, lo, ep))
            if e > hi:
                out.append((hi, e, ep))
        out.append((lo, hi, epoch))
        out.sort()
        merged: list[tuple[int, int, int]] = []
        for s, e, ep in out:
            if merged and merged[-1][1] == s and merged[-1][2] == ep:
                merged[-1] = (merged[-1][0], e, ep)
            else:
                merged.append((s, e, ep))
        self._dirty = merged

    def spans(self) -> list[tuple[int, int]]:
        """Dirty byte ranges, merged across epochs."""
        return merge_spans([(lo, hi) for lo, hi, _ in self._dirty])

    def intervals(self) -> list[tuple[int, int, int]]:
        """All ``(start, end, epoch)`` triples (sorted, disjoint)."""
        return list(self._dirty)

    @property
    def byte_count(self) -> int:
        return sum(hi - lo for lo, hi, _ in self._dirty)

    def bytes_since(self, epoch: int) -> int:
        """Bytes whose last write came strictly after ``epoch``."""
        return sum(hi - lo for lo, hi, ep in self._dirty if ep > epoch)

    def clear_all(self) -> None:
        """Forget everything (a full-image commit)."""
        self._dirty = []

    def clear(self, spans, up_to_epoch: int | None = None) -> None:
        """Remove ``spans`` from the index, epoch-bounded."""
        clear = merge_spans(list(spans))
        out: list[tuple[int, int, int]] = []
        for s, e, ep in self._dirty:
            if up_to_epoch is not None and ep > up_to_epoch:
                out.append((s, e, ep))
                continue
            out.extend(
                (p_lo, p_hi, ep)
                for p_lo, p_hi in subtract_spans([(s, e)], clear)
            )
        self._dirty = out

    def __bool__(self) -> bool:
        return bool(self._dirty)


class LegacyWrittenSet:
    """The original per-write ``merge_spans(written + [(lo, hi)])``
    rebuild used by the sanitizer's initcheck coverage."""

    __slots__ = ("_written",)

    def __init__(self, spans=()) -> None:
        self._written: list[tuple[int, int]] = merge_spans(list(spans))

    def add(self, lo: int, hi: int) -> None:
        """Insert ``[lo, hi)`` via a full ``merge_spans`` rebuild."""
        self._written = merge_spans(self._written + [(lo, hi)])

    def spans(self) -> list[tuple[int, int]]:
        """The merged intervals as a list of ``(lo, hi)`` tuples."""
        return list(self._written)

    def holes(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Sub-ranges of ``[lo, hi)`` not covered by the set."""
        if hi <= lo:
            return []
        return subtract_spans([(lo, hi)], self._written)

    def covers(self, lo: int, hi: int) -> bool:
        """True iff ``[lo, hi)`` is entirely inside the set."""
        return not self.holes(lo, hi)

    @property
    def byte_count(self) -> int:
        return sum(hi - lo for lo, hi in self._written)

    def __bool__(self) -> bool:
        return bool(self._written)
