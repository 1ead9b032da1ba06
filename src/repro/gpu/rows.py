"""Allocation tables in which a row is one allocation or a run of them.

The runtime keeps its allocations in address-keyed tables: size per
address, uid per never-built address, block size per arena address. An
app that makes N equal allocations at once (``malloc_run``) gets them
carved from one free block, evenly spaced, with consecutive uids. A
:class:`RowTable` keeps those N keys as one *run* row, ``(start, step,
count)`` with the values ``v0 + i * dv`` (``dv`` 0 for a size, 1 for a
uid), so making, recording, comparing, replaying and freeing the run
costs one row whatever N is. A key made alone is a *lone* row: a plain
dict entry.

Seen as a mapping, a table is exactly the per-address dict it stands
for: lookups, ``in``, ``len``, iteration, ``items()``, ``==`` and the
key view's set operations see one key per allocation, in the dict's
insertion order. A run sits in that order where its first key was
inserted. Removing a member (freed, or built and so no longer
never-built) splits its run's *piece* in two, or shortens it; the run
keeps its place, so the remaining keys keep theirs.

Layout. :attr:`RowTable.rows` is a dict in insertion order: a lone key
maps to its value, and a run maps its ``range`` (as inserted) to its
:class:`_Run`, which lists the pieces still held. :attr:`RowTable.pieces`
lists every piece by start address, for a bisect. A lone key that the
table does not hold is inserted with ``table.rows[key] = value`` and a
lone key it holds is removed with ``table.rows.pop(key)``: plain dict
operations, at dict speed. A key a run holds is found by the bisect
instead, which the mapping methods fall back to.

The keys are the starts of disjoint address blocks and a run's members
are adjacent blocks of ``step`` bytes (an arena carves them so): no key
lies inside another row's piece, which is what makes a piece found by
the bisect the only one that can hold an address.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import ItemsView, KeysView, Mapping, MutableMapping
from itertools import compress, count as counting, filterfalse, islice
from operator import attrgetter, eq, itemgetter, not_
from typing import Iterable, Iterator, Sequence

#: bisect key of :attr:`RowTable.pieces`
_start = attrgetter("start")
_piece_rows = attrgetter("start", "count", "v0")
_first = itemgetter(0)
_MISSING = object()


def as_ranges(addrs: Sequence[int], step: int | None = None) -> tuple[range, ...]:
    """``addrs`` as the ranges that list them in order, each as long as
    it goes: a ``range`` is its own, a list carved from several free
    blocks gives at most one per block. With ``step``, only that stride
    makes a range of more than one address (a run's rows: adjacent
    blocks of ``step`` bytes)."""
    if type(addrs) is range:
        return (addrs,)
    out = []
    start, n = 0, len(addrs)
    fixed = step
    while start < n:
        first = addrs[start]
        step = fixed or (addrs[start + 1] - first if start + 1 < n else 1)
        span = range(first, first + (n - start) * (step or 1), step or 1)
        # one C-level pass: where the addresses leave the stride
        stop = bytes(map(eq, islice(addrs, start, None), span)).find(0)
        if stop < 0:
            stop = n - start
        out.append(span[:stop])
        start += stop
    return tuple(out)


class _Run:
    """A run row: its members still in the table, as pieces in address
    order; member ``i`` of a piece is ``start + i * step`` with the value
    ``v0 + i * dv``."""

    __slots__ = ("key", "step", "dv", "pieces")

    def __init__(self, key: range, step: int, dv: int) -> None:
        self.key = key
        self.step = step
        self.dv = dv
        self.pieces: list[_Piece] = []

    def __eq__(self, other) -> bool:
        return (
            type(other) is _Run and self.step == other.step
            and self.dv == other.dv
            and list(map(_piece_rows, self.pieces))
            == list(map(_piece_rows, other.pieces))
        )

    __hash__ = None


class _Piece:
    """``count`` adjacent members of a run, from ``start``, the first
    with the value ``v0``."""

    __slots__ = ("start", "count", "v0", "run")

    def __init__(self, start: int, count: int, v0: int, run: _Run) -> None:
        self.start = start
        self.count = count
        self.v0 = v0
        self.run = run


class RowTable(MutableMapping):
    """An address -> int table whose row is one key or a run of evenly
    spaced keys with evenly spaced values (module docstring)."""

    __slots__ = ("rows", "pieces", "_runs", "_members")

    def __init__(self, items=()) -> None:
        #: the rows in insertion order: key -> value, run range -> _Run
        self.rows: dict = {}
        #: every run's pieces, by start address
        self.pieces: list[_Piece] = []
        self._runs = 0  # run rows in ``rows``
        self._members = 0  # keys the pieces hold
        if items:
            self.update(items)

    # -- rows ------------------------------------------------------------------

    def insert_run(
        self, start: int, step: int, count: int, v0: int, dv: int = 0
    ) -> None:
        """Add the keys ``start + i * step`` (``i < count``) with the
        values ``v0 + i * dv`` as one row at the end of the order. The
        table holds no key in their span; a run of one is a lone row."""
        if count == 1:
            self.rows[start] = v0
            return
        key = range(start, start + count * step, step)
        run = _Run(key, step, dv)
        piece = _Piece(start, count, v0, run)
        run.pieces.append(piece)
        self.rows[key] = run
        pieces = self.pieces
        pieces.insert(bisect_right(pieces, start, key=_start), piece)
        self._runs += 1
        self._members += count

    def pop_run(self, keys: range, value: int | None = None) -> bool:
        """Remove every key of ``keys``; ``False``, with nothing removed,
        if the table lacks one, or (given ``value``) holds one with
        another value. A stretch of one piece (a whole run, as
        ``free_run`` gives it back) is one bisect and one cut."""
        n = len(keys)
        if keys.step < 0:
            keys = keys[::-1]
        pieces = self.pieces
        if pieces and n:
            start = keys.start
            i = bisect_right(pieces, start, key=_start) - 1
            if i >= 0:
                p = pieces[i]
                run = p.run
                step = run.step
                off = start - p.start
                if ((keys.step == step or n == 1) and not off % step
                        and off // step + n <= p.count):
                    lo = off // step
                    if value is not None and (
                        p.v0 + lo * run.dv != value or run.dv and n > 1
                    ):
                        return False
                    if lo == 0 and n == p.count:  # the whole piece
                        del pieces[i]
                        run.pieces.remove(p)
                        self._members -= n
                        if not run.pieces:
                            del self.rows[run.key]
                            self._runs -= 1
                    else:
                        self._cut(p, lo, lo + n)
                    return True
        parts = self._cover(keys.start, keys.step, n)
        for _, c, v0, dv, _ in parts:
            if v0 is None or value is not None and (
                v0 != value or dv and c > 1
            ):
                return False
        for s, c, _, _, piece in reversed(parts):
            if piece is None:
                del self.rows[s]
            else:
                lo = (s - piece.start) // piece.run.step
                self._cut(piece, lo, lo + c)
        return True

    def floor(self, key: int) -> int | None:
        """The greatest key held at or below ``key``, or ``None``: a
        bisect over the pieces and a C-level pass over the lone keys."""
        rows = self.rows
        pieces = self.pieces
        lone = filterfalse(range.__instancecheck__, rows) if pieces else rows
        best = max(filter(key.__ge__, lone), default=None)
        i = bisect_right(pieces, key, key=_start) - 1
        if i >= 0:
            p = pieces[i]
            step = p.run.step
            top = p.start + min(p.count - 1, (key - p.start) // step) * step
            if best is None or top > best:
                best = top
        return best

    def _find(self, key) -> _Piece | None:
        """The piece holding ``key`` as a member, if any."""
        pieces = self.pieces
        try:
            i = bisect_right(pieces, key, key=_start) - 1
        except TypeError:  # not an address
            return None
        if i >= 0:
            p = pieces[i]
            off = key - p.start
            step = p.run.step
            if off < p.count * step and not off % step:
                return p
        return None

    def _cut(self, p: _Piece, i: int, j: int) -> None:
        """Remove members ``i`` to ``j - 1`` of piece ``p``."""
        run = p.run
        step = run.step
        pieces = self.pieces
        self._members -= j - i
        if i == 0 and j == p.count:
            del pieces[bisect_right(pieces, p.start, key=_start) - 1]
            run.pieces.remove(p)
            if not run.pieces:
                del self.rows[run.key]
                self._runs -= 1
        elif i == 0:
            p.start += j * step
            p.v0 += j * run.dv
            p.count -= j
        elif j == p.count:
            p.count = i
        else:
            right = _Piece(p.start + j * step, p.count - j, p.v0 + j * run.dv,
                           run)
            p.count = i
            run.pieces.insert(run.pieces.index(p) + 1, right)
            pieces.insert(bisect_right(pieces, p.start, key=_start), right)

    def _set_member(self, p: _Piece, key: int, value: int) -> None:
        """Give a run member its own value, in its place: its piece
        splits around a piece of one."""
        if p.count == 1:
            p.v0 = value
            return
        run = p.run
        step = run.step
        i = (key - p.start) // step
        parts = [_Piece(key, 1, value, run)]
        if i:
            parts.insert(0, _Piece(p.start, i, p.v0, run))
        if i + 1 < p.count:
            parts.append(_Piece(key + step, p.count - i - 1,
                                p.v0 + (i + 1) * run.dv, run))
        at = run.pieces.index(p)
        run.pieces[at:at + 1] = parts
        pieces = self.pieces
        at = bisect_right(pieces, p.start, key=_start) - 1
        pieces[at:at + 1] = parts

    def _cover(self, start: int, step: int, count: int) -> list[tuple]:
        """The keys ``start + i * step`` (``i < count``, ``step > 0``) in
        address order, as stretches ``(first, n, v0, dv, piece)``: held
        with the values ``v0 + i * dv`` (``piece`` the run piece holding
        them, ``None`` for a lone key), or lacked (``v0`` ``None``)."""
        end = start + count * step
        rows = self.rows
        if count <= len(rows):
            hits = [a for a in range(start, end, step) if a in rows]
        else:
            hits = sorted(
                a for a in filterfalse(range.__instancecheck__, rows)
                if start <= a < end and not (a - start) % step
            )
        parts = [(a, 1, rows[a], 0, None) for a in hits]
        pieces = self.pieces
        if pieces:
            i = max(bisect_right(pieces, start, key=_start) - 1, 0)
            for p in islice(pieces, i, None):
                if p.start >= end:
                    break
                run = p.run
                pstep = run.step
                pend = p.start + p.count * pstep
                if pend <= start:
                    continue
                if pstep == step and not (p.start - start) % step:
                    lo, hi = max(start, p.start), min(end, pend)
                    parts.append((lo, (hi - lo) // step,
                                  p.v0 + (lo - p.start) // step * run.dv,
                                  run.dv, p))
                    continue
                # another stride: the members both list, one by one
                first = start + -(-(max(p.start, start) - start) // step) * step
                for a in range(first, min(end, pend), step):
                    if not (a - p.start) % pstep:
                        parts.append((a, 1, p.v0 + (a - p.start) // pstep
                                      * run.dv, 0, p))
            parts.sort(key=_first)
        out = []
        at = start
        for part in parts:
            if part[0] > at:
                out.append((at, (part[0] - at) // step, None, 0, None))
            out.append(part)
            at = part[0] + part[1] * step
        if at < end:
            out.append((at, (end - at) // step, None, 0, None))
        return out

    def _pairs(self, other: RowTable, split: bool = True) -> Iterator[tuple]:
        """This table's keys against ``other``'s, row by row in order:
        stretches ``(first, step, n, v0, dv, ov0, odv)`` of keys with the
        values ``v0 + i * dv`` here and ``ov0 + i * odv`` in ``other``
        (``ov0`` ``None`` where ``other`` lacks them). With ``split``, a
        stretch whose values drift apart (``dv != odv``) comes member by
        member, so each stretch's values are all equal or all differ."""
        get = other.get if other.pieces else other.rows.get
        for key, value in self.rows.items():
            if type(key) is not range:
                yield key, 1, 1, value, 0, get(key), 0
                continue
            step, dv = value.step, value.dv
            for p in value.pieces:
                for s, n, ov0, odv, _ in other._cover(p.start, step, p.count):
                    v0 = p.v0 + (s - p.start) // step * dv
                    if not split or ov0 is None or n == 1 or odv == dv:
                        yield s, step, n, v0, dv, ov0, odv
                    else:
                        for i in range(n):
                            yield (s + i * step, step, 1, v0 + i * dv, 0,
                                   ov0 + i * odv, 0)

    @classmethod
    def _of_parts(cls, parts: Iterable[tuple]) -> RowTable:
        table = cls()
        for s, step, n, v0, dv, _, _ in parts:
            table.insert_run(s, step, n, v0, dv)
        return table

    # -- joins -------------------------------------------------------------------

    def common_keys(self, keys: Iterable[int]) -> list[int]:
        """The keys among ``keys`` this table holds, in their order."""
        if not self.pieces:
            return list(filter(self.rows.__contains__, keys))
        return list(filter(self.__contains__, keys))

    def matching(self, other: RowTable) -> RowTable:
        """This table's rows where ``other`` holds the same key with the
        same value."""
        if not (self.pieces or other.pieces):
            rows = self.rows
            return RowTable._of_rows(dict(compress(
                rows.items(), map(eq, map(other.rows.get, rows), rows.values())
            )))
        return RowTable._of_parts(p for p in self._pairs(other) if p[5] == p[3])

    def agreeing(self, other: RowTable) -> RowTable:
        """This table's rows where ``other`` lacks the key or holds it
        with the same value."""
        if not (self.pieces or other.pieces):
            rows = self.rows
            values = rows.values()
            return RowTable._of_rows(dict(compress(
                rows.items(), map(eq, map(other.rows.get, rows, values), values)
            )))
        return RowTable._of_parts(
            p for p in self._pairs(other) if p[5] is None or p[5] == p[3]
        )

    def without(self, other: RowTable) -> RowTable:
        """This table's rows whose key ``other`` lacks."""
        if not (self.pieces or other.pieces):
            rows = self.rows
            return RowTable._of_rows(dict(compress(
                rows.items(), map(not_, map(other.rows.__contains__, rows))
            )))
        return RowTable._of_parts(
            p for p in self._pairs(other, split=False) if p[5] is None
        )

    def total(self, keys: RowTable | Iterable[int] | None = None) -> int:
        """The sum of the values at ``keys``, every one of them held (by
        default of all values): size times count for a run of sizes."""
        if keys is None:
            keys = self
        if type(keys) is not RowTable:
            return sum(map(self.__getitem__, keys))
        if not (self.pieces or keys.pieces):
            return sum(map(self.rows.__getitem__, keys.rows))
        total = 0
        for s, _, n, _, _, ov0, odv in keys._pairs(self, split=False):
            if ov0 is None:
                raise KeyError(s)
            total += n * ov0 + odv * n * (n - 1) // 2
        return total

    @classmethod
    def _of_rows(cls, rows: dict) -> RowTable:
        """A table of lone ``rows`` (no run), made without ``__init__``."""
        table = cls.__new__(cls)
        table.rows = rows
        table.pieces = []
        table._runs = table._members = 0
        return table

    def __reduce__(self):
        # As its rows (and pieces): a table pickles about as fast as a dict.
        return _unpickle, (self.rows, self.pieces) if self.pieces else (
            self.rows,
        )

    # -- the mapping ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows) - self._runs + self._members

    def __contains__(self, key) -> bool:
        return key in self.rows or bool(self.pieces) and (
            self._find(key) is not None
        )

    def __getitem__(self, key):
        value = self.rows.get(key, _MISSING)
        if value is _MISSING:
            p = self._find(key) if self.pieces else None
            if p is None:
                raise KeyError(key)
            run = p.run
            return p.v0 + (key - p.start) // run.step * run.dv
        return value

    def get(self, key, default=None):
        value = self.rows.get(key, _MISSING)
        if value is not _MISSING:
            return value
        p = self._find(key) if self.pieces else None
        if p is None:
            return default
        run = p.run
        return p.v0 + (key - p.start) // run.step * run.dv

    def __setitem__(self, key, value) -> None:
        p = self._find(key) if self.pieces else None
        if p is None:
            self.rows[key] = value
        else:
            self._set_member(p, key, value)

    def __delitem__(self, key) -> None:
        if self.rows.pop(key, _MISSING) is _MISSING:
            p = self._find(key) if self.pieces else None
            if p is None:
                raise KeyError(key)
            i = (key - p.start) // p.run.step
            self._cut(p, i, i + 1)

    def pop(self, key, default=_MISSING):
        value = self.rows.pop(key, _MISSING)
        if value is not _MISSING:
            return value
        p = self._find(key) if self.pieces else None
        if p is None:
            if default is _MISSING:
                raise KeyError(key)
            return default
        run = p.run
        i = (key - p.start) // run.step
        value = p.v0 + i * run.dv
        self._cut(p, i, i + 1)
        return value

    def __iter__(self) -> Iterator[int]:
        if not self.pieces:
            return iter(self.rows)
        return self._expand(False)

    def _expand(self, values: bool) -> Iterator:
        """Every key (or ``(key, value)`` pair) in order."""
        for key, value in self.rows.items():
            if type(key) is not range:
                yield (key, value) if values else key
                continue
            step, dv = value.step, value.dv
            for p in value.pieces:
                keys = range(p.start, p.start + p.count * step, step)
                if values:
                    yield from zip(keys, counting(p.v0, dv))
                else:
                    yield from keys

    def keys(self) -> RowKeys:
        return RowKeys(self)

    def items(self) -> ItemsView:
        return _RowItems(self)

    def clear(self) -> None:
        self.rows.clear()
        self.pieces.clear()
        self._runs = self._members = 0

    def copy(self) -> RowTable:
        """An independent table with the same rows."""
        new = RowTable._of_rows(self.rows.copy())
        if self.pieces:
            twins: dict[int, _Piece] = {}
            for run in {id(p.run): p.run for p in self.pieces}.values():
                twin = _Run(run.key, run.step, run.dv)
                twin.pieces = [_Piece(p.start, p.count, p.v0, twin)
                               for p in run.pieces]
                twins.update(zip(map(id, run.pieces), twin.pieces))
                new.rows[run.key] = twin
            new.pieces = [twins[id(p)] for p in self.pieces]
            new._runs, new._members = self._runs, self._members
        return new

    def update(self, other=(), /, **kwargs) -> None:
        """``dict.update``; another table's runs stay runs where this
        table holds none of their keys."""
        if type(other) is not RowTable:
            MutableMapping.update(self, other, **kwargs)
            return
        if not (self.pieces or other.pieces):
            self.rows.update(other.rows)
            return
        for key, value in other.rows.items():
            if type(key) is not range:
                self[key] = value
                continue
            step, dv = value.step, value.dv
            for p in value.pieces:
                if all(part[2] is None
                       for part in self._cover(p.start, step, p.count)):
                    self.insert_run(p.start, step, p.count, p.v0, dv)
                else:
                    for k, v in zip(range(p.start, p.start + p.count * step,
                                          step), counting(p.v0, dv)):
                        self[k] = v

    def __eq__(self, other) -> bool:
        if type(other) is RowTable:
            if self.rows == other.rows:
                return True
            if not (self.pieces or other.pieces):
                return False
            return len(self) == len(other) and all(
                p[5] == p[3] for p in self._pairs(other)
            )
        if isinstance(other, Mapping):
            if not self.pieces:
                return self.rows == dict(other.items())
            return dict(self._expand(True)) == dict(other.items())
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"RowTable({dict(self._expand(True))!r})"


def _unpickle(rows: dict, pieces: list | None = None) -> RowTable:
    """The table pickled as ``rows`` and ``pieces``."""
    table = RowTable.__new__(RowTable)
    table.rows = rows
    if pieces:
        table.pieces = pieces
        table._runs = len({id(p.run) for p in pieces})
        table._members = sum(p.count for p in pieces)
    else:
        table.pieces = []
        table._runs = table._members = 0
    return table


class RowKeys(KeysView):
    """The key view of a :class:`RowTable`; ``<=`` against another
    table's keys goes row by row."""

    __slots__ = ()

    def __le__(self, other):
        if type(other) is RowKeys:
            mine, theirs = self._mapping, other._mapping
            if not (mine.pieces or theirs.pieces):
                return mine.rows.keys() <= theirs.rows.keys()
            return all(
                p[5] is not None for p in mine._pairs(theirs, split=False)
            )
        return KeysView.__le__(self, other)


class _RowItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        table = self._mapping
        if not table.pieces:
            return iter(table.rows.items())
        return table._expand(True)

