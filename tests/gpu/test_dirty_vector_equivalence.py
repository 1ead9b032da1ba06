"""Observational equivalence: interval structures vs reference models.

The dirty index (Python lists) and the written-span set (numpy arrays)
answer every query byte-for-byte like a per-offset reference model: a
dict offset -> epoch of last write for :class:`EpochIntervalIndex`, a
set of written offsets for :class:`SpanSet`. The dirty model also
repeats an epoch (``remark``), which drives the index's merge of
touching writes of one epoch, and clears overlapping spans. The
racecheck scan is pinned against the plain loop it replaced.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.intervals import EpochIntervalIndex, SpanSet
from repro.sanitizer.core import _Access, _AccessIndex
from repro.sanitizer.vector_clock import VectorClock

SIZE = 256

span = st.tuples(
    st.integers(min_value=0, max_value=SIZE - 1),
    st.integers(min_value=1, max_value=64),
).map(lambda t: (t[0], min(SIZE, t[0] + t[1])))


@st.composite
def overlapping_spans(draw):
    """Two spans that share at least one byte, in either order."""
    lo, hi = draw(span)
    a = draw(st.integers(min_value=0, max_value=hi - 1))
    b = draw(st.integers(
        min_value=max(a, lo) + 1, max_value=min(SIZE, max(a, lo) + 64)
    ))
    return draw(st.permutations([(lo, hi), (a, b)]))


dirty_op = st.one_of(
    st.tuples(st.just("mark"), span),
    st.tuples(st.just("remark"), span),
    st.tuples(st.just("clear"), st.lists(span, max_size=3)),
    st.tuples(st.just("clear"), overlapping_spans()),
    st.tuples(st.just("clear_all"), st.just(None)),
    st.tuples(st.just("query"), st.just(None)),
)


def runs(offsets, key=lambda off: True):
    """Maximal ``(lo, hi, key)`` runs of consecutive offsets sharing one
    key, in offset order."""
    out: list[list[int]] = []
    for off in sorted(offsets):
        k = key(off)
        if out and out[-1][1] == off and out[-1][2] == k:
            out[-1][1] = off + 1
        else:
            out.append([off, off + 1, k])
    return [tuple(r) for r in out]


def assert_matches_model(index, model, since):
    """Every query of ``index`` answers as the dict ``model`` does."""
    assert index.intervals() == runs(model, model.get)
    assert index.spans() == [(lo, hi) for lo, hi, _ in runs(model)]
    assert index.byte_count == len(model)
    assert index.bytes_since(since) == sum(
        1 for ep in model.values() if ep > since
    )


def replay(ops):
    """Drive the dirty index and a dict model through the
    same ops; check every query against the model; return the pair.
    ``remark`` writes at the last epoch again (the first write of all
    takes epoch 1), so epochs stay non-decreasing."""
    index = EpochIntervalIndex()
    model: dict[int, int] = {}  # offset -> epoch of last write
    epoch = 0
    snap = 0
    for kind, arg in ops:
        if kind in ("mark", "remark"):
            lo, hi = arg
            if kind == "mark" or epoch == 0:
                epoch += 1
            index.mark(lo, hi, epoch)
            for off in range(lo, hi):
                model[off] = epoch
        elif kind == "clear":
            index.clear(arg, up_to_epoch=snap)
            for lo, hi in arg:
                for off in range(lo, hi):
                    if model.get(off, 0) <= snap:
                        model.pop(off, None)
        elif kind == "clear_all":
            index.clear_all()
            model.clear()
        else:
            assert_matches_model(index, model, snap)
            snap = epoch
    return index, model


@settings(max_examples=150)
@given(st.lists(dirty_op, max_size=30))
def test_dirty_index_equivalence(ops):
    index, model = replay(ops)
    assert_matches_model(index, model, 0)
    assert bool(index) == bool(model)


@settings(max_examples=150)
@given(st.lists(dirty_op, max_size=30), st.integers(0, 40))
def test_bytes_since_equivalence(ops, since):
    index, model = replay(ops)
    assert index.bytes_since(since) == sum(
        1 for ep in model.values() if ep > since
    )


written_op = st.one_of(
    st.tuples(st.just("add"), span),
    st.tuples(st.just("holes"), span),
    st.tuples(st.just("covers"), span),
)


@settings(max_examples=150)
@given(st.lists(written_op, max_size=40), st.lists(span, max_size=2))
def test_span_set_equivalence(ops, initial):
    written = SpanSet(initial)
    covered = {
        off for lo, hi in initial for off in range(lo, hi)
    }
    for kind, (lo, hi) in ops:
        if kind == "add":
            written.add(lo, hi)
            covered.update(range(lo, hi))
        elif kind == "holes":
            missing = [o for o in range(lo, hi) if o not in covered]
            assert written.holes(lo, hi) == [
                (a, b) for a, b, _ in runs(missing)
            ]
        else:
            assert written.covers(lo, hi) == all(
                o in covered for o in range(lo, hi)
            )
    assert written.spans() == [(lo, hi) for lo, hi, _ in runs(covered)]
    assert written.byte_count == len(covered)
    assert bool(written) == bool(covered)


# -- racecheck scan ----------------------------------------------------------

clock = st.dictionaries(
    st.sampled_from([0, 1, 2, 3, "host"]),
    st.integers(min_value=1, max_value=4),
    max_size=4,
).map(VectorClock)

access = st.tuples(
    span, st.booleans(), st.sampled_from([0, 1, 2, 3]), clock
)


def brute_force_races(accesses, lo, hi, write, sid, probe_clock):
    """The pre-vectorization racecheck scan, as a plain loop."""
    rows = []
    for i, a in enumerate(accesses):
        if a.hi <= lo or a.lo >= hi:
            continue
        if not (write or a.write) or a.sid == sid:
            continue
        if a.clock.concurrent_with(probe_clock):
            rows.append(i)
    return rows


@settings(max_examples=150)
@given(st.lists(access, max_size=25), st.lists(access, max_size=8))
def test_race_rows_match_brute_force(recorded, probes):
    index = _AccessIndex()
    accesses = []
    for i, ((lo, hi), write, sid, vc) in enumerate(recorded):
        a = _Access(lo, hi, write, sid, vc, i, f"op{i}")
        accesses.append(a)
        index.add(a)
    for (lo, hi), write, sid, vc in probes:
        assert index.race_rows(lo, hi, sid, write, vc) == (
            brute_force_races(accesses, lo, hi, write, sid, vc)
        )


@settings(max_examples=100)
@given(st.lists(access, max_size=12), st.lists(access, max_size=12),
       st.lists(access, max_size=4))
def test_race_rows_survive_rebuild(first, second, probes):
    """rebuild() after pruning answers like a fresh index."""
    index = _AccessIndex()
    accesses = []
    for i, ((lo, hi), write, sid, vc) in enumerate(first + second):
        a = _Access(lo, hi, write, sid, vc, i, f"op{i}")
        accesses.append(a)
        index.add(a)
    kept = accesses[len(first):]
    index.rebuild(kept)
    fresh = _AccessIndex()
    for a in kept:
        fresh.add(a)
    for (lo, hi), write, sid, vc in probes:
        assert index.race_rows(lo, hi, sid, write, vc) == (
            fresh.race_rows(lo, hi, sid, write, vc)
        )


def test_epoch_regression_rejected():
    """Epochs are the buffer write sequence — monotone by construction;
    the index enforces the precondition its last-write-wins flush
    relies on."""
    from repro.cuda.errors import CudaError

    idx = EpochIntervalIndex()
    idx.mark(0, 10, 5)
    try:
        idx.mark(0, 10, 4)
    except CudaError:
        pass
    else:  # pragma: no cover - failure path
        raise AssertionError("epoch regression accepted")


def test_epoch_regression_is_invalid_value():
    """A backwards ``mark`` is classified program misuse, INVALID_VALUE,
    and leaves the index as it was."""
    from repro.cuda.errors import CudaErrorCode
    from repro.errors import CudaError

    idx = EpochIntervalIndex()
    idx.mark(0, 10, 5)
    with pytest.raises(CudaError) as err:
        idx.mark(20, 30, 4)
    assert err.value.code is CudaErrorCode.INVALID_VALUE
    assert err.value.severity == "program"
    assert idx.intervals() == [(0, 10, 5)]


def test_clock_matrix_widens_mid_append():
    """Appending a clock with many fresh components must survive the
    matrix reallocating while the row is being filled (regression:
    stale row view after _col() widened the storage)."""
    from repro.sanitizer.vector_clock import ClockMatrix

    m = ClockMatrix()
    wide = VectorClock({i: i + 1 for i in range(10)})
    m.append(wide)
    row_leq, q_leq = m.versus(wide)
    assert bool(row_leq[0]) and bool(q_leq[0])
    narrow = VectorClock({0: 1})
    row_leq, q_leq = m.versus(narrow)
    assert not row_leq[0] and bool(q_leq[0])
