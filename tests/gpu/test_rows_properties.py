"""A :class:`RowTable` is the per-address dict it stands for.

Random sequences of the operations the runtime makes on its allocation
tables (a key inserted alone, a run inserted at once, a member removed
or built out of its run, a member given its own value, a whole run or a
stretch of one popped, a copy, a merge) run against a table and a plain
``dict`` model side by side. After every step the table must answer
every lookup as the model does, and list its keys, values and items in
the model's order; its equality, key-view comparisons, joins with an
earlier snapshot, sums and floor lookups must agree with the model's.

The keys live in a small address space of 16-byte slots: a lone key
takes one slot, a run's member ``step // 16`` adjacent slots, as arena
blocks do, so no key lies inside another row's block.
"""

import pickle
from itertools import count as counting

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.rows import RowTable, as_ranges

UNIT = 16
SLOTS = 40

values = st.integers(0, 6)
ops = st.lists(
    st.one_of(
        st.tuples(st.just("lone"), st.integers(0, SLOTS - 1), values),
        st.tuples(st.just("run"), st.integers(0, SLOTS - 1),
                  st.integers(1, 3), st.integers(1, 8), values,
                  st.sampled_from([0, 1])),
        st.tuples(st.just("del"), st.integers(0, 60), st.integers(0, 2)),
        st.tuples(st.just("set"), st.integers(0, 60), values),
        st.tuples(st.just("pop_run"), st.integers(0, 60),
                  st.integers(1, 6), st.booleans()),
        st.tuples(st.just("snapshot")),
        st.tuples(st.just("flat"), values),
        st.tuples(st.just("copy"), st.integers(0, 60)),
        st.tuples(st.just("merge"), st.integers(0, SLOTS - 1),
                  st.integers(1, 4)),
    ),
    max_size=40,
)


class Twin:
    """A table, its dict model, and the slots each key's block takes."""

    def __init__(self):
        self.table = RowTable()
        self.model: dict[int, int] = {}
        self.blocks: dict[int, int] = {}  # key -> block size in slots

    def taken(self) -> set[int]:
        return {key // UNIT + i for key, n in self.blocks.items()
                for i in range(n)}

    def free(self, first: int, slots: int) -> bool:
        return (first + slots <= SLOTS
                and self.taken().isdisjoint(range(first, first + slots)))

    def nth(self, k: int) -> int | None:
        keys = list(self.model)
        return keys[k % len(keys)] if keys else None

    def forget(self, key: int) -> None:
        del self.model[key]
        del self.blocks[key]


def _apply(twin: Twin, op: tuple, snapshot: list) -> None:
    table, model = twin.table, twin.model
    kind = op[0]
    if kind == "lone":
        _, slot, value = op
        if twin.free(slot, 1):
            table[slot * UNIT] = value
            model[slot * UNIT] = value
            twin.blocks[slot * UNIT] = 1
    elif kind == "run":
        _, slot, size, n, v0, dv = op
        if twin.free(slot, size * n):
            step = size * UNIT
            table.insert_run(slot * UNIT, step, n, v0, dv)
            for i in range(n):
                model[slot * UNIT + i * step] = v0 + i * dv
                twin.blocks[slot * UNIT + i * step] = size
    elif kind == "del":
        _, k, how = op
        key = twin.nth(k)
        if key is not None:
            if how == 0:
                del table[key]
            elif how == 1:
                assert table.pop(key) == model[key]
            else:  # as the runtime's hot path: the dict, then the bisect
                if table.rows.pop(key, None) is None:
                    del table[key]
            twin.forget(key)
    elif kind == "set":
        _, k, value = op
        key = twin.nth(k)
        if key is not None:
            table[key] = value
            model[key] = value
    elif kind == "pop_run":
        _, k, n, check_value = op
        key = twin.nth(k)
        if key is not None:
            step = twin.blocks[key] * UNIT
            keys = range(key, key + n * step, step)
            value = model[key] if check_value else None
            held = all(a in model for a in keys) and (
                value is None or all(model[a] == value for a in keys)
            )
            assert table.pop_run(keys, value) == held
            if held:
                for a in keys:
                    twin.forget(a)
    elif kind == "snapshot":
        snapshot[:] = [table.copy(), dict(model)]
    elif kind == "flat":
        # the same keys, in the same rows, all with one value: a run's
        # values drift apart from a run of uids
        flat = RowTable()
        for key, row in table.rows.items():
            if type(key) is range:
                for p in row.pieces:
                    flat.insert_run(p.start, row.step, p.count, op[1], 0)
            else:
                flat.rows[key] = op[1]
        snapshot[:] = [flat, dict.fromkeys(model, op[1])]
    elif kind == "copy":
        twin2 = table.copy()
        assert twin2 == table and list(twin2.items()) == list(model.items())
        key = twin.nth(op[1])
        if key is not None:  # the copy is independent
            del twin2[key]
            assert key in table and key not in twin2
    elif kind == "merge":
        # update() with a table of fresh keys (one run), as NeverBuilt
        # merges its per-kind tables
        _, slot, n = op
        if twin.free(slot, n):
            extra = RowTable()
            extra.insert_run(slot * UNIT, UNIT, n, 9, 1)
            table.update(extra)
            for i in range(n):
                model[slot * UNIT + i * UNIT] = 9 + i
                twin.blocks[slot * UNIT + i * UNIT] = 1


def _check(twin: Twin, snapshot: list) -> None:
    table, model = twin.table, twin.model
    assert list(table.items()) == list(model.items())
    assert list(table) == list(model) == list(table.keys())
    assert list(table.values()) == list(model.values())
    assert len(table) == len(model)
    for probe in range(-UNIT, SLOTS * UNIT + UNIT, UNIT // 2):
        assert (probe in table) == (probe in model)
        assert table.get(probe, "x") == model.get(probe, "x")
        below = [k for k in model if k <= probe]
        assert table.floor(probe) == (max(below) if below else None)
    assert table == model and model == table
    plain = RowTable(model)  # the same mapping, lone rows only
    assert table == plain and plain == table
    assert table.keys() <= plain.keys() and table.keys() >= plain.keys()
    assert table.total() == sum(model.values())
    assert pickle.loads(pickle.dumps(table)) == table
    if snapshot:
        other, old = snapshot
        assert dict(other.items()) == old
        assert (table == other) == (model == old)
        assert (table.keys() <= other.keys()) == (model.keys() <= old.keys())
        assert (table.keys() & other.keys()) == (model.keys() & old.keys())
        assert (table.keys() - other.keys()) == (model.keys() - old.keys())
        assert dict(table.matching(other).items()) == {
            k: v for k, v in model.items() if old.get(k) == v
        }
        assert dict(table.agreeing(other).items()) == {
            k: v for k, v in model.items() if old.get(k, v) == v
        }
        assert dict(table.without(other).items()) == {
            k: v for k, v in model.items() if k not in old
        }
        common = other.matching(table)
        assert table.total(common) == sum(model[k] for k in common)
        assert sorted(table.common_keys(old)) == sorted(set(old) & set(model))


@settings(max_examples=300, deadline=None)
@given(ops)
def test_a_row_table_is_its_dict(script):
    twin = Twin()
    snapshot: list = []
    for op in script:
        _apply(twin, op, snapshot)
        _check(twin, snapshot)


@given(st.lists(st.integers(0, 1 << 20), max_size=30), st.integers(1, 64))
def test_as_ranges_lists_the_addresses_in_order(addrs, step):
    for parts in (as_ranges(addrs), as_ranges(addrs, step)):
        assert [a for part in parts for a in part] == addrs
    assert all(len(part) == 1 or part.step == step
               for part in as_ranges(addrs, step))


def test_a_run_is_one_row_whatever_its_length():
    table = RowTable()
    table.insert_run(1 << 20, 256, 100_000, 7, 1)
    assert len(table.rows) == 1 and len(table) == 100_000
    assert table[(1 << 20) + 256 * 99_999] == 7 + 99_999
    twin = table.copy()
    assert twin == table and len(twin.rows) == 1
    assert table.total() == sum(range(7, 7 + 100_000))
    assert table.pop_run(range(1 << 20, (1 << 20) + 256 * 100_000, 256))
    assert not table and not table.rows and not table.pieces
    assert dict(zip(range(5), counting(3))) == dict(
        RowTable(dict(zip(range(5), counting(3)))).items()
    )
