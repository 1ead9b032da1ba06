"""Property-based tests: log-and-replay determinism under arbitrary
allocation histories (the heart of §3.2.3/§3.2.4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CracBackend, SplitProcess

# Op language: allocate from a family, or free the i-th live allocation.
ops_strategy = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(["malloc", "malloc_host", "malloc_managed", "host_alloc"]),
            st.integers(min_value=1, max_value=1 << 20),
        ),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=100)),
    ),
    max_size=50,
)


def apply_ops(backend, ops):
    """Drive a backend with an op list; returns {addr: family} live set."""
    live: list[tuple[int, str]] = []
    for kind, arg in ops:
        if kind == "free":
            if not live:
                continue
            addr, fam = live.pop(arg % len(live))
            if fam in ("malloc", "malloc_managed"):
                backend.free(addr)
            else:
                backend.free_host(addr)
        else:
            addr = getattr(backend, kind)(arg)
            live.append((addr, kind))
    return dict(live)


@settings(max_examples=80, deadline=None)
@given(ops_strategy)
def test_replay_recreates_every_live_allocation(ops):
    split = SplitProcess(seed=17)
    backend = CracBackend(split.runtime)
    live = apply_ops(backend, ops)

    fresh = SplitProcess(seed=17)
    backend.log.replay(fresh.runtime)
    for addr, fam in live.items():
        if fam == "host_alloc":
            continue  # re-registered separately, not replayed
        assert addr in fresh.runtime.allocations, hex(addr)


@settings(max_examples=80, deadline=None)
@given(ops_strategy)
def test_replay_active_set_matches_log_view(ops):
    """The log's notion of 'active' equals the runtime's live buffers."""
    split = SplitProcess(seed=18)
    backend = CracBackend(split.runtime)
    apply_ops(backend, ops)
    log_active = set(backend.log.active_allocations())
    runtime_active = {b.addr for b in split.runtime.active_allocations()}
    assert log_active == runtime_active


@settings(max_examples=60, deadline=None)
@given(ops_strategy)
def test_double_replay_is_deterministic(ops):
    """Replaying the same log into two fresh libraries lands the same."""
    split = SplitProcess(seed=19)
    backend = CracBackend(split.runtime)
    apply_ops(backend, ops)
    f1, f2 = SplitProcess(seed=19), SplitProcess(seed=19)
    backend.log.replay(f1.runtime)
    backend.log.replay(f2.runtime)
    assert set(f1.runtime.allocations) == set(f2.runtime.allocations)
