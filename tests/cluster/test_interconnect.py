"""The bandwidth/latency-modeled interconnect and its fault injection."""

from repro.cluster import Interconnect, LinkSpec


def test_wire_time_is_latency_plus_serialization():
    ic = Interconnect(spec=LinkSpec(bandwidth=1e9, latency_ns=1_000))
    rec = ic.send("a", "b", 1_000_000, 0)
    assert rec.start_ns == 0
    # 1 MB at 1 GB/s = 1e6 ns of serialization on top of the latency.
    assert rec.end_ns == 1_000 + 1_000_000
    assert rec.duration_ns == rec.end_ns - rec.start_ns


def test_link_serializes_back_to_back_transfers():
    ic = Interconnect(spec=LinkSpec(bandwidth=1e9, latency_ns=1_000))
    first = ic.send("a", "b", 1_000_000, 0)
    second = ic.send("a", "b", 1_000_000, 0)
    # Same directed link: the second transfer queues behind the first.
    assert second.start_ns == first.end_ns
    # A different link is idle and starts immediately.
    other = ic.send("a", "c", 1_000_000, 0)
    assert other.start_ns == 0


def test_send_never_starts_before_now():
    ic = Interconnect()
    rec = ic.send("a", "b", 10, 5_000.0)
    assert rec.start_ns == 5_000.0


def test_fault_plan_forces_outcomes_by_global_index():
    ic = Interconnect(fault_plan={0: "corrupt", 2: "drop"})
    outcomes = [ic.send("a", "b", 100, 0.0).outcome for _ in range(4)]
    assert outcomes == ["corrupt", "ok", "drop", "ok"]
    assert [t.outcome for t in ic.faults()] == ["corrupt", "drop"]


def test_fault_prob_draws_are_seed_deterministic():
    mk = lambda: Interconnect(seed=42, fault_prob=0.5)
    a, b = mk(), mk()
    seq_a = [a.send("x", "y", 10, 0.0).outcome for _ in range(32)]
    seq_b = [b.send("x", "y", 10, 0.0).outcome for _ in range(32)]
    assert seq_a == seq_b
    assert any(o != "ok" for o in seq_a), "p=0.5 over 32 draws must fault"
    # A different seed gives an independent stream.
    c = Interconnect(seed=43, fault_prob=0.5)
    seq_c = [c.send("x", "y", 10, 0.0).outcome for _ in range(32)]
    assert seq_c != seq_a


def test_shipped_bytes_counts_every_attempt():
    ic = Interconnect(fault_plan={0: "drop"})
    ic.send("a", "b", 100, 0.0)
    ic.send("a", "b", 100, 0.0)
    # The dropped attempt still occupied the wire.
    assert ic.shipped_bytes == 200
    assert len(ic.transfers) == 2
