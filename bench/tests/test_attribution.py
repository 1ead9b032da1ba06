"""Per-layer host attribution: accounting closes, wrapping is undone."""

import inspect

from bench import sut
from bench.attribution import ROOT_LAYER, HostSpans
from bench.refclock import RefClock
from bench.run import measure_round
from bench.workloads import AppsCkpt, Ledger, ServeChurn

APPS = {cls.__name__: cls for cls in sut.APPS}
CLOCK = RefClock()


def _attributes():
    return {
        (id(owner), name): (name in vars(owner), inspect.getattr_static(owner, name, None))
        for entries in sut.LAYERS.values()
        for owner, name in entries
    }


def test_self_times_sum_to_the_round_wall_time():
    workload = AppsCkpt(passes=4, rounds=1, apps=(APPS["Bfs"], APPS["Hotspot"]))
    rnd = measure_round(workload, 0, 0, Ledger(), trace=True, clock=CLOCK)
    total = sum(rnd.spans.self_ns.values()) / 1e9
    assert abs(total - rnd.wall_s) <= 0.02 * rnd.wall_s
    assert rnd.spans.self_ns[ROOT_LAYER] > 0
    assert rnd.spans.calls["dmtcp.ckpt"] > 0 and rnd.spans.calls["dmtcp.store"] > 0


def test_traced_round_restores_every_wrapped_method():
    before = _attributes()
    workload = ServeChurn(sessions=24, waves=2, rounds=1)
    plain = measure_round(workload, 0, 0, Ledger(), trace=False, clock=CLOCK)
    traced = measure_round(workload, 0, 0, Ledger(), trace=True, clock=CLOCK)
    assert traced.spans.calls["serve"] > 0 and traced.spans.calls["cluster"] > 0
    assert _attributes() == before
    again = measure_round(workload, 0, 0, Ledger(), trace=False, clock=CLOCK)
    assert again.result.fingerprint() == plain.result.fingerprint()


def test_restore_after_an_exception_inside_the_block():
    before = _attributes()
    spans = HostSpans()
    try:
        with spans.installed(sut.LAYERS):
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert _attributes() == before


def test_nested_calls_of_one_layer_count_one_entry():
    spans = HostSpans()

    class Owner:
        def outer(self):
            return self.inner()

        def inner(self):
            return 1

    with spans.installed({"x": ((Owner, "outer"), (Owner, "inner"))}):
        spans.root(Owner().outer)
    assert spans.calls["x"] == 1
    assert "outer" in vars(Owner) and "inner" in vars(Owner)
    assert Owner.outer.__qualname__.endswith("Owner.outer")
