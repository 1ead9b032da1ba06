"""Randomized differential testing of the whole CRAC stack.

Hypothesis drives a random sequence of CUDA operations — allocations of
every family, frees, kernels writing known patterns, stream creation,
memsets — interleaved with random checkpoint+kill+restart cycles. The
same operation sequence runs on a *native* shadow machine; at the end,
every live buffer's contents must match byte-for-byte, and the CRAC
session must hold exactly the same live allocation set.

This is the strongest statement of the paper's transparency claim the
simulation can make: no operation order, allocation pattern, or
checkpoint placement may change observable behaviour.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.api import FatBinary
from repro.cuda.interface import NativeBackend
from repro.gpu.uvm import UVM_PAGE

FB = FatBinary("rnd.fatbin", ("fill",))

op_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("malloc"), st.integers(64, 1 << 16)),
        st.tuples(st.just("malloc_managed"), st.integers(64, 2 * UVM_PAGE)),
        st.tuples(st.just("malloc_host"), st.integers(64, 4096)),
        st.tuples(st.just("host_alloc"), st.integers(64, 4096)),
        st.tuples(st.just("free"), st.integers(0, 40)),
        st.tuples(st.just("fill"), st.integers(0, 255)),
        st.tuples(st.just("memset"), st.integers(0, 255)),
        st.tuples(st.just("stream"), st.just(0)),
        st.tuples(st.just("checkpoint"), st.just(0)),  # CRAC only
    ),
    min_size=3,
    max_size=35,
)


class Driver:
    """Executes the op language against one backend."""

    def __init__(self, backend, session=None):
        self.backend = backend
        self.session = session
        self.live = []  # (addr, nbytes, family)
        self.streams = []
        self.fill_counter = 0

    def execute(self, ops):
        b = self.backend
        for kind, arg in ops:
            if kind in ("malloc", "malloc_managed", "malloc_host", "host_alloc"):
                addr = getattr(b, kind)(arg)
                self.live.append((addr, arg, kind))
            elif kind == "free":
                if not self.live:
                    continue
                addr, _, family = self.live.pop(arg % len(self.live))
                if family in ("malloc", "malloc_managed"):
                    b.free(addr)
                else:
                    b.free_host(addr)
            elif kind == "fill":
                if not self.live:
                    continue
                addr, nbytes, family = self.live[arg % len(self.live)]
                self.fill_counter += 1
                value = (arg + self.fill_counter) % 251

                def fn(addr=addr, nbytes=nbytes, value=value):
                    view = b.runtime.buffer(addr).contents.view(0, nbytes)
                    view[:] = value

                stream = self.streams[arg % len(self.streams)] if self.streams else None
                b.launch("fill", fn, stream=stream, duration_ns=10_000)
            elif kind == "memset":
                if not self.live:
                    continue
                addr, nbytes, _ = self.live[arg % len(self.live)]
                b.memset(addr, arg, nbytes)
            elif kind == "stream":
                self.streams.append(b.stream_create())
            elif kind == "checkpoint" and self.session is not None:
                b.device_synchronize()
                image = self.session.checkpoint()
                self.session.kill()
                self.session.restart(image)
        b.device_synchronize()

    def snapshot(self):
        out = {}
        for addr, nbytes, family in self.live:
            out[addr] = self.backend.runtime.buffer(addr).contents.read_bytes(
                0, nbytes
            )
        return out


@settings(max_examples=40, deadline=None)
@given(op_strategy)
def test_crac_session_matches_native_shadow(ops):
    # Native shadow run.
    shadow_split = SplitProcess(seed=101)
    shadow = Driver(NativeBackend(shadow_split.runtime))
    shadow.backend.register_app_binary(FB)
    shadow.execute(ops)

    # CRAC run with checkpoints enabled.
    session = CracSession(seed=101)
    crac = Driver(session.backend, session=session)
    crac.backend.register_app_binary(FB)
    crac.execute(ops)

    # Identical live sets (the deterministic allocators agree)...
    assert [x[:2] for x in crac.live] == [x[:2] for x in shadow.live]
    # ...and identical contents, byte for byte.
    assert crac.snapshot() == shadow.snapshot()


@settings(max_examples=25, deadline=None)
@given(op_strategy)
def test_crac_session_survives_any_checkpoint_placement(ops):
    """Force a checkpoint after *every* op; state must stay coherent."""
    session = CracSession(seed=103)
    driver = Driver(session.backend, session=session)
    driver.backend.register_app_binary(FB)
    interleaved = []
    for op in ops:
        if op[0] != "checkpoint":
            interleaved.append(op)
            interleaved.append(("checkpoint", 0))
    driver.execute(interleaved)
    # Every live buffer is still addressable and sized correctly.
    for addr, nbytes, _ in driver.live:
        assert len(driver.backend.runtime.buffer(addr).contents.read_bytes(0, nbytes)) == nbytes
