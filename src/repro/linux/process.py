"""Simulated process: virtual clock, threads, the ``fs`` register, ASLR.

All "time" in this reproduction is *virtual time*: a nanosecond counter
per process advanced by an explicit cost model. The process also models
the two mechanisms the paper's overhead analysis depends on:

- Setting the x86-64 ``fs`` segment register. Unpatched Linux requires a
  kernel call (``arch_prctl``); with the FSGSBASE kernel patch user space
  writes the register directly (``wrfsbase``), ~an order of magnitude
  cheaper. CRAC performs two ``fs`` switches per upper→lower CUDA call
  (paper §4.4.5 / Figure 6).
- ``personality(ADDR_NO_RANDOMIZE)``: disables ASLR so that the restart's
  replayed allocations land at the original addresses (paper §3.2.4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.linux.address_space import VirtualAddressSpace
from repro.linux.proc_maps import ProcMaps

#: ``personality()`` flag, same value as Linux's ADDR_NO_RANDOMIZE.
ADDR_NO_RANDOMIZE = 0x0040000

#: Cost of a minimal kernel round trip (syscall entry/exit + work), ns.
SYSCALL_NS = 350
#: Cost of setting fs via the FSGSBASE ``wrfsbase`` instruction, ns.
WRFSBASE_NS = 12


@dataclass
class SimThread:
    """A host thread; owns an ``fs`` base (its TLS block address)."""

    tid: int
    fs_base: int = 0


class SimProcess:
    """A simulated Linux process.

    Args:
        pid: process id (cosmetic).
        aslr: initial ASLR state (flip via :meth:`personality`).
        fsgsbase: whether the kernel has the FSGSBASE patch applied, which
            changes the cost of :meth:`set_fs_register`.
        seed: RNG seed for the address space's randomized placement.
    """

    _pid_counter = itertools.count(1000)

    def __init__(
        self,
        pid: int | None = None,
        *,
        aslr: bool = True,
        fsgsbase: bool = False,
        seed: int = 0,
    ) -> None:
        self.pid = pid if pid is not None else next(self._pid_counter)
        self.vas = VirtualAddressSpace(aslr=aslr, seed=seed)
        self.proc_maps = ProcMaps(self.vas)
        self.fsgsbase = fsgsbase
        self.clock_ns = 0
        self.alive = True
        self._tid_counter = itertools.count(self.pid)
        self.threads: list[SimThread] = []
        self.spawn_thread()  # the main thread
        self.syscall_count = 0
        self.fs_switch_count = 0

    # -- time ---------------------------------------------------------------

    def advance(self, ns: int) -> None:
        """Advance the virtual clock by ``ns`` nanoseconds."""
        if ns < 0:
            raise ValueError("time cannot go backwards")
        self.clock_ns += ns

    def advance_to(self, t_ns: int) -> None:
        """Advance the clock to at least ``t_ns`` (no-op if already past)."""
        if t_ns > self.clock_ns:
            self.clock_ns = t_ns

    # -- threads and registers ------------------------------------------------

    def spawn_thread(self) -> SimThread:
        """Create a new thread within this process (pthread_create)."""
        t = SimThread(tid=next(self._tid_counter))
        self.threads.append(t)
        return t

    def syscall(self, cost_ns: int = SYSCALL_NS) -> None:
        """Account one kernel call."""
        self.syscall_count += 1
        self.advance(cost_ns)

    def set_fs_register(self, thread: SimThread, fs_base: int) -> None:
        """Switch a thread's ``fs`` base — the trampoline's hot operation.

        Costs one syscall on an unpatched kernel, one ``wrfsbase``
        instruction on an FSGSBASE kernel.
        """
        self.fs_switch_count += 1
        if self.fsgsbase:
            self.advance(WRFSBASE_NS)
        else:
            self.syscall(SYSCALL_NS)
        thread.fs_base = fs_base

    # -- personality (ASLR) ------------------------------------------------------

    def personality(self, flags: int) -> None:
        """Model of the ``personality`` syscall; only ADDR_NO_RANDOMIZE
        is understood. Takes effect for *future* mmaps."""
        self.syscall()
        self.vas.aslr = not bool(flags & ADDR_NO_RANDOMIZE)

    def kill(self) -> None:
        """Terminate the process (checkpoint/restart kills the original)."""
        self.alive = False
