"""The calibrated cost model — every timing constant lives here.

All results in this reproduction are *virtual time*. Constants below are
calibrated so that native runtimes of the paper's workloads land near the
paper's Figures 2/4/5 values on the simulated V100, and so that overhead
*ratios* — the paper's actual claims — have the right structure:

- CRAC adds ~2 fs-register switches + a table indirection per CUDA call
  (constants in :mod:`repro.linux.process` and :mod:`repro.core.trampoline`),
  which at the paper's 0.6–132K calls/second works out to ≈0–2% overhead;
- proxy/IPC baselines add a per-call marshalling cost plus a per-byte
  cross-memory-attach copy (constants in :mod:`repro.proxy.cma`), which on
  Table 3's cuBLAS loops works out to 142–17,812% overhead.

Nothing else in the package contains a hard-coded time.

Virtual time is an ``int`` count of nanoseconds everywhere: every clock,
timeline and ``*_ns`` cost. Integer addition is associative, so a bulk
path charges ``n`` equal calls as one ``n * per_call`` and lands exactly
where ``n`` per-call charges land. A cost derived from a bandwidth or a
throughput is rounded once, where it is computed, to the nearest
nanosecond (ties to even, Python's :func:`round`): through
:func:`transfer_ns`, or inside :meth:`GpuSpec.kernel_cost_ns` and
:meth:`GpuSpec.copy_cost_ns`. :class:`GpuSpec`, :class:`HostCosts` and
:class:`WatchdogLimits` reject a non-``int`` ns field when built.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

NS_PER_S = 1_000_000_000

#: Host-side cost of one sanitizer instrumentation hook (shadow-state
#: update + vector-clock bookkeeping), ns. Charged per instrumented op
#: when :class:`repro.sanitizer.Sanitizer` is attached; a tier-1 test
#: bounds the resulting end-to-end overhead at ≤25%.
SANITIZER_CHECK_NS = 500

#: Host-side cost of one trace instrumentation hook (span append +
#: metrics update), ns. Charged per traced *API* call when a
#: :class:`repro.trace.Tracer` is attached; device/UVM/pipeline hooks
#: piggyback on work the model already charges and add nothing.
#: ``repro trace`` bounds the resulting end-to-end overhead at ≤1.25x.
TRACE_HOOK_NS = 120


def transfer_ns(nbytes: float, bytes_per_s: float) -> int:
    """Time to move ``nbytes`` at ``bytes_per_s``, in whole ns."""
    return round(nbytes / bytes_per_s * NS_PER_S)


def _check_ns_fields(obj, *, nonnegative: bool = False) -> None:
    """Reject, when ``obj`` is built, an ns field that is not an ``int``
    (and, with ``nonnegative``, any negative field). Building a cost
    model is configuration, not a CUDA call, so the error is a plain
    ValueError."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.name.endswith("_ns") and type(value) is not int:
            msg = f"{type(obj).__name__}.{f.name} must be whole ns, not {value!r}"
            raise ValueError(msg)  # lint: allow
        if nonnegative and value < 0:
            msg = f"{type(obj).__name__}.{f.name} cannot be negative"
            raise ValueError(msg)  # lint: allow


def _program_error(code_name: str, msg: str):
    """Classified program-severity CudaError with a deferred import
    (``repro.gpu`` must not pull in ``repro.cuda`` at module load)."""
    from repro.cuda.errors import CudaErrorCode

    from repro.errors import CudaError

    return CudaError(
        f"{code_name}: {msg}", code=CudaErrorCode[code_name], severity="program"
    )


@dataclass(frozen=True)
class GpuSpec:
    """Static description of one GPU model."""

    name: str
    compute_capability: tuple[int, int]
    memory_bytes: int
    #: Hardware limit on concurrently executing kernels (CC 7.0 ⇒ 128).
    max_concurrent_kernels: int
    sm_count: int
    #: Effective single-precision throughput, FLOP/s.
    flops: float
    #: Device (HBM/GDDR) bandwidth, bytes/s.
    mem_bw: float
    #: Host↔device interconnect bandwidth per direction, bytes/s.
    pcie_bw: float
    #: Kernel launch latency on the device side, ns.
    kernel_launch_ns: int = 3_000
    #: UVM page-fault service latency, ns per fault (Pascal+ hardware
    #: faulting; on pre-Pascal parts UVM migrates at kernel boundaries).
    uvm_fault_ns: int = 20_000
    #: UVM page-migration bandwidth, bytes/s.
    uvm_migrate_bw: float = 9.0e9

    def __post_init__(self) -> None:
        _check_ns_fields(self)

    def kernel_cost_ns(self, flop: float, bytes_touched: float = 0.0) -> int:
        """Roofline-style kernel duration: launch + max(compute, memory)."""
        compute = flop / self.flops * NS_PER_S
        memory = bytes_touched / self.mem_bw * NS_PER_S
        return self.kernel_launch_ns + round(max(compute, memory))

    def copy_cost_ns(self, nbytes: int, kind: str) -> int:
        """Duration of a memory copy on the relevant engine."""
        if kind in ("h2d", "d2h"):
            bw = self.pcie_bw
        elif kind == "d2d":
            bw = self.mem_bw
        else:
            raise _program_error("INVALID_VALUE", f"unknown copy kind {kind!r}")
        return 1_500 + round(nbytes / bw * NS_PER_S)


#: The two GPUs used in the paper's evaluation (§4.1).
GPU_SPECS: dict[str, GpuSpec] = {
    "V100": GpuSpec(
        name="Tesla V100",
        compute_capability=(7, 0),
        memory_bytes=32 << 30,
        max_concurrent_kernels=128,
        sm_count=80,
        flops=14.0e12,
        mem_bw=900.0e9,
        pcie_bw=12.0e9,
    ),
    "K600": GpuSpec(
        name="Quadro K600",
        compute_capability=(3, 0),
        memory_bytes=1 << 30,
        max_concurrent_kernels=16,
        sm_count=1,
        flops=336.0e9,
        mem_bw=29.0e9,
        pcie_bw=6.0e9,
        kernel_launch_ns=6_000,
        uvm_fault_ns=45_000,
        uvm_migrate_bw=4.0e9,
    ),
}


@dataclass(frozen=True)
class HostCosts:
    """Host-side dispatch costs that do not depend on the GPU model."""

    #: Native CUDA runtime call dispatch (user code → driver), ns.
    native_dispatch_ns: int = 1_400
    #: Extra work in CRAC's upper→lower trampoline besides the two fs
    #: switches: entry-table indirection + bookkeeping, ns per call.
    trampoline_body_ns: int = 45
    #: Extra bookkeeping when CRAC logs a cudaMalloc-family call, ns.
    log_record_ns: int = 250
    #: DMTCP+CRAC launch-time startup (helper load, entry-table copy,
    #: coordinator handshake), ns. Dominates overhead on <7 s apps.
    crac_startup_ns: int = 280_000_000
    #: Checkpoint-image write bandwidth (gzip disabled), bytes/s.
    ckpt_write_bw: float = 2.6e9
    #: Checkpoint-image read bandwidth on restart, bytes/s (reads come
    #: from the page cache more often than writes hit it).
    ckpt_read_bw: float = 3.4e9
    #: Gzip compression throughput when enabled, bytes/s (DMTCP default
    #: gzip is disabled in the paper's experiments).
    gzip_bw: float = 0.20e9
    #: Per-region constant cost when scanning/saving maps, ns.
    ckpt_region_ns: int = 18_000
    #: Cost to replay one logged CUDA call at restart time, ns.
    replay_call_ns: int = 120_000
    #: Cost to re-register one fat binary / CUDA element at restart, ns.
    reregister_ns: int = 150_000
    #: Fixed restart bootstrap (fresh lower half load, driver init), ns.
    restart_bootstrap_ns: int = 70_000_000
    #: Fixed checkpoint coordination cost (quiesce threads, drain), ns.
    ckpt_quiesce_ns: int = 90_000_000
    #: Copy-on-write page-duplication bandwidth during a *forked*
    #: checkpoint's write window (memcpy of a touched page before the
    #: writer has flushed it), bytes/s.
    cow_copy_bw: float = 8.0e9
    #: Cost to reset one poisoned stream (drain, destroy, recreate the
    #: hardware queue) during fault-domain recovery, ns.
    stream_reset_ns: int = 5_000_000
    #: Application-visible cost of a *speculative* checkpoint cut: arm
    #: the handle-version trackers and snapshot the version table — the
    #: only stall the validated-speculation path leaves on the critical
    #: path (no quiesce, no drain), ns.
    spec_cut_ns: int = 2_000_000
    #: Per-handle version-snapshot cost at a speculative cut, ns.
    spec_handle_ns: int = 2_000
    #: Bandwidth at which conflicted spans are re-copied during
    #: speculative validation (invalidate-and-replay of buffers the app
    #: wrote inside the capture window), bytes/s.
    spec_replay_bw: float = 10.0e9
    #: Per-invalidated-handle fixed replay cost during validation
    #: (re-issue the handle's logged ops against the captured state), ns.
    spec_invalidate_ns: int = 50_000

    def __post_init__(self) -> None:
        # Time cannot go backwards: a negative cost is rejected here,
        # where it enters, so the inline charges need no check of their
        # own.
        _check_ns_fields(self, nonnegative=True)


DEFAULT_HOST_COSTS = HostCosts()


# -- fault-domain timing ------------------------------------------------------

#: How long a hung kernel occupies its stream before the watchdog's
#: kernel-latency bound declares it stuck, ns (mirrors the ~30 s driver
#: watchdog on display GPUs, scaled to simulation virtual time).
KERNEL_HANG_NS = 30 * NS_PER_S

#: How long a stalled copy engine sits idle before the watchdog's copy
#: bound fires, ns.
COPY_STALL_NS = 10 * NS_PER_S


@dataclass(frozen=True)
class WatchdogLimits:
    """Virtual-time latency bounds enforced by the session watchdog.

    A kernel, copy, or synchronization whose *scheduled* completion sits
    further in the future than the relevant bound (beyond what the cost
    model alone would predict) is classified as hung/stalled and the
    watchdog raises a sticky :class:`~repro.errors.CudaError` instead of
    letting virtual time silently absorb the stall.
    """

    #: Max tolerated single-kernel duration before LAUNCH_TIMEOUT, ns.
    kernel_timeout_ns: int = KERNEL_HANG_NS
    #: Max tolerated copy-engine occupancy before STREAM_STALLED, ns.
    copy_timeout_ns: int = COPY_STALL_NS
    #: Virtual time the watchdog charges for *detecting* a hang: the
    #: host spins on cudaStreamQuery until the bound expires, ns.
    detection_wait_ns: int = 2_000_000

    def __post_init__(self) -> None:
        _check_ns_fields(self)


DEFAULT_WATCHDOG_LIMITS = WatchdogLimits()
