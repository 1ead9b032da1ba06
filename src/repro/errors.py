"""Exception hierarchy shared across the repro package.

Every subsystem raises a subclass of :class:`ReproError` so callers can
catch simulation-level failures separately from programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro simulation."""


class AddressSpaceError(ReproError):
    """Invalid operation on a simulated virtual address space."""


class SegmentationFault(AddressSpaceError):
    """Access to an unmapped or permission-protected address."""

    def __init__(self, addr: int, why: str = "") -> None:
        self.addr = addr
        msg = f"SIGSEGV at {addr:#x}"
        if why:
            msg += f" ({why})"
        super().__init__(msg)


class LoaderError(ReproError):
    """Program loading failed."""


class CheckpointError(ReproError):
    """Checkpoint could not be taken."""


class CheckpointStoreError(CheckpointError):
    """Invalid operation on the checkpoint store (e.g. committing a
    partial staged image, or loading an evicted generation)."""


class SpeculationAbortedError(CheckpointError):
    """A speculative (validated-concurrency) checkpoint rolled back.

    Raised by :meth:`repro.spec.SpeculativeCheckpoint.finish` when
    validation cannot commit the cut — an injected fault at the
    ``spec-validate`` stage, or conflict replay exceeding its budget.
    The image is already aborted (dirty bits intact, nothing committed)
    when this surfaces; the session catches it and falls back to the
    stop-the-world forked path for the same cut parameters.
    """

    def __init__(self, msg: str, *, conflicts: int = 0) -> None:
        self.conflicts = conflicts
        super().__init__(msg)


class RestartError(ReproError):
    """Restart from a checkpoint image failed."""


class CorruptCheckpointError(RestartError):
    """A committed image failed checksum verification at restore time.

    The store computes per-region CRCs when an image is staged; any
    byte flipped afterwards (disk corruption, a torn write that slipped
    past the commit protocol) is detected here — deterministically —
    instead of silently restoring garbage into the upper half.
    """


class InjectedFault(ReproError):
    """A fault deliberately fired by the fault-injection harness.

    Models a crash (node loss, OOM-kill, power cut) at a named stage of
    the checkpoint/restore pipeline; carries the stage so tests and the
    self-healing restart path can assert where the failure landed.
    """

    def __init__(self, stage: str, context: str = "") -> None:
        self.stage = stage
        self.context = context
        msg = f"injected fault at stage {stage!r}"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class ReplayDivergenceError(RestartError):
    """Log-and-replay produced a different address than the original run.

    The paper relies on determinism of the CUDA library allocator plus
    disabled ASLR; when either assumption is violated the replayed
    allocations land at new addresses and every pointer held by the
    restored upper half dangles.
    """


class CudaError(ReproError):
    """A CUDA API call returned a non-success ``cudaError_t``.

    Carries the error ``code`` (a
    :class:`repro.cuda.errors.CudaErrorCode`) and its recovery
    ``severity`` — one of ``"retryable"``, ``"sticky"``, ``"fatal"``,
    ``"program"`` — so the fault-domain ladder can pick its entry rung:
    *retryable* errors are transient (re-issue the call), *sticky*
    errors poison the issuing stream (stream reset + replay of
    unsynchronized ops), *fatal* errors mean the device/context is lost
    (device reset + restore from a checkpoint), and *program* errors
    are deterministic API misuse no rung can heal (surfaced to the
    application unchanged).

    The severity is stored as a plain string (not the
    :class:`~repro.cuda.errors.ErrorSeverity` enum) so modules below
    ``repro.cuda`` in the import graph — ``gpu/device.py``,
    ``gpu/uvm.py`` — can raise and classify without importing the
    ``repro.cuda`` package at module load time.
    """

    def __init__(self, msg: str, *, code=None, severity=None,
                 stream_sid: int | None = None) -> None:
        super().__init__(msg)
        self.code = code
        if severity is None and code is not None:
            # Deferred import: repro.errors must stay import-cycle free.
            from repro.cuda.errors import classify

            severity = classify(code)
        #: "retryable" | "sticky" | "fatal" | "program" | None
        self.severity = getattr(severity, "value", severity)
        #: stream the failed op was issued on (hang/stall classification)
        self.stream_sid = stream_sid

    @property
    def retryable(self) -> bool:
        """Transient: re-issuing the same call may succeed."""
        return self.severity == "retryable"

    @property
    def sticky(self) -> bool:
        """Poisons the issuing stream; cleared by a stream reset."""
        return self.severity == "sticky"

    @property
    def fatal(self) -> bool:
        """Device/context is lost; only a restore can continue the job."""
        return self.severity == "fatal"


class RecoveryAbortedError(ReproError):
    """The fault-domain escalation ladder ran out of rungs.

    Raised by :class:`repro.core.fault_domain.FaultDomain` when every bounded
    recovery attempt (retry, stream replay, checkpoint restore) has been
    spent; carries the full :class:`~repro.core.fault_domain.RecoveryReport`
    attempt trail and the final error, so callers see a *typed* abort —
    never silent corruption.
    """

    def __init__(self, msg: str, *, report=None, cause=None) -> None:
        super().__init__(msg)
        self.report = report
        self.cause = cause


class RankDeathError(CheckpointError):
    """One or more ranks went silent during a coordinated checkpoint.

    The coordinator's heartbeat monitor declared the ranks dead after N
    missed beats; the in-flight 2PC was aborted (no generation was
    half-committed) and the surviving quorum should recover from the
    prior committed cut via ``restart_all_latest``.
    """

    def __init__(self, dead_ranks, msg: str = "") -> None:
        self.dead_ranks = sorted(dead_ranks)
        super().__init__(
            msg or f"rank(s) {self.dead_ranks} missed heartbeats during "
            "a coordinated checkpoint; 2PC aborted"
        )


class CoordinatedAbortError(CheckpointError):
    """The surviving ranks lost quorum: the whole job must abort.

    Raised when rank deaths leave no strict majority alive — continuing
    without quorum could split-brain the recovery line.
    """


class ClusterError(ReproError):
    """Invalid operation on the simulated multi-node cluster fabric."""


class NodeDeathError(ClusterError):
    """A cluster node stopped heartbeating and was declared dead.

    Sessions hosted on the node lose their process and device state;
    recovery means restoring the latest *shipped* checkpoint generation
    on a surviving node (the fault-domain ladder's failover rung).
    """

    def __init__(self, node: str, msg: str = "") -> None:
        self.node = node
        super().__init__(
            msg or f"node {node!r} missed heartbeats and was declared dead"
        )


class MigrationError(ClusterError):
    """A live migration could not complete.

    Raised when shipping a checkpoint generation across the interconnect
    exhausts its retry budget (persistent link faults), or when the
    drain/pre-copy/cutover state machine is driven out of order.
    """


class ServeError(ReproError):
    """Invalid operation on the multi-tenant session-serving tier."""


class AdmissionRejectedError(CudaError, ServeError):
    """The serving tier shed this request at admission (load shedding).

    Raised when the bounded admission queue is full: accepting more work
    would collapse latency for everything already admitted, so the tier
    rejects *typed* instead. Routed through the CUDA error taxonomy as
    ``SERVE_ADMISSION_REJECTED`` (severity *retryable* — backing off and
    re-offering the request later is exactly the right client response).
    """

    def __init__(self, msg: str) -> None:
        from repro.cuda.errors import CudaErrorCode

        super().__init__(msg, code=CudaErrorCode.SERVE_ADMISSION_REJECTED)


class SessionEvictedError(CudaError, ServeError):
    """The target session is parked as a checkpoint image, not live.

    Raised when an operation reaches a session whose hot state was
    evicted under memory pressure. Severity *retryable*
    (``SERVE_SESSION_EVICTED``): rehydrating the session via
    ``restart_latest`` and re-issuing the operation heals it — which is
    what the serve scheduler does transparently; the error only
    surfaces when rehydration itself is impossible (e.g. a quarantined
    session).
    """

    def __init__(self, sid: str, msg: str = "") -> None:
        from repro.cuda.errors import CudaErrorCode

        self.sid = sid
        super().__init__(
            msg or f"session {sid!r} is parked as a checkpoint image",
            code=CudaErrorCode.SERVE_SESSION_EVICTED,
        )


class ServeDeadlineExceededError(CudaError, ServeError):
    """A request missed its per-session service deadline.

    By the time a slot freed up the request had already waited past its
    deadline; serving it would waste capacity on an answer nobody is
    waiting for. Severity *program* (``SERVE_DEADLINE_EXCEEDED``): the
    miss is deterministic — no recovery rung can un-miss a deadline —
    so the ladder surfaces it to the caller unchanged and the tier
    sheds the request.
    """

    def __init__(self, sid: str, waited_ns: int, deadline_ns: int) -> None:
        from repro.cuda.errors import CudaErrorCode

        self.sid = sid
        self.waited_ns = waited_ns
        self.deadline_ns = deadline_ns
        super().__init__(
            f"request for session {sid!r} waited "
            f"{waited_ns / 1e6:.2f} ms > deadline "
            f"{deadline_ns / 1e6:.2f} ms",
            code=CudaErrorCode.SERVE_DEADLINE_EXCEEDED,
        )


class UnsupportedFeatureError(ReproError):
    """A baseline system was asked to do something it cannot do.

    E.g. CRCUDA has no UVM support; CheCUDA cannot restore UVA state.
    """
