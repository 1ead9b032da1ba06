"""Run applications under any dispatcher and collect measurements.

``run_app(app, machine, mode=...)`` builds a fresh simulated machine,
runs the app, and returns a :class:`RunResult` with virtual runtime,
call counts, CPS, the output digest, and any checkpoint records.

``drive(app, session, cuts=..., on_cut=...)`` is the one driver of an
app over a :class:`~repro.core.session.CracSession`: it runs the app
and calls ``on_cut`` as its progress passes each cut. ``run_app``'s
CRAC mode and every suite that checkpoints, restarts, migrates or
fails over mid-run (faults, migrate, perf) are ``on_cut`` callbacks
over it.

Measurement noise: the paper averages 10 runs with a ~0.1 s standard
deviation and explicitly attributes small negative overheads to this
noise (§4.4.1). ``run_app`` models it with a seeded Gaussian draw per
(app, mode, gpu) so short-app overheads scatter realistically and
results stay reproducible; pass ``noise=False`` for exact virtual times.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.apps.base import AppContext, AppResult, CudaApp
from repro.core.session import CracSession
from repro.core.halves import SplitProcess
from repro.cuda.interface import CudaDispatchBase, NativeBackend
from repro.gpu.timing import DEFAULT_HOST_COSTS
from repro.harness.metrics import cps, overhead_pct
from repro.proxy.crcuda import CrcudaBackend
from repro.proxy.crum import CrumBackend
from repro.proxy.proxy_runtime import NaiveProxyBackend

MODES = ("native", "crac", "crum", "proxy-cma", "crcuda")

#: Device slowdown factors relative to the V100 calibration (Figure 6's
#: K600 runs are several times slower; the paper notes its Rodinia runs
#: "mostly ran for at least 10 seconds" there).
TIME_SCALE = {"V100": 1.0, "K600": 3.0}


@dataclass(frozen=True)
class Machine:
    """Hardware/kernel configuration for a run."""

    gpu: str = "V100"
    fsgsbase: bool = False
    seed: int = 0

    @classmethod
    def v100(cls, **kw) -> "Machine":
        return cls(gpu="V100", **kw)

    @classmethod
    def k600(cls, **kw) -> "Machine":
        """The local Quadro K600 node of §4.4.5 (Figure 6)."""
        return cls(gpu="K600", **kw)


@dataclass
class CkptRecord:
    """One checkpoint(+restart) taken during a run."""

    at_progress: float
    checkpoint_s: float
    size_mb: float
    restart_s: float | None = None
    replayed_calls: int | None = None


@dataclass
class RunResult:
    """Everything measured about one run."""

    app_name: str
    mode: str
    gpu: str
    runtime_s: float  # with measurement noise (if enabled)
    runtime_exact_s: float  # pure virtual time
    cuda_calls: int
    cps: float
    digest: int
    checkpoints: list[CkptRecord] = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def overhead_pct(self, baseline: "RunResult") -> float:
        """Runtime overhead vs a baseline run (paper eq. 1)."""
        return overhead_pct(self.runtime_s, baseline.runtime_s)


def _noise_s(app_name: str, mode: str, gpu: str, std_s: float = 0.1) -> float:
    seed = zlib.crc32(f"{app_name}/{mode}/{gpu}".encode())
    return float(np.random.default_rng(seed).normal(0.0, std_s))


def drive(
    app: CudaApp,
    session: CracSession,
    *,
    cuts: Sequence[float] = (),
    on_cut: Callable[[float], None] | None = None,
    real: bool = False,
) -> AppResult:
    """Run ``app`` on ``session``'s CRAC backend; returns its AppResult.

    This is the one place an app is wired to a session: ``upper_mmap``
    resolves the session's current split process at each call, so the
    heap follows a mid-run restart, and kernels run at the session
    GPU's time scale. ``on_cut(progress)`` fires once per entry of
    ``cuts``, in ascending order, at the first progress report at or
    past that entry (one report past two cuts fires both).
    ``real=True`` runs every iteration for real: fast-forwarded
    iterations issue no runtime calls, so no fault could land in them,
    and a cut among them would land on a fast-forward chunk boundary
    instead of at its true progress fraction.
    """
    if real and hasattr(app, "MEASURE"):
        app.MEASURE = 10**9
    pending = sorted(cuts)
    fired = 0

    def checkpoint_cb(progress: float) -> None:
        nonlocal fired
        while fired < len(pending) and progress >= pending[fired]:
            fired += 1
            on_cut(progress)

    return app.run(AppContext(
        backend=session.backend,
        upper_mmap=lambda size: session.split.upper_mmap(size),
        checkpoint_cb=checkpoint_cb if pending else None,
        time_scale=TIME_SCALE[session.gpu],
    ))


def run_app(
    app: CudaApp,
    machine: Machine = Machine(),
    *,
    mode: str = "native",
    checkpoint_at: float | Sequence[float] | None = None,
    restart_after_checkpoint: bool = True,
    incremental: bool = False,
    forked: bool = False,
    speculative: bool = False,
    gzip: bool = False,
    noise: bool = True,
    sanitizer=None,
    tracer=None,
) -> RunResult:
    """Run ``app`` on a fresh machine under ``mode``.

    ``checkpoint_at`` (CRAC only): one progress fraction — or a sequence
    of them for periodic checkpointing — at which to checkpoint. With
    ``restart_after_checkpoint`` the original process is killed *after
    the last checkpoint* and the run continues in a restarted process —
    the full transparency path, whose output digest must equal a native
    run's. ``incremental=True`` chains the checkpoints as
    base + dirty-page deltas (host pages *and* GPU buffer spans);
    ``forked=True`` writes each image on a background timeline while the
    app keeps running (COW-charged — the CRUM-style forked checkpoint);
    ``speculative=True`` additionally skips the quiesce — the cut is
    validated against the handle-version table at commit time (the
    PhoenixOS-style concurrent checkpoint, near-zero stall).

    ``sanitizer`` attaches a :class:`repro.sanitizer.Sanitizer` to the
    run's runtime (under crac it follows the session across restarts)
    and finalizes its leak check after the app completes.

    ``tracer`` attaches a :class:`repro.trace.Tracer` to the run's
    dispatch backend (under crac it re-attaches across restarts); its
    spans are the run's GPU timeline (``tracer.timeline()``).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    records: list[CkptRecord] = []
    if checkpoint_at is None:
        triggers: list[float] = []
    elif isinstance(checkpoint_at, (int, float)):
        triggers = [float(checkpoint_at)]
    else:
        triggers = sorted(float(f) for f in checkpoint_at)

    if mode == "crac":
        session = CracSession(
            gpu=machine.gpu, fsgsbase=machine.fsgsbase, seed=machine.seed,
        )
        backend: CudaDispatchBase = session.backend
        if sanitizer is not None:
            session.enable_sanitizer(sanitizer)
        if tracer is not None:
            session.enable_trace(tracer)
        chain: list = []  # previous images (for incremental parents)

        def cut(progress: float) -> None:
            image = session.checkpoint(
                gzip=gzip,
                incremental=incremental and bool(chain),
                parent=chain[-1] if (incremental and chain) else None,
                forked=forked,
                speculative=speculative,
            )
            chain.append(image)
            rec = CkptRecord(
                at_progress=progress,
                checkpoint_s=image.checkpoint_time_ns / 1e9,
                size_mb=image.size_bytes / (1 << 20),
            )
            if restart_after_checkpoint and len(chain) == len(triggers):
                session.kill()
                report = session.restart(image)
                rec.restart_s = report.restart_time_ns / 1e9
                rec.replayed_calls = report.replayed_calls
            records.append(rec)

        result = drive(app, session, cuts=triggers, on_cut=cut)
        # Drain any still-in-flight forked image write: the job is not
        # durably checkpointed until the background write commits.
        session.finish_forked_checkpoints()
    else:
        split = SplitProcess(
            gpu=machine.gpu, fsgsbase=machine.fsgsbase, seed=machine.seed
        )
        backend_cls = {
            "native": NativeBackend,
            "crum": CrumBackend,
            "proxy-cma": NaiveProxyBackend,
            "crcuda": CrcudaBackend,
        }[mode]
        backend = backend_cls(split.runtime, DEFAULT_HOST_COSTS)
        if sanitizer is not None:
            sanitizer.attach(split.runtime)
        if tracer is not None:
            tracer.attach(backend)
        if mode != "native":
            # Checkpointable proxies also launch under DMTCP and must
            # fork/exec + initialize their proxy process.
            split.process.advance(DEFAULT_HOST_COSTS.crac_startup_ns + 150_000_000)
        result = app.run(AppContext(
            backend=backend,
            upper_mmap=split.upper_mmap,
            time_scale=TIME_SCALE[machine.gpu],
        ))

    if sanitizer is not None:
        # End of app = teardown point: run the leak check against the
        # runtime the app finished on.
        sanitizer.finish(backend.runtime)
    # Whole-process lifetime: includes CRAC/DMTCP startup (which the
    # paper identifies as the dominant overhead for short apps) and any
    # checkpoint/restart work.
    exact_s = backend.process.clock_ns / 1e9
    noisy_s = exact_s + (_noise_s(app.name, mode, machine.gpu) if noise else 0.0)
    return RunResult(
        app_name=result.name,
        mode=mode,
        gpu=machine.gpu,
        runtime_s=max(noisy_s, exact_s * 0.5),
        runtime_exact_s=exact_s,
        cuda_calls=result.cuda_calls,
        cps=cps(result.cuda_calls, exact_s),
        digest=result.digest,
        checkpoints=records,
        extras=result.extras,
    )
