"""The benchmark's four workloads.

Every workload is a closed loop: one driver issues the next operation
when the previous one returns. A round is a fixed amount of work whose
inputs derive from ``(seed, workload, round index)`` alone, so every
virtual-clock result is exact for a given seed. A round has two timed
phases: :meth:`setup` (input generation, native reference runs, session
opening) and :meth:`measure` (the operations). Every operation is checked
against a reference — an application's output digest against a native
run of the same inputs, a served session's digest against
:func:`repro.serve.reference_digest` — and a failed check or an
exception is recorded as a failed operation; the round goes on.

``apps-dispatch``
    CRAC runs of the 20 paper applications, no checkpoints. Bound by the
    trampoline, ``cuda`` and ``gpu`` layers; it never enters ``dmtcp``,
    the store, ``cluster`` or ``serve``, so a change there must predict
    no change here.
``apps-ckpt``
    The same applications, each run cut at 6 seeded points in one mode
    (full, incremental, forked or speculative, round-robin over the
    app's runs). Every cut commits through a
    :class:`CheckpointStore`; there is no restart. The write path:
    capture, stage, save-regions, write, copy-on-write, speculative
    validation, store commit.
``apps-restart``
    The same applications, 6 seeded cuts per run alternating full and
    incremental, each followed by ``kill()`` and ``restart_latest``. The
    read path of the same images and store: load and verify, malloc-log
    replay, PCIe refill, fat-binary re-registration.
``serve-churn``
    A :class:`SessionPool` of 4 nodes x 4 slots serving many sessions in
    waves, with ECC and kernel-hang faults at 1% (at most one of each per
    session) and node 0 dying after the first wave. The admission queue
    holds one wave, so a healthy build sheds nothing. Park/rehydrate
    churn plus every recovery rung.

Every application runs at ``scale=1.0``, the paper's configuration. The
seed chooses each run's data seed and cut positions.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from bench import sut
from bench.attribution import virtual_sums

#: checkpoint cuts per application run (apps-ckpt, apps-restart)
CUTS = 6
CUT_MODES = ("full", "incremental", "forked", "speculative")
#: Applications left out of apps-restart: the cuBLAS micro-benchmark
#: fails after every restart (``INITIALIZATION_ERROR``: cuBLAS registers
#: its fat binary behind the trampoline's back, so restart does not
#: re-register it). ``bench/tests`` pins the failure; when it is fixed,
#: the application joins apps-restart in a change of its own.
RESTART_BROKEN = ("CublasMicro",)
#: serve-churn's pool: nodes, GPU slots per node, per-session fault rate
NODES, SLOTS, FAULT_PROBABILITY = 4, 4, 0.01


class Ledger:
    """Attempted and failed operations, failures keyed by error code."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_code: Counter[str] = Counter()

    def ok(self) -> None:
        """Record a successful, checked operation."""
        self.attempted += 1

    def fail(self, code: str) -> None:
        """Record a failed operation under ``code``."""
        self.attempted += 1
        self.failed += 1
        self.by_code[code] += 1


def error_code(exc: BaseException) -> str:
    """The ``CudaErrorCode`` name an exception carries, else its type."""
    code = getattr(exc, "code", None)
    return code.name if code is not None else type(exc).__name__


@dataclass
class RoundResult:
    """What one measured round did, in both clocks."""

    #: operations that count toward ``host_ops_per_s``
    ops: int = 0
    #: virtual ns of each of the workload's events (``event_ms_*``)
    events_ns: list[float] = field(default_factory=list)
    #: eq. 1 overhead of each operation vs native, percent
    overhead_pct: list[float] = field(default_factory=list)
    #: exact per-layer counts, summed over the round
    counts: Counter = field(default_factory=Counter)
    #: per-layer samples (image sizes, stalls), pooled over rounds
    samples: dict[str, list[float]] = field(default_factory=dict)
    #: traced-run virtual span totals (ns) and counts
    virt: Counter = field(default_factory=Counter)
    #: the first session tracer of the round (Perfetto export)
    tracer: object | None = None

    def sample(self, key: str, value: float) -> None:
        """Append one sample to the ``key`` series."""
        self.samples.setdefault(key, []).append(value)

    def fingerprint(self) -> tuple:
        """Every virtual-clock outcome, for the determinism check."""
        return (
            tuple(self.events_ns),
            tuple(self.overhead_pct),
            tuple(sorted(self.counts.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.samples.items())),
        )

    def traced(self, tracer) -> None:
        """Fold one session tracer into the round's virtual totals."""
        self.virt.update(virtual_sums(tracer))
        if self.tracer is None:
            self.tracer = tracer


def round_rng(seed: int, name: str, index: int, *salt: object) -> random.Random:
    """The RNG of one round's inputs (string seeding is stable across
    interpreter runs and hash seeds)."""
    return random.Random(":".join(map(str, (seed, name, index) + salt)))


# -- application workloads ---------------------------------------------------


@dataclass(frozen=True)
class AppInput:
    """One application run: which app, its size and data seed, and the
    checkpoint callback indices where the run is cut."""

    cls: type
    scale: float
    seed: int
    mode: str | None = None
    cuts: tuple[int, ...] = ()
    native_digest: int = 0
    native_ns: float = 0.0

    def make(self):
        """A fresh instance (an app's data RNG is consumed by a run)."""
        return self.cls(scale=self.scale, seed=self.seed)


def run_native(inp: AppInput) -> tuple[int, float, int]:
    """Native reference run: (digest, virtual ns, checkpoint callbacks)."""
    split = sut.SplitProcess(gpu="V100", seed=0)
    backend = sut.NativeBackend(split.runtime)
    progress: list[float] = []
    ctx = sut.AppContext(
        backend=backend, upper_mmap=split.upper_mmap,
        checkpoint_cb=progress.append,
    )
    result = inp.make().run(ctx)
    return result.digest, backend.process.clock_ns, len(progress)


@dataclass
class CracRun:
    """Outcome of one CRAC run and of every cut/restart it took."""

    digest: int = 0
    virt_ns: float = 0.0
    images: list = field(default_factory=list)
    restarts: list = field(default_factory=list)
    store: object | None = None


def run_crac(inp: AppInput, *, restart: bool = False, tracer=None) -> CracRun:
    """Run ``inp`` under CRAC, cutting at ``inp.cuts`` in ``inp.mode``
    (``"alternate"``: full and incremental in turn); with ``restart``,
    kill and ``restart_latest`` after every cut."""
    session = sut.CracSession(gpu="V100", seed=0)
    if tracer is not None:
        session.enable_trace(tracer)
    out = CracRun()
    cut_at = set(inp.cuts)
    calls = 0

    def on_progress(_progress: float) -> None:
        nonlocal calls
        index, calls = calls, calls + 1
        if index not in cut_at:
            return
        chain = out.images
        mode = inp.mode
        if mode == "alternate":
            mode = "incremental" if len(chain) % 2 else "full"
        if mode == "incremental" and chain:
            image = session.checkpoint(
                store=out.store, incremental=True, parent=chain[-1]
            )
        else:
            image = session.checkpoint(
                store=out.store, forked=mode == "forked",
                speculative=mode == "speculative",
            )
        chain.append(image)
        if restart:
            session.kill()
            out.restarts.append(session.restart_latest(out.store))

    if cut_at:
        out.store = sut.CheckpointStore()
    ctx = sut.AppContext(
        backend=session.backend,
        # the split process changes at every restart
        upper_mmap=lambda size: session.split.upper_mmap(size),
        checkpoint_cb=on_progress if cut_at else None,
    )
    result = inp.make().run(ctx)
    session.finish_forked_checkpoints()
    out.digest = result.digest
    out.virt_ns = session.process.clock_ns
    return out


class AppsWorkload:
    """Shared shape of the three application workloads."""

    name = ""
    #: checkpoint mode(s) of the runs; None = no checkpoints
    modes: tuple[str, ...] | None = None
    restart = False

    def __init__(self, *, passes: int, rounds: int, apps: tuple[type, ...]) -> None:
        self.passes = passes
        self.rounds = rounds
        self.apps = apps

    def inputs(self, seed: int, index: int) -> list[AppInput]:
        """The runs of round ``index``, before their native reference:
        every app ``passes`` times at ``scale=1.0`` with a seeded data
        seed. The modes go round-robin over an app's runs, each app
        starting one mode further on, so every pass runs each mode equally
        often and every seed runs the same mix."""
        modes = self.modes or (None,)
        rng = round_rng(seed, self.name, index)
        runs = []
        for p in range(index * self.passes, (index + 1) * self.passes):
            for a, cls in enumerate(self.apps):
                mode = modes[(a + p) % len(modes)]
                runs.append(AppInput(cls, 1.0, rng.randrange(1 << 31), mode))
        return runs

    def warmup(self) -> None:
        """Untimed: run every app once at a small scale, cut in each mode
        in turn. A failure here is left to the measured rounds to count."""
        modes = self.modes or (None,)
        for i, cls in enumerate(self.apps):
            inp = AppInput(cls, 0.05, 0, modes[i % len(modes)])
            digest, ns, callbacks = run_native(inp)
            if self.modes:
                inp = AppInput(cls, inp.scale, 0, inp.mode, (0, callbacks - 1), digest, ns)
            try:
                run_crac(inp, restart=self.restart)
            except Exception:  # counted when the measured rounds meet it
                pass

    def setup(self, seed: int, index: int) -> list[AppInput]:
        """Generate the round's inputs; run each natively for its digest,
        virtual runtime and checkpoint-callback count; draw the cuts."""
        out = []
        for i, inp in enumerate(self.inputs(seed, index)):
            digest, native_ns, callbacks = run_native(inp)
            cuts: tuple[int, ...] = ()
            if self.modes is not None:
                rng = round_rng(seed, self.name, index, i, "cuts")
                cuts = tuple(sorted(rng.sample(range(callbacks), min(CUTS, callbacks))))
            out.append(AppInput(
                inp.cls, inp.scale, inp.seed, inp.mode, cuts, digest, native_ns,
            ))
        return out

    def measure(self, runs: list[AppInput], ledger: Ledger, *, trace: bool) -> RoundResult:
        """Run every input under CRAC and check it against native."""
        res = RoundResult()
        for inp in runs:
            tracer = sut.Tracer() if trace else None
            try:
                run = run_crac(inp, restart=self.restart, tracer=tracer)
            except Exception as exc:  # counted, never skipped or fatal
                ledger.fail(error_code(exc))
                continue
            finally:
                res.ops += 1
                if tracer is not None:
                    res.traced(tracer)
            if run.digest != inp.native_digest:
                ledger.fail("DIGEST_MISMATCH")
                continue
            ledger.ok()
            res.overhead_pct.append(
                (run.virt_ns - inp.native_ns) / inp.native_ns * 100.0
            )
            res.counts["native.virt_ns"] += inp.native_ns
            self.account(inp, run, res)
        return res

    def account(self, inp: AppInput, run: CracRun, res: RoundResult) -> None:
        """Record the run's events and exact counts."""
        res.events_ns.append(run.virt_ns - inp.native_ns)


def _account_images(run: CracRun, res: RoundResult) -> None:
    for image in run.images:
        mb = image.size_bytes / (1 << 20)
        res.sample("dmtcp.image_mb", mb)
        res.sample(
            "dmtcp.image_mb_incr" if image.incremental else "dmtcp.image_mb_full",
            mb,
        )
    res.counts["dmtcp.store.staged_bytes"] += sum(i.size_bytes for i in run.images)
    res.counts["dmtcp.store.gc_generations"] += run.store.evicted


class AppsDispatch(AppsWorkload):
    """``apps-dispatch``: CRAC runs, no checkpoints (module docstring).
    Its event is the virtual time CRAC adds to one run."""

    name = "apps-dispatch"

    def __init__(
        self, *, passes: int = 2, rounds: int = 5, apps: tuple[type, ...] = sut.APPS
    ) -> None:
        super().__init__(passes=passes, rounds=rounds, apps=apps)


class AppsCkpt(AppsWorkload):
    """``apps-ckpt``: cuts in every mode, no restart (module docstring).
    Its event is one cut's checkpoint time."""

    name = "apps-ckpt"
    modes = CUT_MODES

    def __init__(
        self, *, passes: int = 2, rounds: int = 5, apps: tuple[type, ...] = sut.APPS
    ) -> None:
        super().__init__(passes=passes, rounds=rounds, apps=apps)

    def account(self, inp: AppInput, run: CracRun, res: RoundResult) -> None:
        """Cut times, image sizes, stall, speculation outcomes."""
        res.events_ns.extend(cut_durable_ns(image) for image in run.images)
        _account_images(run, res)
        stall = sum(cut_stall_ns(image) for image in run.images)
        res.sample("dmtcp.stall_pct", stall / (run.virt_ns - stall) * 100.0)
        if inp.mode == "speculative":
            writers = [image.forked_writer for image in run.images]
            res.counts["spec.attempted"] += len(writers)
            res.counts["spec.committed"] += sum(w.committed for w in writers)
            res.counts["spec.rollbacks"] += sum(w.aborted for w in writers)
            res.counts["spec.conflicts"] += sum(w.invalidated for w in writers)


def cut_durable_ns(image) -> float:
    """Virtual time from the start of a cut until its image is durable:
    the synchronous part, plus the background write of a forked or
    speculative cut."""
    ns = image.checkpoint_time_ns
    writer = getattr(image, "forked_writer", None)
    if isinstance(writer, sut.ForkedCheckpoint):
        ns += writer.write_end_ns - writer.fork_ns
    elif writer is not None:
        ns += writer.validate_end_ns - writer.cut_ns
    return ns


def cut_stall_ns(image) -> float:
    """App-visible virtual cost of one cut: its synchronous part, plus
    what a forked or speculative writer charged the app later
    (copy-on-write, validation replay, waiting out the background write)."""
    ns = image.checkpoint_time_ns
    writer = getattr(image, "forked_writer", None)
    if writer is not None:
        ns += writer.residual_wait_ns
        ns += getattr(writer, "cow_time_ns", 0.0) + getattr(writer, "replay_time_ns", 0.0)
    return ns


class AppsRestart(AppsWorkload):
    """``apps-restart``: cut, kill, ``restart_latest`` (module docstring).
    Its event is one restart's restart time."""

    name = "apps-restart"
    modes = ("alternate",)
    restart = True

    def __init__(
        self,
        *,
        passes: int = 1,
        rounds: int = 5,
        apps: tuple[type, ...] = tuple(
            a for a in sut.APPS if a.__name__ not in RESTART_BROKEN
        ),
    ) -> None:
        super().__init__(passes=passes, rounds=rounds, apps=apps)

    def account(self, inp: AppInput, run: CracRun, res: RoundResult) -> None:
        """Restart times and what each restart rebuilt."""
        _account_images(run, res)
        for report in run.restarts:
            res.events_ns.append(report.restart_time_ns)
            res.counts["core.session.restarts"] += 1
            res.counts["core.session.replayed_calls"] += report.replayed_calls
            res.counts["core.session.refilled_bytes"] += report.refilled_bytes
            res.counts["core.session.reregistered_fatbins"] += (
                report.reregistered_fatbins
            )
            res.counts["core.session.adopted_streams"] += report.adopted_streams
            res.counts["core.session.attempts"] += len(report.attempts)


# -- serving workload --------------------------------------------------------


@dataclass
class ServeRound:
    """A serving round after setup: the tier with every session open."""

    pool: object
    scheduler: object
    sids: list[str]
    #: native virtual ns of opening a session and of serving one request
    native_open_ns: float
    native_request_ns: float


def native_request_costs(state_elems: int, service_ns: float) -> tuple[float, float]:
    """Native virtual ns to open a serving session (fat binary + state
    buffer) and to serve one request (one kernel + synchronize)."""
    split = sut.SplitProcess(gpu="V100", seed=0)
    backend = sut.NativeBackend(split.runtime)
    backend.register_app_binary(sut.FatBinary("serve.fatbin", ("serve_step",)))
    backend.malloc(state_elems * 4)
    opened = backend.process.clock_ns
    backend.launch(
        "serve_step", flop=2.0 * state_elems, duration_ns=service_ns
    )
    backend.device_synchronize()
    return opened, backend.process.clock_ns - opened


class ServeChurn:
    """``serve-churn`` (module docstring). Its event is one resume: a
    parked session's rehydration or a failed-over session's restore."""

    name = "serve-churn"

    def __init__(
        self,
        *,
        sessions: int = 200,
        waves: int = 4,
        rounds: int = 5,
    ) -> None:
        self.sessions = sessions
        self.waves = waves
        self.rounds = rounds

    def _open(self, seed: int, sessions: int) -> ServeRound:
        pool = sut.SessionPool(NODES, slots=SLOTS, seed=seed)
        admission = sut.AdmissionController(
            max_queue=sessions,  # one wave
            deadline_ns=5e9,
            service_estimate_ns=500_000.0,
            servers=NODES * SLOTS,
        )
        faults = [
            sut.FaultSpec(stage, probability=FAULT_PROBABILITY, max_fires=1)
            for stage in ("ecc", "kernel-hang")
        ]
        sched = sut.ServeScheduler(
            pool, admission=admission, seed=seed, fault_plan=faults,
        )
        sids = [f"s{i:04d}" for i in range(sessions)]
        for sid in sids:
            sched.open_session(sid)
        return ServeRound(
            pool, sched, sids,
            *native_request_costs(sched.state_elems, sched.service_ns),
        )

    def warmup(self) -> None:
        """Untimed: a small campaign through every code path."""
        rnd = self._open(0, 2 * NODES * SLOTS)
        self.measure(rnd, Ledger(), trace=False)

    def setup(self, seed: int, index: int) -> ServeRound:
        """Build the pool and open every session (each anchored by a
        full checkpoint shipped to its buddy node)."""
        rng = round_rng(seed, self.name, index)
        return self._open(rng.randrange(1 << 31), self.sessions)

    def measure(self, rnd: ServeRound, ledger: Ledger, *, trace: bool) -> RoundResult:
        """Serve every wave, kill node 0 after the first, close and
        digest-check every session."""
        res = RoundResult()
        sched, pool = rnd.scheduler, rnd.pool
        tracers = []
        if trace:
            for sid in rnd.sids:
                tracers.append(sched.records[sid].session.enable_trace())
        for wave in range(self.waves):
            admitted = []
            for sid in rnd.sids:
                try:
                    admitted.append((sid, sched.offer(sid)))
                except (sut.AdmissionRejectedError, sut.ServeDeadlineExceededError) as exc:
                    ledger.fail(error_code(exc))
            for sid, wait_ns in admitted:
                res.ops += 1
                try:
                    sched.handle_request(sid, wait_ns=wait_ns)
                except Exception as exc:  # counted, never skipped or fatal
                    ledger.fail(error_code(exc))
                else:
                    ledger.ok()
            if wave == 0:
                pool.fail(pool.nodes[0].name)
                sched.sweep()
        for sid in rnd.sids:
            try:
                closed = sched.close_session(sid)
            except Exception as exc:  # counted, never skipped or fatal
                ledger.fail(error_code(exc))
                continue
            if closed["lost"]:
                ledger.fail("SESSION_LOST")
                continue
            if not closed["ok"]:
                ledger.fail("DIGEST_MISMATCH")
                continue
            ledger.ok()
            native = rnd.native_open_ns + closed["requests"] * rnd.native_request_ns
            crac = sched.records[sid].session.process.clock_ns
            res.overhead_pct.append((crac - native) / native * 100.0)
            res.counts["native.virt_ns"] += native
        for tracer in tracers:
            res.traced(tracer)
        res.events_ns.extend(sched.resume_ns)
        counters = sched.metrics.snapshot()["counters"]
        for key, counter in (
            ("serve.parks", "serve.evicted"),
            ("serve.rehydrates", "serve.rehydrated"),
            ("serve.failovers", "serve.failed_over"),
            ("serve.quarantined", "serve.quarantined"),
            ("serve.recovery.retry", "serve.recovery.retry"),
            ("serve.recovery.stream-reset", "serve.recovery.stream-reset"),
            ("serve.recovery.restore", "serve.recovery.restore"),
            ("serve.recovery.failover", "serve.recovery.failover"),
        ):
            res.counts[key] += int(counters.get(counter, 0))
        res.counts["serve.shed"] += sum(
            int(v) for k, v in counters.items() if k.startswith("serve.requests.shed")
        )
        res.counts["cluster.shipped_bytes"] += pool.shipped_bytes
        res.counts["cluster.link_faults"] += len(pool.interconnect.faults())
        return res


#: workload name → factory (the names are the contract later changes cite)
WORKLOADS = {
    w.name: w for w in (AppsDispatch, AppsCkpt, AppsRestart, ServeChurn)
}
