"""Fault-tolerance economics: what CRAC's costs buy (paper §1(a)/(b)).

The paper motivates transparent checkpointing with GPU soft errors and
long-running jobs; this module turns the *measured* checkpoint/restart
costs of the reproduction into completion-time predictions:

- :func:`young_interval` — Young's first-order optimal checkpoint
  interval √(2·C·MTBF) for checkpoint cost C;
- :func:`daly_interval` — Daly's higher-order refinement;
- :func:`expected_completion_time` — analytic expected makespan of a job
  with periodic checkpointing under exponential failures;
- :class:`FaultSimulator` — a seeded Monte-Carlo of the same process
  (inject failures, lose work back to the last checkpoint, pay restart),
  used to cross-validate the analytic model and to compare "CRAC with
  interval τ" against "no checkpointing, restart from scratch";
- :func:`run_fault_campaign` — GPU runtime faults injected into real
  application runs, recovered through the escalation ladder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


def young_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Young's optimal interval: √(2·C·M)."""
    if checkpoint_cost_s <= 0 or mtbf_s <= 0:
        raise ValueError("cost and MTBF must be positive")
    return math.sqrt(2.0 * checkpoint_cost_s * mtbf_s)


def daly_interval(checkpoint_cost_s: float, mtbf_s: float) -> float:
    """Daly's refinement of Young's formula (valid for C < 2M)."""
    if checkpoint_cost_s <= 0 or mtbf_s <= 0:
        raise ValueError("cost and MTBF must be positive")
    c, m = checkpoint_cost_s, mtbf_s
    if c >= 2 * m:
        return m
    return math.sqrt(2.0 * c * m) * (
        1.0 + math.sqrt(c / (2.0 * m)) / 3.0 + (c / (2.0 * m)) / 9.0
    ) - c


def expected_completion_time(
    work_s: float,
    interval_s: float,
    checkpoint_cost_s: float,
    restart_cost_s: float,
    mtbf_s: float,
) -> float:
    """Expected makespan with periodic checkpointing, exponential faults.

    Standard first-order model: each segment of ``interval_s`` work plus
    its checkpoint is retried until it completes without a failure; a
    failure costs the partial segment (≈ half on average, modelled via
    the exponential's memorylessness exactly) plus the restart.
    """
    if work_s <= 0:
        raise ValueError("work must be positive")
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    if mtbf_s <= 0:
        raise ValueError("MTBF must be positive")
    lam = 1.0 / mtbf_s
    segments = max(1, math.ceil(work_s / interval_s))
    seg_work = work_s / segments
    seg_span = seg_work + checkpoint_cost_s
    # Expected time to push one segment through, with exponential
    # failures at rate λ: E = (e^{λT} − 1)/λ per attempt-cycle plus a
    # restart per failure (classic renewal argument).
    p_survive = math.exp(-lam * seg_span)
    if p_survive == 0.0:
        # Degenerate regime: a segment is so long relative to the MTBF
        # that (in double precision) it can never complete fault-free —
        # the expected makespan diverges.
        return math.inf
    e_attempt = (math.exp(lam * seg_span) - 1.0) / lam
    p_fail = 1.0 - p_survive
    e_segment = e_attempt + (p_fail / p_survive) * restart_cost_s
    return segments * e_segment


@dataclass
class SimOutcome:
    """Result of one Monte-Carlo run."""

    makespan_s: float
    failures: int
    checkpoints: int
    work_lost_s: float


@dataclass
class SessionSimOutcome(SimOutcome):
    """Result of one *session-backed* run (real checkpoint pipeline)."""

    aborted_checkpoints: int = 0
    restart_attempts: int = 0
    generations_restored: list[int] = field(default_factory=list)


@dataclass
class CrossValidation:
    """Analytic Young/Daly prediction vs end-to-end simulated runs."""

    interval_s: float
    checkpoint_cost_s: float
    restart_cost_s: float
    analytic_s: float
    simulated_s: float
    outcomes: list[SessionSimOutcome]

    @property
    def ratio(self) -> float:
        """simulated / analytic (1.0 = perfect agreement)."""
        return self.simulated_s / self.analytic_s if self.analytic_s else math.inf


class FaultSimulator:
    """Seeded Monte-Carlo of a checkpointed job under random failures."""

    def __init__(self, mtbf_s: float, seed: int = 0) -> None:
        if mtbf_s <= 0:
            raise ValueError("MTBF must be positive")
        self.mtbf_s = mtbf_s
        self._rng = random.Random(seed)

    def run_once(
        self,
        work_s: float,
        interval_s: float | None,
        checkpoint_cost_s: float,
        restart_cost_s: float,
    ) -> SimOutcome:
        """Simulate one job. ``interval_s=None`` means no checkpointing
        (a failure loses *all* completed work)."""
        clock = 0.0
        done = 0.0  # committed (checkpointed) work
        progress = 0.0  # uncommitted work since the last checkpoint
        failures = 0
        checkpoints = 0
        lost = 0.0
        next_fault = self._rng.expovariate(1.0 / self.mtbf_s)
        while done + progress < work_s:
            # Time until the next event: checkpoint boundary or job end.
            if interval_s is None:
                until_ckpt = work_s - done - progress
            else:
                until_ckpt = min(interval_s - progress, work_s - done - progress)
            if clock + until_ckpt >= next_fault:
                # Failure strikes mid-segment: everything run since the
                # last checkpoint — the uncommitted progress plus the
                # part of this slice that actually ran — is lost.
                ran = min(max(0.0, next_fault - clock), until_ckpt)
                lost += progress + ran
                progress = 0.0
                if interval_s is None:
                    done = 0.0  # no checkpoint: start over
                clock = next_fault + restart_cost_s
                failures += 1
                next_fault = clock + self._rng.expovariate(1.0 / self.mtbf_s)
                continue
            clock += until_ckpt
            progress += until_ckpt
            if done + progress >= work_s:
                break
            # Checkpoint boundary reached: commit, pay the cost (a fault
            # during the checkpoint loses the segment).
            if clock + checkpoint_cost_s >= next_fault:
                lost += progress
                progress = 0.0
                clock = next_fault + restart_cost_s
                failures += 1
                next_fault = clock + self._rng.expovariate(1.0 / self.mtbf_s)
                continue
            clock += checkpoint_cost_s
            done += progress
            progress = 0.0
            checkpoints += 1
        return SimOutcome(
            makespan_s=clock, failures=failures,
            checkpoints=checkpoints, work_lost_s=lost,
        )

    def mean_makespan(
        self,
        work_s: float,
        interval_s: float | None,
        checkpoint_cost_s: float,
        restart_cost_s: float,
        runs: int = 200,
    ) -> float:
        """Mean makespan over ``runs`` Monte-Carlo repetitions."""
        total = 0.0
        for _ in range(runs):
            total += self.run_once(
                work_s, interval_s, checkpoint_cost_s, restart_cost_s
            ).makespan_s
        return total / runs

    # -- session-backed mode ---------------------------------------------------

    def run_session_once(
        self,
        work_s: float,
        interval_s: float,
        *,
        ckpt_fault_prob: float = 0.0,
        restore_fault_prob: float = 0.0,
        keep_generations: int = 3,
        retries: int = 3,
        backoff_s: float = 0.05,
        gpu: str = "V100",
    ) -> SessionSimOutcome:
        """One end-to-end run through the *real* checkpoint pipeline.

        Unlike :meth:`run_once` — which charges abstract per-event
        costs — this drives an actual :class:`~repro.core.session.CracSession`
        with a :class:`~repro.dmtcp.store.CheckpointStore`: checkpoints
        pay the measured drain/stage/write costs, faults can also land
        *inside* the checkpoint path (``ckpt_fault_prob`` per staged
        region — the partial is discarded and the job continues from
        the previous generation), restores can fail transiently
        (``restore_fault_prob``) and self-heal via
        :meth:`~repro.core.session.CracSession.restart_latest`'s
        backoff + generation fallback. Work advances the session's
        virtual clock; the makespan is the session's own elapsed time.
        """
        from repro.core.session import CracSession
        from repro.dmtcp.store import CheckpointStore
        from repro.errors import InjectedFault
        from repro.harness.fault_injection import FaultInjector, FaultSpec

        specs = []
        if ckpt_fault_prob > 0.0:
            specs.append(FaultSpec(
                "image-write", probability=ckpt_fault_prob, max_fires=None))
        if restore_fault_prob > 0.0:
            specs.append(FaultSpec(
                "restore", probability=restore_fault_prob, max_fires=None))
        injector = FaultInjector(specs, seed=self._rng.randrange(1 << 30))
        store = CheckpointStore(
            keep_generations=keep_generations, fault_injector=injector)
        session = CracSession(
            gpu=gpu, seed=self._rng.randrange(1 << 30),
            fault_injector=injector,
        )
        # Give the job some state worth checkpointing.
        ptr = session.backend.malloc(1 << 16)
        session.backend.memset(ptr, 0x5A, 1 << 16)

        def take_checkpoint() -> int | None:
            """Two-phase checkpoint; None if a fault tore the write."""
            try:
                session.checkpoint(store=store)
            except InjectedFault:
                store.discard_partials()
                return None
            return store.latest()

        # Anchor generation 0 so the very first fault has a recovery
        # line (a job with *no* checkpoint yet would restart from
        # scratch; cap the attempts so a hostile plan cannot spin).
        committed_at: dict[int, float] = {}
        for _ in range(50):
            gen = take_checkpoint()
            if gen is not None:
                committed_at[gen] = 0.0
                break
        else:
            raise RuntimeError("could not commit the anchor checkpoint")

        t0 = session.process.clock_ns
        committed = 0.0  # work protected by the latest committed image
        progress = 0.0  # work since the last *committed* checkpoint
        since_attempt = 0.0  # work since the last checkpoint *attempt*
        failures = 0
        checkpoints = 0
        aborted = 0
        lost = 0.0
        restart_attempts = 0
        restored_gens: list[int] = []
        next_fault = self._rng.expovariate(1.0 / self.mtbf_s)

        while committed + progress < work_s:
            until_attempt = min(
                interval_s - since_attempt, work_s - committed - progress
            )
            elapsed = (session.process.clock_ns - t0) / 1e9
            if elapsed + until_attempt >= next_fault:
                # The node dies mid-segment.
                ran = min(max(0.0, next_fault - elapsed), until_attempt)
                session.process.advance(ran * 1e9)
                lost += progress + ran
                progress = 0.0
                since_attempt = 0.0
                failures += 1
                session.kill()
                report = session.restart_latest(
                    store, retries=retries, backoff_s=backoff_s
                )
                restart_attempts += len(report.attempts)
                restored_gens.append(report.generation)
                if committed_at[report.generation] < committed:
                    # Fell back past the newest cut: that work is lost too.
                    lost += committed - committed_at[report.generation]
                    committed = committed_at[report.generation]
                now = (session.process.clock_ns - t0) / 1e9
                next_fault = now + self._rng.expovariate(1.0 / self.mtbf_s)
                continue
            session.process.advance(until_attempt * 1e9)
            progress += until_attempt
            since_attempt += until_attempt
            if committed + progress >= work_s:
                break
            gen = take_checkpoint()
            since_attempt = 0.0
            if gen is None:
                aborted += 1  # torn write discarded; keep running uncommitted
                continue
            committed += progress
            progress = 0.0
            committed_at[gen] = committed
            checkpoints += 1

        return SessionSimOutcome(
            makespan_s=(session.process.clock_ns - t0) / 1e9,
            failures=failures,
            checkpoints=checkpoints,
            work_lost_s=lost,
            aborted_checkpoints=aborted,
            restart_attempts=restart_attempts,
            generations_restored=restored_gens,
        )

    def measure_session_costs(self, *, gpu: str = "V100") -> tuple[float, float]:
        """Probe one checkpoint + restart of a minimal session; returns
        (checkpoint_cost_s, restart_cost_s) in virtual seconds."""
        from repro.core.session import CracSession

        session = CracSession(gpu=gpu, seed=0)
        ptr = session.backend.malloc(1 << 16)
        session.backend.memset(ptr, 0x5A, 1 << 16)
        image = session.checkpoint()
        session.kill()
        report = session.restart(image)
        return image.checkpoint_time_ns / 1e9, report.restart_time_ns / 1e9

    def cross_validate_session(
        self,
        work_s: float,
        interval_s: float | None = None,
        *,
        runs: int = 3,
        ckpt_fault_prob: float = 0.0,
        restore_fault_prob: float = 0.0,
        gpu: str = "V100",
    ) -> CrossValidation:
        """Cross-validate Young/Daly analytics against end-to-end runs.

        Probes the real checkpoint/restart costs, predicts the makespan
        with :func:`expected_completion_time` (at ``interval_s`` or
        Young's optimum), then measures the mean makespan of ``runs``
        session-backed simulations *with* checkpoint-stage faults
        enabled. The returned :class:`CrossValidation` carries both
        numbers and the per-run outcomes.
        """
        ckpt_cost, restart_cost = self.measure_session_costs(gpu=gpu)
        if interval_s is None:
            interval_s = young_interval(max(ckpt_cost, 1e-6), self.mtbf_s)
        analytic = expected_completion_time(
            work_s, interval_s, ckpt_cost, restart_cost, self.mtbf_s
        )
        outcomes = [
            self.run_session_once(
                work_s, interval_s,
                ckpt_fault_prob=ckpt_fault_prob,
                restore_fault_prob=restore_fault_prob,
                gpu=gpu,
            )
            for _ in range(runs)
        ]
        simulated = sum(o.makespan_s for o in outcomes) / len(outcomes)
        return CrossValidation(
            interval_s=interval_s,
            checkpoint_cost_s=ckpt_cost,
            restart_cost_s=restart_cost,
            analytic_s=analytic,
            simulated_s=simulated,
            outcomes=outcomes,
        )


# -- MTBF-driven runtime fault campaign ----------------------------------------
#
# Where the FaultSimulator above injects *node* failures around an
# abstract work loop, the campaign below injects *GPU runtime* faults
# into real application runs and measures how the escalation ladder
# (``core/session.py``) recovers: which rung fired, how much virtual
# work was lost, and whether the final output stayed bit-identical to a
# fault-free run.

#: Runtime fault stages swept by the campaign, mapped to the ladder rung
#: the error taxonomy (``cuda/errors.py``) routes each class to first.
RUNTIME_FAULT_CLASSES = {
    "xfer-corrupt": "retry",
    "uvm-storm": "retry",
    "kernel-hang": "stream-reset",
    "copy-stall": "stream-reset",
    "ecc": "restore",
}


@dataclass
class GuardedRunOutcome:
    """One application run under the fault domain's escalation ladder."""

    app: str
    digest: int
    runtime_s: float
    cuda_calls: int
    checkpoints: int
    faults_fired: int
    rung_counts: dict[str, int]
    watchdog_trips: int
    lost_work_s: float
    backoff_s: float
    #: injector visits per runtime stage (how many sites *could* fault)
    stage_visits: dict[str, int] = field(default_factory=dict)
    #: campaign-cell labels (filled by :func:`run_fault_campaign`)
    fault_class: str | None = None
    mtbf_s: float | None = None
    probability: float = 0.0
    #: typed-abort class name if the run did not complete, else None
    aborted: str | None = None
    #: digest == fault-free digest (None when the run aborted)
    bit_correct: bool | None = None


def run_guarded_app(
    app_cls,
    *,
    scale: float = 0.05,
    seed: int = 0,
    gpu: str = "V100",
    specs=None,
    injector_seed: int = 0,
    checkpoint_fracs=(0.25, 0.5, 0.75),
    keep_generations: int = 4,
) -> GuardedRunOutcome:
    """Run one workload end-to-end under the recovery ladder.

    Mirrors the harness runner's CRAC mode, but with
    :meth:`~repro.core.session.CracSession.enable_fault_domain` guarding
    every kernel/copy/sync and a checkpoint store feeding the restore
    rung: an anchor generation is committed before the app starts, and
    further cuts land at ``checkpoint_fracs`` of the run. A failed run
    surfaces as a *typed* abort in the outcome — never an undetected
    wrong answer.
    """
    from repro.core.session import CracSession
    from repro.dmtcp.store import CheckpointStore
    from repro.errors import CudaError, RecoveryAbortedError
    from repro.harness.fault_injection import FaultInjector
    from repro.harness.runner import drive

    injector = FaultInjector(list(specs or []), seed=injector_seed)
    store = CheckpointStore(keep_generations=keep_generations)
    session = CracSession(gpu=gpu, seed=seed, fault_injector=injector)
    domain = session.enable_fault_domain(store)

    committed = [0]

    def commit(progress: float = 0.0) -> None:
        if domain.checkpoint() is not None:
            committed[0] += 1

    commit()  # anchor: rung 3 needs a recovery line
    digest = -1
    calls = 0
    aborted: str | None = None
    try:
        result = drive(
            app_cls(scale=scale, seed=seed), session,
            cuts=checkpoint_fracs, on_cut=commit, real=True,
        )
        digest, calls = result.digest, result.cuda_calls
    except (RecoveryAbortedError, CudaError) as exc:
        aborted = type(exc).__name__
        calls = session.backend.total_calls
    rep = domain.report
    return GuardedRunOutcome(
        app=app_cls.name,
        digest=digest,
        runtime_s=session.process.clock_ns / 1e9,
        cuda_calls=calls,
        checkpoints=committed[0],
        faults_fired=len(injector.fired),
        rung_counts=rep.rung_counts(),
        watchdog_trips=rep.watchdog_trips,
        lost_work_s=rep.lost_work_ns / 1e9,
        backoff_s=rep.backoff_ns / 1e9,
        stage_visits={s: injector.visits[s] for s in RUNTIME_FAULT_CLASSES},
        aborted=aborted,
    )


def run_rank_death_scenario(
    *, n_ranks: int = 3, seed: int = 0, gpu: str = "V100"
) -> dict:
    """A rank dies between prepare and commit of a coordinated checkpoint.

    Three-act script: (1) every rank commits a consistent cut via 2PC;
    (2) more work runs, then a second 2PC is attempted during which one
    rank's heartbeat goes silent — the coordinator aborts the cut (no
    generation half-commits) and the surviving strict majority raises
    :class:`~repro.errors.RankDeathError`; (3) the job recovers with
    ``restart_all_latest`` and every rank is back on the *prior*
    generation with its pre-fault state, post-cut work lost.
    """
    from repro.dmtcp.coordinator import HeartbeatMonitor
    from repro.dmtcp.store import CheckpointStore
    from repro.errors import RankDeathError
    from repro.harness.fault_injection import (
        FaultInjector,
        FaultSpec,
        derive_seed,
    )
    from repro.mpi.world import MpiWorld

    # The first (healthy) 2PC polls every rank once: n_ranks heartbeat
    # visits. Visit n_ranks + 2 is rank 1's round-1 beat of the second
    # 2PC — that is where the crash lands.
    injector = FaultInjector(
        [FaultSpec("heartbeat", at_count=n_ranks + 2)],
        seed=derive_seed(seed, "rank-death"),
    )
    world = MpiWorld(n_ranks, gpu=gpu, seed=seed, fault_injector=injector)
    stores = [CheckpointStore(keep_generations=3) for _ in range(n_ranks)]
    nbytes = 1 << 12
    ptrs = []
    for i, r in enumerate(world.ranks):
        ptr = r.backend.malloc(nbytes)
        r.backend.memset(ptr, 0x10 + i, nbytes)
        ptrs.append(ptr)
    gens_before = world.checkpoint_all_2pc(
        stores, heartbeat=HeartbeatMonitor(n_ranks)
    )
    for i, r in enumerate(world.ranks):
        r.backend.memset(ptrs[i], 0x60 + i, nbytes)  # post-cut work: lost

    rank_death_raised = False
    dead: list[int] = []
    try:
        world.checkpoint_all_2pc(stores, heartbeat=HeartbeatMonitor(n_ranks))
    except RankDeathError as exc:
        rank_death_raised = True
        dead = exc.dead_ranks

    recovered = None
    prior_state_restored = False
    if rank_death_raised:
        reports = world.restart_all_latest(stores)
        cut = {rep.generation for rep in reports}
        recovered = cut.pop() if len(cut) == 1 else None
        prior_state_restored = all(
            world.ranks[i].session.runtime.buffers[ptrs[i]].contents
            .read_bytes(0, nbytes) == bytes([0x10 + i]) * nbytes
            for i in range(n_ranks)
        )
    return {
        "n_ranks": n_ranks,
        "rank_death_raised": rank_death_raised,
        "dead_ranks": dead,
        "generations_before": gens_before,
        "recovered_generation": recovered,
        "no_half_commit": all(
            s.generations == [gens_before[i]] for i, s in enumerate(stores)
        ),
        "prior_state_restored": prior_state_restored,
    }


def run_node_failover_scenario(
    app_cls,
    *,
    scale: float = 0.05,
    seed: int = 0,
    gpu_src: str = "V100",
    gpu_dst: str = "V100",
    checkpoint_fracs=(0.25, 0.5, 0.75),
) -> dict:
    """Rung 4 end-to-end: a node dies mid-run, the job fails over.

    The app runs guarded on node ``src`` with the restore rung disabled
    (``max_restores=0`` — a dying node's local store is no recovery
    line) and every committed generation replicated to node ``dst``.
    Midway, a fatal ECC error fires; the scenario treats it as the
    node's death throes: the node stops heartbeating, the cluster
    monitor declares it dead after ``max_missed`` rounds, and the
    ladder — with retry/reset inapplicable (fatal) and restore out of
    budget — takes the failover rung: the session restores the latest
    *shipped* generation on ``dst`` (heterogeneous-tolerant), the
    monitor rebaselines, and the run finishes there bit-identical to a
    fault-free baseline (deterministic redo).
    """
    from repro.cluster import Cluster, ClusterNode, Interconnect
    from repro.core.session import CracSession
    from repro.harness.fault_injection import (
        FaultInjector,
        FaultSpec,
        derive_seed,
    )
    from repro.harness.runner import drive

    base = run_guarded_app(
        app_cls, scale=scale, seed=seed, gpu=gpu_src, specs=[],
        injector_seed=derive_seed(seed, f"{app_cls.name}:failover-baseline"),
        checkpoint_fracs=checkpoint_fracs,
    )
    if base.aborted is not None:
        raise RuntimeError(
            f"fault-free baseline of {app_cls.name} aborted: {base.aborted}"
        )
    ecc_visits = base.stage_visits.get("ecc", 0)
    if ecc_visits == 0:
        return {
            "app": app_cls.name, "gpu_src": gpu_src, "gpu_dst": gpu_dst,
            "skipped": "app visits no ecc sites",
        }

    src = ClusterNode("src", gpu=gpu_src, seed=seed)
    dst = ClusterNode("dst", gpu=gpu_dst, seed=seed)
    cluster = Cluster(
        [src, dst],
        interconnect=Interconnect(seed=derive_seed(seed, "failover-fabric")),
        seed=seed,
    )
    injector = FaultInjector(
        [FaultSpec("ecc", at_count=max(1, ecc_visits // 2))],
        seed=derive_seed(seed, f"{app_cls.name}:failover"),
    )
    session = CracSession(gpu=gpu_src, seed=seed, fault_injector=injector)
    src.adopt(app_cls.name, session)
    domain = session.enable_fault_domain(src.store, max_restores=0)

    replicated = [0]

    def commit_and_ship() -> None:
        if domain.checkpoint() is None or not src.alive:
            return
        cluster.replicate(
            "src", "dst", now_ns=session.process.clock_ns
        )
        replicated[0] += 1

    def on_cut(progress: float) -> None:
        if src.alive and "src" not in cluster.dead_nodes():
            commit_and_ship()
        else:
            domain.checkpoint()  # new home: commit to dst's store

    commit_and_ship()  # anchor generation, shipped before any fault
    declared_dead: list[str] = []
    inner = cluster.make_failover_handler(session, app_cls.name, "src", "dst")

    def handler(exc: Exception) -> dict:
        # The fatal error is the node dying: it stops heartbeating and
        # the monitor's missed-beat rounds declare it dead before the
        # survivors take over.
        cluster.kill_node("src")
        declared_dead.extend(cluster.heartbeat_rounds())
        return inner(exc)

    domain.failover_handler = handler
    result = drive(
        app_cls(scale=scale, seed=seed), session,
        cuts=checkpoint_fracs, on_cut=on_cut, real=True,
    )
    rep = domain.report
    return {
        "app": app_cls.name,
        "gpu_src": gpu_src,
        "gpu_dst": gpu_dst,
        "digest_baseline": base.digest,
        "digest_failover": result.digest,
        "bit_correct": result.digest == base.digest,
        "declared_dead": declared_dead,
        "failovers": rep.failovers,
        "rung_counts": rep.rung_counts(),
        "lost_work_s": rep.lost_work_ns / 1e9,
        "replicated": replicated[0],
        "finished_on": "dst" if app_cls.name in dst.sessions else "src",
        "monitor_rebaselined": all(
            h.missed == 0 for h in cluster.monitor.health if not h.dead
        ),
    }


def run_fault_campaign(
    app_classes,
    *,
    scale: float = 0.05,
    seed: int = 0,
    gpu: str = "V100",
    fault_classes=None,
    mtbf_factors=(0.5, 0.2),
) -> dict:
    """Sweep fault class × rate over application runs; JSON-able report.

    Per app: one fault-free baseline pins the reference digest, runtime,
    and per-stage visit counts; then every (fault class, MTBF) cell runs
    with a per-visit fault probability chosen so the *expected* fault
    count is ``runtime / MTBF``. Each app's MTBFs are ``mtbf_factors``
    × its own baseline runtime (so every app sees comparable fault
    pressure regardless of its length). Classes whose sites an app
    never visits (e.g. ``uvm-storm`` without managed memory) are
    reported as skipped, not silently dropped. The report ends with the
    rank-death-during-2PC scenario, the node-failover cells and
    cross-cell totals.
    """
    from dataclasses import asdict

    from repro.harness.fault_injection import FaultSpec, derive_seed

    classes = list(fault_classes or RUNTIME_FAULT_CLASSES)
    report: dict = {"apps": {}}
    totals = {
        "cells": 0,
        "faults_fired": 0,
        "bit_correct": 0,
        "aborted": 0,
        "rung_counts": {
            "retry": 0, "stream-reset": 0, "restore": 0, "failover": 0,
        },
    }
    for cls in app_classes:
        base = run_guarded_app(
            cls, scale=scale, seed=seed, gpu=gpu, specs=[],
            injector_seed=derive_seed(seed, f"{cls.name}:baseline"),
        )
        if base.aborted is not None:
            raise RuntimeError(
                f"fault-free baseline of {cls.name} aborted: {base.aborted}"
            )
        mtbfs = [max(1e-6, base.runtime_s * f) for f in mtbf_factors]
        cells: list[GuardedRunOutcome] = []
        skipped: list[dict] = []
        for fault_class in classes:
            visits = base.stage_visits.get(fault_class, 0)
            if visits == 0:
                skipped.append({
                    "fault_class": fault_class,
                    "reason": "no sites visited (stage never reached)",
                })
                continue
            for mtbf in mtbfs:
                expected = base.runtime_s / mtbf
                prob = min(0.5, expected / visits)
                out = run_guarded_app(
                    cls, scale=scale, seed=seed, gpu=gpu,
                    specs=[FaultSpec(
                        fault_class, probability=prob, max_fires=None
                    )],
                    injector_seed=derive_seed(
                        seed, f"{cls.name}:{fault_class}:{mtbf:.6g}"
                    ),
                )
                out.fault_class = fault_class
                out.mtbf_s = mtbf
                out.probability = prob
                out.bit_correct = (
                    None if out.aborted is not None
                    else out.digest == base.digest
                )
                cells.append(out)
                totals["cells"] += 1
                totals["faults_fired"] += out.faults_fired
                totals["bit_correct"] += 1 if out.bit_correct else 0
                totals["aborted"] += 1 if out.aborted is not None else 0
                for rung, n in out.rung_counts.items():
                    totals["rung_counts"][rung] += n
        report["apps"][cls.name] = {
            "baseline": {
                "digest": base.digest,
                "runtime_s": base.runtime_s,
                "cuda_calls": base.cuda_calls,
                "checkpoints": base.checkpoints,
                "stage_visits": base.stage_visits,
            },
            "cells": [asdict(c) for c in cells],
            "skipped": skipped,
        }
    report["rank_death_2pc"] = run_rank_death_scenario(seed=seed, gpu=gpu)
    # Rung-4 cells: same-GPU failover plus a heterogeneous one (the
    # survivor hosts a different GPU model than the dead node).
    report["node_failover"] = [
        run_node_failover_scenario(
            app_classes[0], scale=scale, seed=seed,
            gpu_src=gpu, gpu_dst=dst,
        )
        for dst in (gpu, "K600" if gpu != "K600" else "V100")
    ]
    for cell in report["node_failover"]:
        if "skipped" in cell:
            continue
        totals["cells"] += 1
        totals["bit_correct"] += 1 if cell["bit_correct"] else 0
        for rung, n in cell["rung_counts"].items():
            totals["rung_counts"][rung] += n
    report["totals"] = totals
    return report
