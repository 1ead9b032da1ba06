"""The ``migrate`` bench suite: the cluster fault domain end to end.

One run exercises the cluster package's migration claims in virtual
time:

- **live vs naive migration** per app: the same workload migrates
  ``gpu_src → gpu_dst`` once with :class:`~repro.cluster.migration.\
LiveMigration` (pre-copy converges the target in the background; only
  the final delta cut is inside the blackout) and once with
  :func:`~repro.cluster.migration.naive_migrate` (stop-ship-restore).
  Both must land the fault-free digest, and the live blackout must be
  measurably below naive.
- **heterogeneous restore** falls out of the same cells: the
  destination node hosts a different GPU model, so every resume is an
  image captured on one device spec replayed onto another.
- **elastic restore**: an N-rank world's scattered regions are
  checkpointed, replayed through scratch sessions, and repartitioned
  onto M-rank worlds for each M in ``elastic_to`` — digest-checked
  byte-for-byte.
- **link faults**: a migration over an interconnect scripted to corrupt
  then drop the first two transfers must still converge (arrival CRCs +
  bounded retry), with the resends on the record.

Rung-4 node failover is gated by the ``faults`` suite.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.harness.runner import drive
from repro.harness.suites import Suite, app_classes, check


def _baseline_cell(app_cls, *, scale, seed, gpu) -> dict:
    """Fault-free single-node run: the digest every migration must hit."""
    from repro.core.session import CracSession

    session = CracSession(gpu=gpu, seed=seed)
    try:
        result = drive(app_cls(scale=scale, seed=seed), session, real=True)
        return {
            "digest": result.digest,
            "runtime_s": session.process.clock_ns / 1e9,
            "cuda_calls": result.cuda_calls,
        }
    finally:
        session.kill()


def _live_cell(
    app_cls, *, scale, seed, gpu_src, gpu_dst, checkpoint_fracs, baseline
) -> dict:
    """Migrate the app mid-run with the pre-copy state machine.

    The app's cuts drive the phases: ``begin()`` at the first fraction,
    a ``precopy_round()`` per middle fraction, and ``cutover()`` at the
    last. Every iteration runs for real, so the cuts land at true
    progress fractions. If a tiny run finishes before the last cut the
    remaining phases complete after the app (the blackout is still
    measured the same way).
    """
    from repro.cluster import ClusterNode, Interconnect, LiveMigration
    from repro.core.session import CracSession
    from repro.harness.fault_injection import derive_seed

    name = app_cls.name
    src = ClusterNode(f"{name}-src", gpu=gpu_src, seed=derive_seed(seed, f"{name}:src"))
    dst = ClusterNode(f"{name}-dst", gpu=gpu_dst, seed=derive_seed(seed, f"{name}:dst"))
    ic = Interconnect(seed=derive_seed(seed, f"{name}:live"))
    session = CracSession(gpu=gpu_src, seed=seed)
    src.adopt(name, session)
    mig = LiveMigration(session, src, dst, interconnect=ic, job=name)
    steps = [mig.begin]
    steps += [mig.precopy_round] * max(0, len(checkpoint_fracs) - 2)
    steps += [mig.cutover]
    fired = [0]
    reports = []

    def next_phase(progress: float | None = None) -> None:
        out = steps[fired[0]]()
        fired[0] += 1
        if fired[0] == len(steps):
            reports.append(out)

    try:
        result = drive(
            app_cls(scale=scale, seed=seed), session,
            cuts=checkpoint_fracs, on_cut=next_phase, real=True,
        )
        while fired[0] < len(steps):
            next_phase()
        rep = reports[0]
        return {
            "digest": result.digest,
            "bit_correct": result.digest == baseline["digest"],
            "blackout_s": rep.blackout_ns / 1e9,
            "precopy_rounds": rep.precopy_rounds,
            "full_mb": rep.full_bytes / (1 << 20),
            "delta_mb": rep.delta_bytes / (1 << 20),
            "retries": rep.retries,
            "runtime_s": session.process.clock_ns / 1e9,
            "finished_on": f"{dst.name}:{session.gpu}",
        }
    finally:
        session.kill()


def _naive_cell(
    app_cls, *, scale, seed, gpu_src, gpu_dst, cut_frac, baseline
) -> dict:
    """Migrate the same app at the live run's cutover fraction, naively."""
    from repro.cluster import ClusterNode, Interconnect, naive_migrate
    from repro.core.session import CracSession
    from repro.harness.fault_injection import derive_seed

    name = app_cls.name
    src = ClusterNode(f"{name}-nsrc", gpu=gpu_src, seed=derive_seed(seed, f"{name}:nsrc"))
    dst = ClusterNode(f"{name}-ndst", gpu=gpu_dst, seed=derive_seed(seed, f"{name}:ndst"))
    ic = Interconnect(seed=derive_seed(seed, f"{name}:naive"))
    session = CracSession(gpu=gpu_src, seed=seed)
    src.adopt(name, session)
    reports = []

    def migrate(progress: float | None = None) -> None:
        reports.append(
            naive_migrate(session, src, dst, interconnect=ic, job=name)
        )

    try:
        result = drive(
            app_cls(scale=scale, seed=seed), session,
            cuts=[cut_frac], on_cut=migrate, real=True,
        )
        if not reports:
            migrate()
        rep = reports[0]
        return {
            "digest": result.digest,
            "bit_correct": result.digest == baseline["digest"],
            "blackout_s": rep.blackout_ns / 1e9,
            "full_mb": rep.full_bytes / (1 << 20),
            "retries": rep.retries,
            "runtime_s": session.process.clock_ns / 1e9,
            "finished_on": f"{dst.name}:{session.gpu}",
        }
    finally:
        session.kill()


def _elastic_cells(
    *, ranks, elastic_to, region_bytes, seed, gpu
) -> dict:
    """Checkpoint an N-rank world's regions; restore onto each M."""
    from repro.cluster import elastic_restore
    from repro.harness.fault_injection import derive_seed
    from repro.mpi.world import MpiWorld

    rng = np.random.default_rng(derive_seed(seed, "elastic-region"))
    weights = rng.integers(0, 256, region_bytes, dtype=np.uint8).tobytes()
    bias = rng.integers(0, 256, max(1, region_bytes // 64), dtype=np.uint8).tobytes()
    world = MpiWorld(ranks, gpu=gpu, seed=seed)
    try:
        world.scatter_region("weights", weights)
        world.scatter_region("bias", bias)
        images = world.checkpoint_all()
        manifest = world.partition_manifest()
    finally:
        world.kill_all()
    cells = []
    for m in elastic_to:
        new_world, rep = elastic_restore(
            images, manifest, m, gpu=gpu, seed=seed
        )
        new_world.kill_all()
        cells.append({"m": m, **rep})
    return {
        "ranks": ranks,
        "region_bytes": {"weights": len(weights), "bias": len(bias)},
        "cells": cells,
        "ok": all(c["ok"] for c in cells),
    }


def _link_fault_cell(*, seed, gpu) -> dict:
    """Ship through a link scripted to corrupt then drop; must converge.

    Transfer 0 arrives with a flipped payload byte (the destination's
    CRC rejects it), transfer 1 never arrives; the retry loop's third
    attempt lands. The restored buffer is then read back and compared
    byte-for-byte.
    """
    from repro.cluster import ClusterNode, Interconnect, naive_migrate
    from repro.core.session import CracSession
    from repro.harness.fault_injection import derive_seed

    src = ClusterNode("lf-src", gpu=gpu, seed=derive_seed(seed, "lf:src"))
    dst = ClusterNode("lf-dst", gpu=gpu, seed=derive_seed(seed, "lf:dst"))
    ic = Interconnect(
        seed=derive_seed(seed, "lf:wire"),
        fault_plan={0: "corrupt", 1: "drop"},
    )
    rng = np.random.default_rng(derive_seed(seed, "lf:data"))
    data = rng.integers(0, 256, 64 << 10, dtype=np.uint8)
    session = CracSession(gpu=gpu, seed=seed)
    src.adopt("lf", session)
    try:
        addr = session.backend.malloc(data.nbytes)
        session.backend.memcpy(addr, data, data.nbytes, "h2d")
        rep = naive_migrate(session, src, dst, interconnect=ic, job="lf")
        out = np.zeros(data.nbytes, dtype=np.uint8)
        session.backend.memcpy(out, addr, data.nbytes, "d2h")
        outcomes = [t.outcome for t in ic.transfers]
        return {
            "retries": rep.retries,
            "digest_equal": bool(np.array_equal(out, data)),
            "crc": zlib.crc32(out.tobytes()),
            "transfers": len(ic.transfers),
            "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))},
            "blackout_s": rep.blackout_ns / 1e9,
            "ok": rep.retries >= 2 and bool(np.array_equal(out, data)),
        }
    finally:
        session.kill()


def run_migration_bench(
    *,
    apps: list[str],
    scale: float,
    seed: int,
    gpu_src: str,
    gpu_dst: str,
    ranks: int,
    elastic_to: list[int],
    region_bytes: int,
    checkpoint_fracs=(0.25, 0.5, 0.75),
) -> dict:
    """Run the migration cells; returns the suite result."""
    fracs = sorted(checkpoint_fracs)
    metrics: dict = {}
    checks: list[dict] = []
    rows: dict = {}
    for cls in app_classes(apps):
        name = cls.name
        baseline = _baseline_cell(cls, scale=scale, seed=seed, gpu=gpu_src)
        live = _live_cell(
            cls, scale=scale, seed=seed, gpu_src=gpu_src, gpu_dst=gpu_dst,
            checkpoint_fracs=fracs, baseline=baseline,
        )
        naive = _naive_cell(
            cls, scale=scale, seed=seed, gpu_src=gpu_src, gpu_dst=gpu_dst,
            cut_frac=fracs[-1], baseline=baseline,
        )
        rows[name] = {"baseline": baseline, "live": live, "naive": naive}
        metrics[f"{name}.live_blackout_s"] = live["blackout_s"]
        metrics[f"{name}.naive_blackout_s"] = naive["blackout_s"]
        metrics[f"{name}.live_delta_mb"] = live["delta_mb"]
        checks.append(check(
            f"{name}: live blackout below naive",
            live["blackout_s"] < naive["blackout_s"],
            f"{live['blackout_s'] * 1e3:.1f} ms ({live['precopy_rounds']} "
            f"pre-copy round(s)) vs {naive['blackout_s'] * 1e3:.1f} ms",
        ))
        checks.append(check(
            f"{name}: live and naive bit-correct on {gpu_dst}",
            live["bit_correct"] and naive["bit_correct"],
            f"live {live['digest']:#010x}, naive {naive['digest']:#010x}, "
            f"fault-free {baseline['digest']:#010x}",
        ))
    elastic = _elastic_cells(
        ranks=ranks, elastic_to=elastic_to, region_bytes=region_bytes,
        seed=seed, gpu=gpu_src,
    )
    for cell in elastic["cells"]:
        checks.append(check(
            f"elastic {ranks} → {cell['m']} ranks digest-equal", cell["ok"],
            f"{cell['replayed_calls']} calls replayed",
        ))
    link = _link_fault_cell(seed=seed, gpu=gpu_src)
    metrics["link_fault.retries"] = link["retries"]
    checks.append(check(
        "link-fault shipment converges digest-equal", link["ok"],
        f"{link['transfers']} transfers {link['outcomes']}, "
        f"{link['retries']} resend(s)",
    ))
    return {
        "metrics": metrics,
        "checks": checks,
        "apps": rows,
        "elastic": elastic,
        "link_fault": link,
    }


SUITE = Suite(
    run=run_migration_bench,
    config={
        "apps": ["Gaussian", "Kmeans"],
        "scale": 0.05,
        "seed": 0,
        "gpu_src": "V100",
        "gpu_dst": "K600",
        "ranks": 3,
        "elastic_to": [2, 5],
        "region_bytes": 64 << 10,
    },
)
