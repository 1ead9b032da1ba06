"""The ``serve`` bench suite: many sessions, five fault cells.

The suite drives the :mod:`repro.serve` tier through a matrix of
*cells* — identical serving workloads under different fault regimes —
and holds the result to four requirements:

- **zero lost sessions** — every opened session closes (possibly after
  eviction, quarantine, or node death);
- **every digest equal** — each closed session's state vector matches
  the pure-numpy reference replay of exactly the requests it served;
- **unchanged resume latency** — p99 rehydrate/failover resume equal to
  the baseline's (virtual time, exact for the seed, so any move is a
  model change);
- **unchanged throughput** — sessions/s equal to the baseline's (virtual
  time too).

Cells (all sharing the session/wave schedule, differing only in faults):

==================  =========================================================
``baseline``        no faults — the digest/latency reference
``ecc``             double-bit ECC per-session fault plan (fatal: the ladder
                    goes straight to the restore rung)
``kernel-hang``     wedged-kernel plan (sticky: watchdog trips at sync,
                    stream reset first, restore if the replay re-wedges)
``node-death``      a node stops heartbeating after the first wave; hot
                    sessions fail over to their buddy's shadow, parked ones
                    re-home without a restore
``eviction-storm``  slots cut to a third — every wave churns most of the
                    population through park/rehydrate
==================  =========================================================

Latencies and throughput are *virtual-time* (the simulation's clocks),
so reports are bit-reproducible for a given seed.
"""

from __future__ import annotations

from repro.errors import AdmissionRejectedError, ServeDeadlineExceededError
from repro.gpu.timing import NS_PER_S
from repro.harness.fault_injection import FaultSpec, derive_seed
from repro.harness.suites import Suite, check
from repro.serve.admission import AdmissionController
from repro.serve.pool import SessionPool
from repro.serve.scheduler import ServeScheduler
from repro.trace.metrics import MetricsRegistry

_NS_PER_MS = 1e6


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile over virtual-time samples (0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    idx = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[idx]


def _cell_faults(name: str) -> list[FaultSpec]:
    if name == "ecc":
        return [FaultSpec("ecc", probability=0.02, max_fires=2)]
    if name == "kernel-hang":
        return [FaultSpec("kernel-hang", probability=0.02, max_fires=2)]
    return []


def run_cell(
    name: str,
    *,
    sessions: int,
    nodes: int,
    slots: int,
    waves: int,
    seed: int,
    state_elems: int,
) -> tuple[dict, MetricsRegistry]:
    """Run one campaign cell; return (JSON-safe summary, its metrics)."""
    cell_seed = derive_seed(seed, f"serve-cell:{name}")
    if name == "eviction-storm":
        slots = max(1, slots // 3)
        waves += 1
    pool = SessionPool(nodes, slots=slots, seed=cell_seed)
    admission = AdmissionController(
        max_queue=max(8, (sessions * 3) // 4),
        deadline_ns=5e9,
        service_estimate_ns=500_000.0,
        servers=nodes * slots,
    )
    sched = ServeScheduler(
        pool,
        admission=admission,
        seed=cell_seed,
        state_elems=state_elems,
        fault_plan=_cell_faults(name),
    )
    sids = [f"{name}-{i:04d}" for i in range(sessions)]
    for sid in sids:
        sched.open_session(sid)
    shed = 0
    for wave in range(waves):
        admitted: list[tuple[str, float]] = []
        for sid in sids:
            try:
                admitted.append((sid, sched.offer(sid)))
            except (AdmissionRejectedError, ServeDeadlineExceededError):
                shed += 1
        for sid, wait_ns in admitted:
            sched.handle_request(sid, wait_ns=wait_ns)
        if name == "node-death" and wave == 0:
            pool.fail(pool.nodes[0].name)
            sched.sweep()
    results = [sched.close_session(sid) for sid in sids]
    lost = sum(1 for r in results if r["lost"])
    mismatches = sum(1 for r in results if not r["lost"] and not r["ok"])
    served = sum(r["requests"] for r in results if not r["lost"])
    # Campaign makespan: the furthest-advanced session clock (virtual
    # timelines are per-session; the slowest one bounds the campaign).
    makespan_ns = max(
        (rec.session.process.clock_ns for rec in sched.records.values()),
        default=0.0,
    )
    counters = sched.metrics.snapshot()["counters"]
    summary = {
        "cell": name,
        "sessions": sessions,
        "nodes": nodes,
        "slots": slots,
        "waves": waves,
        "requests_served": served,
        "requests_shed": shed,
        "lost_sessions": lost,
        "digest_mismatches": mismatches,
        "parks": int(counters.get("serve.evicted", 0)),
        "rehydrates": int(counters.get("serve.rehydrated", 0)),
        "failovers": int(counters.get("serve.failed_over", 0)),
        "quarantined": int(counters.get("serve.quarantined", 0)),
        "recovery_rungs": {
            rung: int(counters.get(f"serve.recovery.{rung}", 0))
            for rung in ("retry", "stream-reset", "restore", "failover")
        },
        "resume_p50_ms": _percentile(sched.resume_ns, 0.50) / _NS_PER_MS,
        "resume_p99_ms": _percentile(sched.resume_ns, 0.99) / _NS_PER_MS,
        "resume_samples": len(sched.resume_ns),
        "makespan_s": makespan_ns / NS_PER_S,
        "sessions_per_sec": (
            sessions / (makespan_ns / NS_PER_S) if makespan_ns else 0.0
        ),
        "admission": admission.snapshot(),
        "shipped_bytes": pool.shipped_bytes,
    }
    return summary, sched.metrics


def run_serve_bench(
    *, sessions: int, nodes: int, slots: int, waves: int, seed: int,
    state_elems: int,
) -> dict:
    """Run the five-cell campaign; returns the suite result."""
    cells = ["baseline", "ecc", "kernel-hang", "node-death", "eviction-storm"]
    rows = []
    merged = MetricsRegistry()
    for cell in cells:
        summary, metrics = run_cell(
            cell,
            sessions=sessions,
            nodes=nodes,
            slots=slots,
            waves=waves,
            seed=seed,
            state_elems=state_elems,
        )
        rows.append(summary)
        merged.merge(metrics)
    snapshot = merged.snapshot()
    resume_hist = snapshot["histograms"].get("serve.resume_ns")
    # Exact percentiles need the raw samples, which per-cell summaries
    # carry only as p50/p99; take totals from the worst cell to stay
    # conservative (p99 over pooled samples <= max per-cell p99).
    worst_p99 = max(c["resume_p99_ms"] for c in rows)
    med_p50 = sorted(c["resume_p50_ms"] for c in rows)[len(rows) // 2]
    total_sessions = sessions * len(cells)
    total_makespan = max(c["makespan_s"] for c in rows)
    totals = {
        "sessions": total_sessions,
        **{
            key: sum(c[key] for c in rows)
            for key in ("requests_served", "requests_shed", "lost_sessions",
                        "digest_mismatches", "parks", "rehydrates",
                        "failovers")
        },
        "resume_p50_ms": med_p50,
        "resume_p99_ms": worst_p99,
        "resume_mean_ms": (
            (resume_hist["mean"] / _NS_PER_MS) if resume_hist else 0.0
        ),
        "sessions_per_sec": (
            total_sessions / total_makespan if total_makespan else 0.0
        ),
    }
    checks = [
        check("zero lost sessions", totals["lost_sessions"] == 0,
              f"{totals['lost_sessions']} of {total_sessions} lost"),
        check("every digest equal", totals["digest_mismatches"] == 0,
              f"{totals['digest_mismatches']} mismatched"),
    ]
    return {
        "metrics": totals,
        "checks": checks,
        "cells": rows,
        "counters": snapshot["counters"],
    }


SUITE = Suite(
    run=run_serve_bench,
    config={
        "sessions": 200,
        "nodes": 4,
        "slots": 12,
        "waves": 2,
        "state_elems": 64,
        "seed": 0,
    },
    exact=("resume_p99_ms", "sessions_per_sec"),
)
