"""The ``perf`` bench suite: hot-path wall clock + regression gate.

Everything else in this repo measures *virtual* time; this suite is the
one place that deliberately measures **wall-clock** time — the Python
interpreter cost of the simulation itself, which is what the
dirty-tracking/sanitizer vectorization attacks. Three sections:

- ``capture`` — end-to-end wall time of checkpointed runs (full /
  incremental / forked modes, repeated for stability) on the largest
  Rodinia apps and HPGMG-FV (thousands of never-written allocations at
  every cut, the many-buffer path), with digest equality against an
  uncheckpointed run;
- ``sanitize`` — wall time of the Rodinia apps under the full dynamic
  checker set (must stay hazard-clean; HPGMG-FV's managed reads of
  never-written bytes are initcheck findings, so it is left out);
- ``micro`` — the legacy pure-Python structures
  (:mod:`repro.gpu.dirty_legacy`) versus the vectorized ones
  (:mod:`repro.gpu.intervals`, :class:`~repro.sanitizer.core._AccessIndex`)
  on identical synthetic op traces: asserts *equal outputs* and a
  combined speedup of at least :data:`SPEEDUP_TARGET`.

The capture and sanitize walls are gated in *calibration units* (wall
seconds ÷ the wall seconds of a fixed calibration workload, so a
uniformly slower machine cancels out), the micro section on its
speedup; every gate allows :data:`REGRESSION_LIMIT` with
:data:`RATIO_FLOOR`.

Wall-clock reads are confined to :func:`_wall`; each is marked
``lint: allow`` because this harness is measurement tooling, not part
of the deterministic simulation model.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence

import numpy as np

from repro.gpu.dirty_legacy import LegacyDirtyIndex, LegacyWrittenSet
from repro.gpu.intervals import EpochIntervalIndex, SpanSet
from repro.harness.ckpt_bench import CKPT_MODES, default_cuts
from repro.harness.runner import Machine, run_app
from repro.harness.suites import Gate, Suite, app_classes, check

#: Baseline ratio above which a gated metric fails.
REGRESSION_LIMIT = 1.15
#: Required micro speedup (vectorized vs legacy) on the dirty-tracking
#: and sanitizer-scan traces — the ROADMAP item-3 target.
SPEEDUP_TARGET = 5.0
#: Damping floor added to both sides of every gate ratio, in calibration
#: units for the walls (so a few-millisecond metric cannot flip the gate
#: on scheduler noise) and in speedup units for the micro section.
RATIO_FLOOR = 1.0
#: The checkpoint modes the capture section times.
CAPTURE_MODES = ("full", "incremental", "forked")


def _wall(fn: Callable[[], object]) -> tuple[float, object]:
    """Run ``fn`` once; return (elapsed wall seconds, result)."""
    t0 = time.perf_counter()  # lint: allow — wall-clock benchmark harness
    result = fn()
    t1 = time.perf_counter()  # lint: allow — wall-clock benchmark harness
    return t1 - t0, result


def measure_calibration() -> float:
    """Wall seconds of a fixed numpy + interpreter workload.

    Used to normalize wall metrics across machines: the gate compares
    ``(metric / calibration)`` ratios, so a uniformly slower machine
    cancels out and only *relative* hot-path regressions remain.
    """
    def work() -> int:
        acc = 0
        for i in range(150_000):
            acc += i * 3 % 7
        a = np.arange(150_000, dtype=np.int64)
        for _ in range(40):
            acc += int(np.sort(a % 997).sum())
        return acc

    return min(_wall(work)[0] for _ in range(5))


# -- synthetic traces (seeded, deterministic) --------------------------------


def dirty_trace(
    n_ops: int, size: int, seed: int
) -> list[tuple[str, int, int]]:
    """A write-heavy dirty-tracking op trace: mostly small scattered
    ``mark`` calls (strided kernel writes fragment the span list), with
    occasional span queries and epoch-bounded clears — the call mix the
    checkpoint capture path produces."""
    rng = np.random.default_rng(seed)
    ops: list[tuple[str, int, int]] = []
    for _ in range(n_ops):
        r = rng.random()
        lo = int(rng.integers(0, size - 1))
        hi = int(min(size, lo + rng.integers(1, 2048)))
        if r < 0.94:
            ops.append(("mark", lo, hi))
        elif r < 0.97:
            ops.append(("spans", 0, 0))
        elif r < 0.99:
            ops.append(("bytes_since", 0, 0))
        else:
            ops.append(("clear", lo, hi))
    return ops


def replay_dirty(index, ops: Sequence[tuple[str, int, int]]) -> list:
    """Run a :func:`dirty_trace` against a dirty index; returns every
    query result so two implementations can be compared exactly."""
    out: list = []
    epoch = 0
    snap_epoch = 0
    for kind, lo, hi in ops:
        if kind == "mark":
            epoch += 1
            index.mark(lo, hi, epoch)
        elif kind == "spans":
            out.append(index.spans())
            out.append(index.byte_count)
        elif kind == "bytes_since":
            out.append(index.bytes_since(snap_epoch))
            snap_epoch = epoch
        else:
            index.clear([(lo, hi)], up_to_epoch=snap_epoch)
            out.append(index.intervals())
    out.append(index.intervals())
    return out


def access_trace(n_accesses: int, n_probes: int, size: int, seed: int,
                 n_streams: int = 12) -> tuple[list, list]:
    """Recorded accesses + probe ops for the racecheck-scan micro.

    Clocks are built the way the sanitizer builds them: per-stream
    monotone ticks with occasional cross-stream joins, so the
    concurrency structure (and thus the scan's work) is realistic.
    """
    from repro.sanitizer.vector_clock import VectorClock

    rng = np.random.default_rng(seed)
    stream_clocks = [VectorClock() for _ in range(n_streams)]
    accesses = []
    for i in range(n_accesses):
        sid = int(rng.integers(0, n_streams))
        vc = stream_clocks[sid]
        if rng.random() < 0.05:
            vc.join(stream_clocks[int(rng.integers(0, n_streams))])
        vc.tick(sid)
        lo = int(rng.integers(0, size - 1))
        hi = int(min(size, lo + rng.integers(1, size // 8)))
        accesses.append(
            (lo, hi, bool(rng.random() < 0.5), sid, vc.copy(), i, f"op{i}")
        )
    probes = []
    for _ in range(n_probes):
        sid = int(rng.integers(0, n_streams))
        vc = stream_clocks[sid]
        vc.tick(sid)
        lo = int(rng.integers(0, size - 1))
        hi = int(min(size, lo + rng.integers(1, size // 8)))
        probes.append((lo, hi, bool(rng.random() < 0.5), sid, vc.copy()))
    return accesses, probes


def legacy_access_scan(accesses, probes) -> list[list[int]]:
    """The pre-vectorization racecheck scan, verbatim logic: for each
    probe, the indices of recorded accesses it races."""
    out = []
    for lo, hi, write, sid, clock in probes:
        rows = []
        for i, (a_lo, a_hi, a_write, a_sid, a_clock, _, _) in enumerate(
            accesses
        ):
            if a_hi <= lo or a_lo >= hi:
                continue
            if not (write or a_write) or a_sid == sid:
                continue
            if a_clock.concurrent_with(clock):
                rows.append(i)
        out.append(rows)
    return out


def vector_access_scan(accesses, probes) -> list[list[int]]:
    """The same scan through the vectorized :class:`_AccessIndex`."""
    from repro.sanitizer.core import _Access, _AccessIndex

    index = _AccessIndex()
    for lo, hi, write, sid, clock, op_id, label in accesses:
        index.add(_Access(lo, hi, write, sid, clock, op_id, label))
    return [
        index.race_rows(lo, hi, sid, write, clock)
        for lo, hi, write, sid, clock in probes
    ]


def written_trace(n_ops: int, size: int, seed: int) -> list:
    """Adds + hole queries for the initcheck written-coverage micro.

    Adds dominate (every write access lands here) and stay small so
    the set fragments, as strided writes do; hole queries are the rare
    D2H-validation reads."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        lo = int(rng.integers(0, size - 1))
        hi = int(min(size, lo + rng.integers(1, 512)))
        ops.append(("add" if rng.random() < 0.97 else "holes", lo, hi))
    return ops


def replay_written(ws, ops) -> list:
    """Run a :func:`written_trace` against a written-span set."""
    out = []
    for kind, lo, hi in ops:
        if kind == "add":
            ws.add(lo, hi)
        else:
            out.append(ws.holes(lo, hi))
    out.append(ws.spans())
    return out


def _best_of(fn: Callable[[], object], n: int = 3) -> tuple[float, object]:
    """Best (minimum) wall time over ``n`` runs; first run's result.

    The gate tracks the vectorized timings, which sit in the tens of
    milliseconds — min-of-3 strips scheduler noise that a single sample
    would hand straight to the regression ratio.
    """
    best, result = _wall(fn)
    for _ in range(n - 1):
        best = min(best, _wall(fn)[0])
    return best, result


def _micro_section(*, seed: int) -> dict:
    """Legacy vs vectorized structures on identical traces."""
    dirty_ops, dirty_size = 6000, 1 << 24
    acc_n, acc_probes, acc_size = 800, 800, 1 << 24
    wr_ops, wr_size = 6000, 1 << 24

    section: dict = {}

    ops = dirty_trace(dirty_ops, dirty_size, seed)
    legacy_s, legacy_out = _wall(lambda: replay_dirty(LegacyDirtyIndex(), ops))
    vector_s, vector_out = _best_of(
        lambda: replay_dirty(EpochIntervalIndex(), ops)
    )
    section["dirty"] = {
        "ops": dirty_ops,
        "legacy_s": legacy_s,
        "vector_s": vector_s,
        "speedup": legacy_s / vector_s if vector_s > 0 else float("inf"),
        "equal": legacy_out == vector_out,
    }

    accesses, probes = access_trace(acc_n, acc_probes, acc_size, seed)
    legacy_s, legacy_rows = _wall(
        lambda: legacy_access_scan(accesses, probes)
    )
    vector_s, vector_rows = _best_of(
        lambda: vector_access_scan(accesses, probes)
    )
    section["access"] = {
        "accesses": acc_n,
        "probes": acc_probes,
        "legacy_s": legacy_s,
        "vector_s": vector_s,
        "speedup": legacy_s / vector_s if vector_s > 0 else float("inf"),
        "equal": legacy_rows == vector_rows,
    }

    ops = written_trace(wr_ops, wr_size, seed)
    legacy_s, legacy_out = _wall(
        lambda: replay_written(LegacyWrittenSet(), ops)
    )
    vector_s, vector_out = _best_of(lambda: replay_written(SpanSet(), ops))
    section["written"] = {
        "ops": wr_ops,
        "legacy_s": legacy_s,
        "vector_s": vector_s,
        "speedup": legacy_s / vector_s if vector_s > 0 else float("inf"),
        "equal": legacy_out == vector_out,
    }

    section["all_equal"] = all(
        section[k]["equal"] for k in ("dirty", "access", "written")
    )
    # The headline number: combined legacy vs combined vectorized cost
    # of the capture (dirty+written) and sanitize (access) hot paths.
    tot_legacy = sum(section[k]["legacy_s"] for k in ("dirty", "access",
                                                      "written"))
    tot_vector = sum(section[k]["vector_s"] for k in ("dirty", "access",
                                                      "written"))
    section["combined_speedup"] = (
        tot_legacy / tot_vector if tot_vector > 0 else float("inf")
    )
    return section


# -- end-to-end sections ------------------------------------------------------


def _capture_section(
    classes: Sequence[type], *, scale: float, repeats: int,
    cuts: int, seed: int, gpu: str,
) -> dict:
    """Wall time of checkpointed runs, digest-checked per mode."""
    fracs = default_cuts(cuts)
    section: dict = {"cuts": fracs, "repeats": repeats, "apps": {}}
    for cls in classes:
        ref = run_app(
            cls(scale=scale, seed=seed), Machine(gpu=gpu, seed=seed),
            mode="crac", noise=False,
        )
        entry: dict = {"modes": {}}
        for mode in CAPTURE_MODES:
            def one():
                return run_app(
                    cls(scale=scale, seed=seed),
                    Machine(gpu=gpu, seed=seed),
                    mode="crac",
                    checkpoint_at=fracs,
                    restart_after_checkpoint=False,
                    noise=False,
                    **CKPT_MODES[mode],
                )
            best = None
            digests_ok = True
            for _ in range(repeats):
                wall, res = _wall(one)
                best = wall if best is None else min(best, wall)
                digests_ok = digests_ok and res.digest == ref.digest
            entry["modes"][mode] = {
                "wall_s": best,
                "digest_match": digests_ok,
            }
        section["apps"][cls.name] = entry
    section["wall_s"] = sum(
        m["wall_s"]
        for e in section["apps"].values() for m in e["modes"].values()
    )
    section["digests_ok"] = all(
        m["digest_match"]
        for e in section["apps"].values() for m in e["modes"].values()
    )
    return section


def _sanitize_section(
    classes: Sequence[type], *, scale: float, repeats: int, seed: int,
    gpu: str,
) -> dict:
    """Wall time under the dynamic checkers, which must stay clean."""
    from repro.sanitizer.core import Sanitizer

    section: dict = {"repeats": repeats, "apps": {}}
    for cls in classes:
        def one():
            san = Sanitizer()
            run_app(
                cls(scale=scale, seed=seed), Machine(gpu=gpu, seed=seed),
                mode="crac", noise=False, sanitizer=san,
            )
            return san
        best = None
        hazards = 0
        for _ in range(repeats):
            wall, san = _wall(one)
            best = wall if best is None else min(best, wall)
            hazards += len(san.hazards)
        section["apps"][cls.name] = {"wall_s": best, "hazards": hazards}
    section["wall_s"] = sum(
        e["wall_s"] for e in section["apps"].values()
    )
    section["hazards"] = sum(
        e["hazards"] for e in section["apps"].values()
    )
    return section


def gate_metrics(
    calibration_s: float, capture_wall_s: float, sanitize_wall_s: float,
    micro_speedup: float,
) -> dict[str, float]:
    """The gated metrics: the walls in calibration units, so a uniformly
    slower machine cancels out, and the micro speedup."""
    return {
        "capture_wall_cal": capture_wall_s / calibration_s,
        "sanitize_wall_cal": sanitize_wall_s / calibration_s,
        "micro_speedup": micro_speedup,
    }


def run_perf_bench(
    *, capture_apps: list[str], sanitize_apps: list[str], scale: float,
    repeats: int, cuts: int, gpu: str, seed: int,
) -> dict:
    """Run every section; returns the suite result.

    Only large aggregates are gated: per-mode or per-structure
    millisecond slices are too noisy (they stay in the report for
    diagnosis). The micro section is gated on its *speedup*, not its
    wall time: legacy and vectorized replays run back to back under the
    same machine contention, so their ratio normalizes itself.
    """
    capture_classes = app_classes(capture_apps)
    calibration_s = measure_calibration()
    capture = _capture_section(
        capture_classes, scale=scale, repeats=repeats, cuts=cuts, seed=seed,
        gpu=gpu,
    )
    sanitize = _sanitize_section(
        app_classes(sanitize_apps), scale=scale, repeats=repeats, seed=seed,
        gpu=gpu,
    )
    micro = _micro_section(seed=seed)
    speedup = micro["combined_speedup"]
    metrics = {
        "calibration_s": calibration_s,
        "capture_wall_s": capture["wall_s"],
        "sanitize_wall_s": sanitize["wall_s"],
        **{f"micro.{k}.speedup": micro[k]["speedup"]
           for k in ("dirty", "access", "written")},
        **gate_metrics(calibration_s, capture["wall_s"], sanitize["wall_s"],
                       speedup),
    }
    checks = [
        check("capture digests equal the uncheckpointed run",
              capture["digests_ok"],
              f"{len(capture_classes)} app(s) × {len(CAPTURE_MODES)} modes × "
              f"{repeats} repeats"),
        check("sanitized runs hazard-free", sanitize["hazards"] == 0,
              f"{sanitize['hazards']} hazard(s)"),
        check("micro replays equal the legacy structures",
              micro["all_equal"],
              ", ".join(f"{k}={'equal' if micro[k]['equal'] else 'MISMATCH'}"
                        for k in ("dirty", "access", "written"))),
        check(f"micro speedup ≥{SPEEDUP_TARGET:g}×", speedup >= SPEEDUP_TARGET,
              f"{speedup:.1f}×"),
    ]
    return {
        "metrics": metrics,
        "checks": checks,
        "capture": capture,
        "sanitize": sanitize,
        "micro": micro,
    }


SUITE = Suite(
    run=run_perf_bench,
    config={
        "capture_apps": ["Gaussian", "Kmeans", "HPGMG-FV"],
        "sanitize_apps": ["Gaussian", "Kmeans"],
        "scale": 1.0,
        "repeats": 10,
        "cuts": 4,
        "gpu": "V100",
        "seed": 0,
    },
    gates=(
        Gate("capture_wall_cal", "lower", REGRESSION_LIMIT, RATIO_FLOOR),
        Gate("sanitize_wall_cal", "lower", REGRESSION_LIMIT, RATIO_FLOOR),
        Gate("micro_speedup", "higher", REGRESSION_LIMIT, RATIO_FLOOR),
    ),
)
