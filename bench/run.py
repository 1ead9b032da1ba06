"""Run the CRAC benchmark: one workload, or all four in turn.

    python3 bench/run.py --workload apps-ckpt --seed 0 [--seconds 15] [--trace 1]
    PYTHONPATH=src:. python -m bench.run --seed 0 [--workload NAME] [--trace] --out FILE

A run warms up untimed, then measures rounds until the workload's fixed
work (its ``rounds``, see :mod:`bench.workloads`) is done and
``--seconds`` have passed. Later rounds repeat the inputs of the fixed
rounds and must reproduce their virtual-clock results exactly.

Without ``--trace`` it prints the end-to-end metrics of ``BENCHMARK.json``.
They are host-clock medians over rounds (the report adds their IQR), timed
in reference seconds: wall seconds corrected for the machine's speed at
the time (:mod:`bench.refclock`). The report adds the workload's virtual
latency, computed over the fixed rounds and exact for a seed. With
``--trace`` every round is also run a
second time traced, and the per-layer metrics are printed instead: host
self time and entry counts per layer, virtual span totals, exact counts
from the untraced rounds, and the tracing overhead. A traced run also
writes one Perfetto trace per workload under ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``--workload`` each workload runs in a fresh subprocess and the last line
holds every workload's object under ``workloads``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"bench: no simulator at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402

from bench import sut  # noqa: E402
from bench.attribution import ROOT_LAYER, VIRTUAL_KEYS, HostSpans  # noqa: E402
from bench.refclock import RefClock  # noqa: E402
from bench.stats import median_iqr, percentile, tail  # noqa: E402
from bench.workloads import WORKLOADS, Ledger, RoundResult  # noqa: E402

#: where traced runs write Perfetto traces and the all-workload run
#: keeps each workload's report
OUT_DIR = ".bench_out"
MIB = 1 << 20


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and directions."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


@dataclass
class Round:
    """One measured round. Host timings are in reference seconds
    (:mod:`bench.refclock`); ``wall_s`` is the measured phase's wall time."""

    setup_s: float
    measure_s: float
    wall_s: float
    result: RoundResult
    spans: HostSpans | None = None


def measure_round(
    workload, seed: int, index: int, ledger: Ledger, *, trace: bool, clock: RefClock
) -> Round:
    """Set up and measure round ``index``; with ``trace``, wrap every
    layer entry point for the measured phase."""
    gc.collect()
    state, _, setup_s = clock.time(workload.setup, seed, index)
    gc.collect()
    if not trace:
        result, wall_s, measure_s = clock.time(workload.measure, state, ledger, trace=False)
        return Round(setup_s, measure_s, wall_s, result)
    spans = HostSpans()
    with spans.installed(sut.LAYERS):
        result, wall_s, measure_s = clock.time(
            spans.root, workload.measure, state, ledger, trace=True, sample=False
        )
    return Round(setup_s, measure_s, wall_s, result, spans)


def run_workload(workload, *, seed: int, seconds: float, trace: bool) -> dict:
    """Warm up, measure, and compute every metric of one workload."""
    rounds = workload.rounds
    workload.warmup()
    clock = RefClock()
    ledger = Ledger()
    plain: list[Round] = []
    traced: list[Round] = []
    fingerprints: dict[int, tuple] = {}
    deterministic = True
    start = time.perf_counter()
    while len(plain) < rounds or time.perf_counter() - start < seconds:
        index = len(plain) % rounds
        rnd = measure_round(workload, seed, index, ledger, trace=False, clock=clock)
        fp = rnd.result.fingerprint()
        deterministic &= fingerprints.setdefault(index, fp) == fp
        plain.append(rnd)
        if trace:
            traced.append(
                measure_round(workload, seed, index, ledger, trace=True, clock=clock)
            )
    fixed = [r.result for r in plain[:rounds]]
    events = [e for r in fixed for e in r.events_ns]
    overhead = [o for r in fixed for o in r.overhead_pct]
    ops_rate, ops_iqr = median_iqr([r.result.ops / r.measure_s for r in plain])
    setup, setup_iqr = median_iqr([r.setup_s for r in plain])
    tail_pct, tail_ns = tail(events) if events else (0, 0.0)
    e2e = {
        "host_ops_per_s": ops_rate,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "host_ops_per_s_iqr": ops_iqr,
        "setup_s_iqr": setup_iqr,
        "round_measure_s": [r.measure_s for r in plain],
        "round_setup_s": [r.setup_s for r in plain],
        "event_samples": len(events),
        "event_tail_percentile": tail_pct,
        "overhead_samples": len(overhead),
        "deterministic": deterministic,
        "failures": dict(ledger.by_code),
    }
    layers = exact_counts(fixed, ledger)
    layers["event_ms_p50"] = percentile(events, 50) / 1e6 if events else 0.0
    layers["event_ms_tail"] = tail_ns / 1e6
    layers["core.overhead_pct_p50"] = percentile(overhead, 50) if overhead else 0.0
    if trace:
        layers.update(host_layers(plain, traced))
        layers.update(virtual_layers([r.result for r in traced[:rounds]]))
        detail["perfetto"] = export_trace(workload.name, seed, traced)
    return {
        "correct": deterministic and ledger.failed == 0 and bool(events),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "e2e": e2e,
        "layers": layers,
        "detail": detail,
    }


def host_layers(plain: list[Round], traced: list[Round]) -> dict[str, float]:
    """Host self time and entry counts per layer (medians over traced
    rounds), and the traced-vs-untraced overhead of the measured phase."""
    out: dict[str, float] = {}
    for layer in list(sut.LAYERS) + [ROOT_LAYER]:
        out[f"{layer}.host_self_s"] = median_iqr(
            [r.spans.self_ns[layer] / 1e9 for r in traced]
        )[0]
        out[f"{layer}.calls"] = median_iqr([r.spans.calls[layer] for r in traced])[0]
    untraced = median_iqr([r.measure_s for r in plain])[0]
    out["trace.host_overhead_pct"] = (
        median_iqr([r.measure_s for r in traced])[0] / untraced - 1.0
    ) * 100.0
    return out


def virtual_layers(results: list[RoundResult]) -> dict[str, float]:
    """Virtual span totals per round (ns become ms)."""
    total = Counter()
    for r in results:
        total.update(r.virt)
    return {
        key: total[key] / len(results) / (1e6 if key.endswith("_ms") else 1.0)
        for key in VIRTUAL_KEYS
    }


def exact_counts(fixed: list[RoundResult], ledger: Ledger) -> dict[str, float]:
    """Counts and size percentiles from the untraced rounds' reports
    (per round where a count accumulates)."""
    n = len(fixed)
    counts = sum((r.counts for r in fixed), start=Counter())
    samples: dict[str, list[float]] = {}
    for r in fixed:
        for key, values in r.samples.items():
            samples.setdefault(key, []).extend(values)

    def p50(key: str) -> float:
        return percentile(samples[key], 50) if samples.get(key) else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean(key: str) -> float:
        return ratio(sum(samples.get(key, ())), len(samples.get(key, ())))

    out = {
        "native.virt_s": counts["native.virt_ns"] / n / 1e9,
        "dmtcp.image_mb_p50": p50("dmtcp.image_mb"),
        "dmtcp.image_mb_full_p50": p50("dmtcp.image_mb_full"),
        "dmtcp.image_mb_incr_p50": p50("dmtcp.image_mb_incr"),
        "dmtcp.incr_ratio": ratio(mean("dmtcp.image_mb_incr"), mean("dmtcp.image_mb_full")),
        "dmtcp.stall_pct_p50": p50("dmtcp.stall_pct"),
        "dmtcp.store.staged_mb": counts["dmtcp.store.staged_bytes"] / n / MIB,
        "dmtcp.store.gc_generations": counts["dmtcp.store.gc_generations"] / n,
        "spec.commit_ratio": ratio(counts["spec.committed"], counts["spec.attempted"]),
        "spec.rollbacks": counts["spec.rollbacks"] / n,
        "spec.conflicts": counts["spec.conflicts"] / n,
        "core.session.replayed_calls": counts["core.session.replayed_calls"] / n,
        "core.session.refilled_mb": counts["core.session.refilled_bytes"] / n / MIB,
        "core.session.reregistered_fatbins": counts["core.session.reregistered_fatbins"] / n,
        "core.session.adopted_streams": counts["core.session.adopted_streams"] / n,
        "core.session.attempts_per_restart": ratio(
            counts["core.session.attempts"], counts["core.session.restarts"]
        ),
        "cluster.shipped_mb": counts["cluster.shipped_bytes"] / n / MIB,
        "cluster.link_faults": counts["cluster.link_faults"] / n,
        "bench.failed_ratio": ratio(ledger.failed, ledger.attempted),
    }
    for key in (
        "serve.parks", "serve.rehydrates", "serve.failovers", "serve.quarantined",
        "serve.shed", "serve.recovery.retry", "serve.recovery.stream-reset",
        "serve.recovery.restore", "serve.recovery.failover",
    ):
        out[key] = counts[key] / n
    return out


def export_trace(name: str, seed: int, traced: list[Round]) -> str | None:
    """Write the first traced session of the run as a Perfetto trace."""
    tracer = next((r.result.tracer for r in traced if r.result.tracer), None)
    if tracer is None:
        return None
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    path = out / f"{name}-seed{seed}.trace.json"
    sut.write_chrome_trace(tracer, str(path), label=f"{name} seed {seed}")
    return str(path)


def result_line(outcome: dict, spec: dict, *, trace: bool) -> dict:
    """The contract's result object: the end-to-end metrics, or with
    ``trace`` the per-layer ones, each with its unit."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = outcome["layers"] if trace else outcome["e2e"]
    return {
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in listed
        },
    }


def report(name: str, outcome: dict, line: dict) -> str:
    """Human-readable summary printed above the result line."""
    d = outcome["detail"]
    lines = [
        f"== {name}: {d['rounds']} rounds ({d['traced_rounds']} traced), "
        f"{outcome['attempted']} ops, {outcome['failed']} failed, "
        f"deterministic={d['deterministic']}"
    ]
    iqr = {"host_ops_per_s": d["host_ops_per_s_iqr"], "setup_s": d["setup_s_iqr"]}
    shown = dict(line["metrics"])
    for metric in ("event_ms_p50", "event_ms_tail"):  # the workload's virtual latency
        shown.setdefault(metric, {"value": outcome["layers"][metric], "unit": "ms"})
    for metric, m in shown.items():
        note = ""
        if metric in iqr:
            note = f"  (IQR {iqr[metric]:.4g})"
        elif metric.startswith("event_ms"):
            pct = 50 if metric.endswith("p50") else d["event_tail_percentile"]
            note = f"  (p{pct} of {d['event_samples']} samples)"
        lines.append(f"  {metric:<36} {m['value']:>14.6g} {m['unit']}{note}")
    if d["failures"]:
        lines.append("  failures by code:")
        lines.extend(f"    {code:<32} {n}" for code, n in sorted(d["failures"].items()))
    if d.get("perfetto"):
        lines.append(f"  perfetto trace: {d['perfetto']}")
    return "\n".join(lines)


def run_all(args, spec: dict) -> int:
    """Run each workload in a fresh subprocess; gather their reports."""
    Path(OUT_DIR).mkdir(exist_ok=True)
    merged = {}
    for name in WORKLOADS:
        child_out = Path(OUT_DIR) / f"{name}-seed{args.seed}.json"
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(child_out),
        ]
        done = subprocess.run(cmd, check=False)
        if done.returncode != 0:
            print(f"bench: {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        with open(child_out) as fh:
            merged.update(json.load(fh)["workloads"])
    summary = {
        "correct": all(w["correct"] for w in merged.values()),
        "attempted": sum(w["attempted"] for w in merged.values()),
        "failed": sum(w["failed"] for w in merged.values()),
        "workloads": {k: {key: v[key] for key in ("correct", "attempted", "failed", "metrics")}
                      for k, v in merged.items()},
    }
    write_out(args, merged)
    print(json.dumps(summary, sort_keys=True))
    return 0


def write_out(args, workloads: dict) -> None:
    """Write the full report (metrics plus detail) to ``--out``."""
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "trace": bool(args.trace),
                 "workloads": workloads},
                fh, indent=1, sort_keys=True,
            )
            fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (module docstring)."""
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="write the full report (JSON) here")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args, spec)
    outcome = run_workload(
        WORKLOADS[args.workload](), seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace),
    )
    line = result_line(outcome, spec, trace=bool(args.trace))
    print(report(args.workload, outcome, line))
    write_out(args, {args.workload: {**line, "detail": outcome["detail"],
                                     "e2e": outcome["e2e"], "layers": outcome["layers"]}})
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
