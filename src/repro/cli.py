"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list-apps`` — every workload with its Table 1/2 metadata;
- ``run APP``   — run a workload under any dispatcher, optionally with a
  mid-run checkpoint + kill + restart;
- ``reproduce WHAT`` — regenerate one (or all) of the paper's tables and
  figures at a chosen scale;
- ``fault-sim`` — §1(a)/(b) fault-tolerance economics: Young/Daly
  intervals, the analytic makespan, a Monte-Carlo check, and (with
  ``--session``) an end-to-end cross-validation that drives the real
  checkpoint pipeline with injected checkpoint/restore-stage faults;
- ``bench SUITE`` — one bench suite (``ckpt``, ``perf``, ``serve``) at
  its fixed config, gated against ``benchmarks/BASELINE.json``; prints
  its checks and metrics and exits 1 if any check fails (see
  :mod:`repro.harness.suites`);
- ``sanitize APP`` — compute-sanitizer-style hazard analysis: run one
  workload under the dynamic checkers (racecheck/synccheck/memcheck/
  initcheck);
- ``analyze`` — whole-program static analysis: three passes (API wiring,
  replay-determinism dataflow, determinism lint) over one parse of the
  package;
- ``trace APP`` — run one workload with the unified tracer
  attached, write a Chrome/Perfetto ``trace_event`` JSON (load it at
  https://ui.perfetto.dev), and print the overhead, digest,
  device-accounting and eq. 2 checks;
- ``info``      — package version plus the calibrated cost model.
"""

from __future__ import annotations

import argparse
import sys

from repro._version import __version__
from repro.apps import (
    CublasMicro,
    Hpgmg,
    Hypre,
    Lulesh,
    SimpleStreams,
    UnifiedMemoryStreams,
)
from repro.apps.rodinia import RODINIA_SUITE
from repro.harness.suites import SUITES

APP_REGISTRY = {cls.name.lower(): cls for cls in RODINIA_SUITE}
APP_REGISTRY.update(
    {
        "simplestreams": SimpleStreams,
        "unifiedmemorystreams": UnifiedMemoryStreams,
        "lulesh": Lulesh,
        "hpgmg": Hpgmg,
        "hypre": Hypre,
        "cublas": CublasMicro,
    }
)

EXPERIMENTS = (
    "fig0", "table1", "table2", "fig2", "fig3", "fig4",
    "fig5", "fig5c", "table3", "fig6", "all",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CRAC (SC 2020) reproduction: run workloads and "
        "regenerate the paper's evaluation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-apps", help="list available workloads")
    sub.add_parser("info", help="show the calibrated cost model")

    cal = sub.add_parser(
        "calibrate", help="print target-vs-measured calibration for all apps"
    )
    cal.add_argument("--scale", type=float, default=1.0)

    run = sub.add_parser("run", help="run one workload")
    run.add_argument("app", choices=sorted(APP_REGISTRY))
    run.add_argument("--mode", default="native",
                     choices=["native", "crac", "crum", "proxy-cma", "crcuda"])
    run.add_argument("--scale", type=float, default=0.05)
    run.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    run.add_argument("--fsgsbase", action="store_true",
                     help="model the FSGSBASE kernel patch")
    run.add_argument("--checkpoint-at", type=float, default=None,
                     metavar="FRACTION",
                     help="take a checkpoint (CRAC only) at this progress")
    run.add_argument("--no-restart", action="store_true",
                     help="checkpoint without kill+restart")
    run.add_argument("--gzip", action="store_true",
                     help="enable DMTCP gzip compression")
    run.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("reproduce", help="regenerate a table/figure")
    rep.add_argument("what", choices=EXPERIMENTS)
    rep.add_argument("--scale", type=float, default=0.05)
    rep.add_argument("--bars", action="store_true",
                     help="render runtime figures as ASCII bar charts")

    fs = sub.add_parser(
        "fault-sim",
        help="fault-tolerance economics: analytic vs Monte-Carlo vs "
        "end-to-end session runs",
    )
    fs.add_argument("--work", type=float, default=2000.0,
                    help="job length in seconds of useful work")
    fs.add_argument("--mtbf", type=float, default=600.0,
                    help="mean time between failures, seconds")
    fs.add_argument("--interval", type=float, default=None,
                    help="checkpoint interval (default: Young's optimum)")
    fs.add_argument("--checkpoint-cost", type=float, default=1.0)
    fs.add_argument("--restart-cost", type=float, default=4.0)
    fs.add_argument("--runs", type=int, default=100,
                    help="Monte-Carlo repetitions")
    fs.add_argument("--session", action="store_true",
                    help="also cross-validate with end-to-end CracSession "
                    "runs through the real checkpoint store")
    fs.add_argument("--session-runs", type=int, default=3)
    fs.add_argument("--ckpt-fault-prob", type=float, default=0.0,
                    metavar="P", help="per-region fault probability while "
                    "the store writes an image (session mode)")
    fs.add_argument("--restore-fault-prob", type=float, default=0.0,
                    metavar="P", help="per-attempt mid-restore fault "
                    "probability (session mode)")
    fs.add_argument("--seed", type=int, default=0)

    be = sub.add_parser(
        "bench",
        help="run one bench suite at its fixed config and gate it "
        "against benchmarks/BASELINE.json",
    )
    be.add_argument("suite", choices=list(SUITES))
    be.add_argument("--out", default="-", metavar="PATH",
                    help="write the JSON report here")
    be.add_argument("--update-baseline", action="store_true",
                    help="record this run's config and gated metrics as "
                    "the suite's baseline entry instead of gating")

    sz = sub.add_parser(
        "sanitize",
        help="hazard analysis: dynamic checkers over one workload",
    )
    sz.add_argument("app", choices=sorted(APP_REGISTRY))
    sz.add_argument("--mode", default="crac",
                    choices=["native", "crac", "crum", "proxy-cma",
                             "crcuda"])
    sz.add_argument("--scale", type=float, default=0.05)
    sz.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    sz.add_argument("--checkpoint-at", type=float, default=None,
                    metavar="FRACTION",
                    help="take a CRAC checkpoint at this progress "
                    "(exercises synccheck)")
    sz.add_argument("--seed", type=int, default=0)

    an = sub.add_parser(
        "analyze",
        help="whole-program static analysis in three passes over one "
        "parse of src/repro: API-wiring consistency, replay-determinism "
        "dataflow, and the per-line determinism lint (which also reads "
        "the planted-violation libraries); fails on any unbaselined "
        "finding",
    )
    an.add_argument("--gate", action="store_true",
                    help="also run the planted-violation corpus "
                    "(100%% detection / 0 false positives) — the CI mode")
    an.add_argument("--baseline", default="benchmarks/ANALYSIS_baseline.json",
                    metavar="PATH",
                    help="committed baseline of accepted findings")
    an.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline to accept every current "
                    "finding; requires --justify")
    an.add_argument("--justify", default=None, metavar="MSG",
                    help="justification stamped on every finding accepted "
                    "by --update-baseline (required; placeholders like "
                    "'TODO' are refused — the justification audit rejects "
                    "them)")
    an.add_argument("--out", default="-", metavar="PATH",
                    help="write the findings/inventory JSON report here")
    an.add_argument("--sarif", default=None, metavar="PATH",
                    help="also export SARIF 2.1.0 for code-scanning UIs")

    tr = sub.add_parser(
        "trace",
        help="run one workload under the unified tracer and export a "
        "Chrome/Perfetto trace",
    )
    tr.add_argument("app", choices=sorted(APP_REGISTRY))
    tr.add_argument("--mode", default="crac",
                    choices=["native", "crac", "crum", "proxy-cma",
                             "crcuda"])
    tr.add_argument("--scale", type=float, default=0.05)
    tr.add_argument("--gpu", default="V100", choices=["V100", "K600"])
    tr.add_argument("--checkpoint-at", type=float, default=None,
                    metavar="FRACTION",
                    help="take a CRAC checkpoint + kill + restart at this "
                    "progress (exercises the restart splice)")
    tr.add_argument("--trace-out", default=None, metavar="PATH",
                    help="Chrome trace output path (default "
                    "trace_<app>.json, '-' to skip)")
    tr.add_argument("--seed", type=int, default=0)
    return parser


def cmd_list_apps(out) -> int:
    """``repro list-apps``."""
    print(f"{'name':<22} {'UVM':<4} {'streams':<8} {'paper args'}", file=out)
    print("-" * 78, file=out)
    for name in sorted(APP_REGISTRY):
        cls = APP_REGISTRY[name]
        print(
            f"{name:<22} {'✓' if cls.uses_uvm else '✗':<4} "
            f"{cls.stream_range if cls.uses_streams else '—':<8} "
            f"{cls.cli_args}",
            file=out,
        )
    return 0


def cmd_info(out) -> int:
    """``repro info``: version + cost model."""
    from repro.gpu.timing import DEFAULT_HOST_COSTS, GPU_SPECS

    print(f"repro {__version__} — CRAC (SC 2020) reproduction", file=out)
    print("\nGPU models:", file=out)
    for key, spec in GPU_SPECS.items():
        print(
            f"  {key}: {spec.name}, CC {spec.compute_capability[0]}."
            f"{spec.compute_capability[1]}, {spec.memory_bytes >> 30} GB, "
            f"{spec.max_concurrent_kernels} concurrent kernels",
            file=out,
        )
    c = DEFAULT_HOST_COSTS
    print("\nhost cost model (ns):", file=out)
    for field_name in (
        "native_dispatch_ns", "trampoline_body_ns", "log_record_ns",
        "crac_startup_ns", "replay_call_ns", "restart_bootstrap_ns",
        "ckpt_quiesce_ns",
    ):
        print(f"  {field_name:<22} {getattr(c, field_name):>14,.0f}", file=out)
    return 0


def cmd_run(args, out) -> int:
    """``repro run APP``."""
    from repro.harness import Machine, run_app

    cls = APP_REGISTRY[args.app]
    app = cls(scale=args.scale, seed=args.seed)
    machine = Machine(gpu=args.gpu, fsgsbase=args.fsgsbase, seed=args.seed)
    result = run_app(
        app,
        machine,
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
        restart_after_checkpoint=not args.no_restart,
        gzip=args.gzip,
        noise=False,
    )
    print(f"app:        {result.app_name} (scale={args.scale})", file=out)
    print(f"mode:       {result.mode} on {result.gpu}", file=out)
    print(f"runtime:    {result.runtime_exact_s:.4f} s (virtual)", file=out)
    print(f"CUDA calls: {result.cuda_calls:,} ({result.cps:,.0f}/s)", file=out)
    print(f"digest:     {result.digest:#010x}", file=out)
    for rec in result.checkpoints:
        print(
            f"checkpoint: {rec.checkpoint_s:.3f} s, {rec.size_mb:.1f} MB "
            f"at {rec.at_progress:.0%}",
            file=out,
        )
        if rec.restart_s is not None:
            print(
                f"restart:    {rec.restart_s:.3f} s "
                f"({rec.replayed_calls} calls replayed)",
                file=out,
            )
    return 0


def cmd_calibrate(args, out) -> int:
    """``repro calibrate``: target-vs-measured table."""
    from repro.harness.calibration import calibration_table, worst_error

    rows = calibration_table(scale=args.scale)
    print(
        f"{'app':<22} {'runtime s (tgt)':>18} {'calls (tgt)':>22} "
        f"{'image MB (tgt)':>20}",
        file=out,
    )
    print("-" * 86, file=out)
    for r in rows:
        print(
            f"{r.name:<22} "
            f"{r.measured_runtime_s:>8.1f} ({r.target_runtime_s:>6.1f}) "
            f"{r.measured_calls:>12,} ({r.target_calls:>7,}) "
            f"{r.measured_ckpt_mb:>10.0f} ({r.target_ckpt_mb:>6.0f})",
            file=out,
        )
    name, err = worst_error(rows)
    print(f"\nworst calibration error: {err:.1%} ({name})", file=out)
    return 0


def cmd_fault_sim(args, out) -> int:
    """``repro fault-sim``: Young/Daly vs Monte-Carlo vs session runs."""
    from repro.harness.fault_tolerance import (
        FaultSimulator,
        daly_interval,
        expected_completion_time,
        young_interval,
    )

    c, r, m = args.checkpoint_cost, args.restart_cost, args.mtbf
    tau_y = young_interval(c, m)
    tau_d = daly_interval(c, m)
    tau = args.interval if args.interval is not None else tau_y
    print(f"work {args.work:.0f} s, MTBF {m:.0f} s, "
          f"C {c:.2f} s, R {r:.2f} s", file=out)
    print(f"Young interval:  {tau_y:10.2f} s", file=out)
    print(f"Daly interval:   {tau_d:10.2f} s", file=out)
    print(f"using interval:  {tau:10.2f} s", file=out)
    analytic = expected_completion_time(args.work, tau, c, r, m)
    print(f"analytic makespan:    {analytic:10.2f} s", file=out)
    sim = FaultSimulator(mtbf_s=m, seed=args.seed)
    mc = sim.mean_makespan(args.work, tau, c, r, runs=args.runs)
    print(f"Monte-Carlo makespan: {mc:10.2f} s "
          f"({args.runs} runs, {mc / analytic:.2f}× analytic)", file=out)
    no_ckpt = sim.mean_makespan(args.work, None, 0.0, r,
                                runs=max(1, args.runs // 5))
    print(f"no checkpointing:     {no_ckpt:10.2f} s "
          f"({no_ckpt / analytic:.2f}× analytic)", file=out)
    if args.session:
        cv = sim.cross_validate_session(
            args.work,
            args.interval,
            runs=args.session_runs,
            ckpt_fault_prob=args.ckpt_fault_prob,
            restore_fault_prob=args.restore_fault_prob,
        )
        print("\nsession-backed cross-validation (real pipeline, "
              "measured costs):", file=out)
        print(f"  measured C {cv.checkpoint_cost_s:.3f} s, "
              f"R {cv.restart_cost_s:.3f} s, "
              f"interval {cv.interval_s:.2f} s", file=out)
        print(f"  analytic  {cv.analytic_s:10.2f} s", file=out)
        print(f"  simulated {cv.simulated_s:10.2f} s "
              f"({cv.ratio:.2f}× analytic, {len(cv.outcomes)} runs)",
              file=out)
        for i, o in enumerate(cv.outcomes):
            print(f"  run {i}: {o.makespan_s:8.2f} s, "
                  f"{o.failures} failures, {o.checkpoints} ckpts, "
                  f"{o.aborted_checkpoints} aborted, "
                  f"{o.restart_attempts} restart attempts, "
                  f"{o.work_lost_s:.1f} s lost", file=out)
    return 0


def cmd_bench(args, out) -> int:
    """``repro bench SUITE``: run, gate, render, write the report."""
    from repro.harness import suites

    report = suites.run_suite(
        args.suite, update_baseline=args.update_baseline
    )
    print(suites.render(report), file=out)
    if args.out != "-":
        suites.write_json(args.out, report)
        print(f"wrote {args.out}", file=out)
    if args.update_baseline and report["ok"]:
        print(f"recorded the '{args.suite}' entry in "
              f"{suites.BASELINE_PATH}", file=out)
    return 0 if report["ok"] else 1


def cmd_sanitize(args, out) -> int:
    """``repro sanitize APP``: hazard analysis of one workload."""
    from repro.harness import Machine, run_app
    from repro.sanitizer.core import Sanitizer

    san = Sanitizer()
    result = run_app(
        APP_REGISTRY[args.app](scale=args.scale, seed=args.seed),
        Machine(gpu=args.gpu, seed=args.seed),
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
        restart_after_checkpoint=False,
        noise=False,
        sanitizer=san,
    )
    print(f"app:     {result.app_name} (scale={args.scale}, "
          f"mode={args.mode})", file=out)
    print(f"runtime: {result.runtime_exact_s:.4f} s (virtual)", file=out)
    print(san.report.summary(), file=out)
    return 0 if san.report.clean else 1


def cmd_analyze(args, out) -> int:
    """``repro analyze``: static wiring/determinism analysis + gate."""
    import json

    from repro.analysis.engine import (
        analyze_package,
        findings_from_report,
        run_corpus_gate,
    )
    from repro.analysis.findings import Baseline, format_findings, to_sarif

    ok = True
    gate = None
    if args.gate:
        gate = run_corpus_gate()
        print(
            f"corpus:  {gate['detected']}/{gate['positives']} planted "
            f"violations detected, {gate['false_positives']} false "
            f"positive(s) on {len(gate['scenarios']) - gate['positives']} "
            "negative control(s)",
            file=out,
        )
        for row in gate["scenarios"]:
            if not row["ok"]:
                print(
                    f"  FAIL {row['name']}: expected {row['expect']}, "
                    f"found {row['found']}",
                    file=out,
                )
        ok = ok and gate["ok"]

    baseline = Baseline.load(args.baseline)
    report = analyze_package(baseline=baseline)
    findings = findings_from_report(report)

    if args.update_baseline:
        # The justification audit (tests/analysis/test_baseline.py)
        # rejects empty or placeholder entries, so refuse to write them
        # here rather than producing a baseline CI will bounce.
        justify = (args.justify or "").strip()
        placeholders = ("todo", "fixme", "tbd", "xxx")
        if not justify:
            print(
                "analyze: --update-baseline requires --justify MSG — "
                "every accepted finding is stamped with it and the "
                "justification audit rejects empty entries",
                file=out,
            )
            return 2
        if any(p in justify.lower() for p in placeholders):
            print(
                f"analyze: refusing placeholder justification {justify!r} "
                "(contains TODO/FIXME/TBD/XXX); write the real reason "
                "each finding is acceptable",
                file=out,
            )
            return 2
        for f in findings:
            baseline.add(f, justify)
        baseline.save(args.baseline)
        print(
            f"baseline: accepted {len(findings)} finding(s) into "
            f"{args.baseline} with justification {justify!r}",
            file=out,
        )
        findings = []
        report["findings"] = []
        report["ok"] = True

    counts = report["counts"]
    print(
        f"analyze: {counts['apis']} APIs / {counts['modules']} modules — "
        f"{counts['unbaselined']} unbaselined, "
        f"{counts['baselined']} baselined finding(s)",
        file=out,
    )
    if findings:
        print(format_findings(findings), file=out)
        ok = False
    if report["unused_baseline"]:
        print(
            "stale baseline entries (finding fixed — delete them): "
            + ", ".join(report["unused_baseline"]),
            file=out,
        )
        ok = False

    if args.out != "-":
        payload = dict(report)
        if gate is not None:
            payload["corpus_gate"] = gate
        payload["ok"] = ok
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}", file=out)
    if args.sarif is not None:
        with open(args.sarif, "w") as fh:
            json.dump(to_sarif(findings), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.sarif}", file=out)
    return 0 if ok else 1


def cmd_trace(args, out) -> int:
    """``repro trace APP``: traced run + checks + Chrome trace."""
    from repro.harness.suites import render
    from repro.harness.trace_bench import run_trace_bench
    from repro.trace import write_chrome_trace

    app_cls = APP_REGISTRY[args.app]
    result, tracer = run_trace_bench(
        app_cls,
        scale=args.scale,
        gpu=args.gpu,
        seed=args.seed,
        mode=args.mode,
        checkpoint_at=args.checkpoint_at,
    )
    report = {**result, "suite": f"trace {args.app}"}
    report["ok"] = all(c["ok"] for c in report["checks"])
    print(render(report), file=out)
    trace_out = args.trace_out or f"trace_{args.app}.json"
    if trace_out != "-":
        write_chrome_trace(tracer, trace_out, label=app_cls.name)
        print(f"wrote {trace_out} (load at https://ui.perfetto.dev)",
              file=out)
    return 0 if report["ok"] else 1


def cmd_reproduce(args, out) -> int:
    """``repro reproduce WHAT``: regenerate a table/figure."""
    from repro.harness import experiments as ex
    from repro.harness.report import render_all, render_bars, render_table

    scale = args.scale
    if getattr(args, "bars", False) and args.what in ("fig2", "fig5"):
        rows = (
            ex.fig2_rodinia_runtime(scale, noise=False)
            if args.what == "fig2"
            else ex.fig5_runtimes(scale, noise=False)
        )
        print(
            render_bars(
                f"{args.what} — native vs CRAC", rows, ["native_s", "crac_s"]
            ),
            file=out,
        )
        return 0
    table = {
        "fig0": lambda: render_table("§1 TOP500", ex.fig0_top500(), "year"),
        "table1": lambda: render_table(
            "Table 1", ex.table1_characterization(scale)),
        "table2": lambda: render_table("Table 2", ex.table2_cli_arguments()),
        "fig2": lambda: render_table(
            "Figure 2", ex.fig2_rodinia_runtime(scale, noise=False)),
        "fig3": lambda: render_table(
            "Figure 3", ex.fig3_rodinia_checkpoint(scale)),
        "fig4": lambda: render_table("Figure 4", ex.fig4_simplestreams(scale)),
        "fig5": lambda: render_table(
            "Figure 5a/5b", ex.fig5_runtimes(scale, noise=False)),
        "fig5c": lambda: render_table("Figure 5c", ex.fig5c_checkpoint(scale)),
        "table3": lambda: render_table(
            "Table 3", ex.table3_ipc_comparison(min(scale, 0.05))),
        "fig6": lambda: render_table(
            "Figure 6", ex.fig6_fsgsbase(scale, noise=False)),
        "all": lambda: render_all(scale),
    }[args.what]
    print(table(), file=out)
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list-apps":
        return cmd_list_apps(out)
    if args.command == "info":
        return cmd_info(out)
    if args.command == "run":
        return cmd_run(args, out)
    if args.command == "calibrate":
        return cmd_calibrate(args, out)
    if args.command == "fault-sim":
        return cmd_fault_sim(args, out)
    if args.command == "bench":
        return cmd_bench(args, out)
    if args.command == "sanitize":
        return cmd_sanitize(args, out)
    if args.command == "analyze":
        return cmd_analyze(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "reproduce":
        return cmd_reproduce(args, out)
    raise AssertionError(args.command)  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
