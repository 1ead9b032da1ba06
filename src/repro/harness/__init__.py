"""Experiment harness: run apps under any dispatcher, reproduce §4.

- :mod:`~repro.harness.runner`      — build a machine, run an app under
  native / CRAC / CRUM / CMA-proxy / CRCUDA, with optional mid-run
  checkpoint + kill + restart; ``drive`` is the one driver of an app
  over a CRAC session, calling back at each cut of its progress (the
  checkpoint, restart, migration and failover cells use it).
- :mod:`~repro.harness.metrics`     — the paper's formulas: runtime
  overhead (eq. 1), Total CUDA calls and calls-per-second (eq. 2).
- :mod:`~repro.harness.experiments` — one entry point per table/figure.
- :mod:`~repro.harness.report`      — plain-text rendering of the
  tables/series the paper reports.
- :mod:`~repro.harness.suites`      — ``repro bench SUITE``: the three
  bench suites (ckpt, perf, serve) and the one engine that gates them
  against the baseline.
"""

from repro.harness.fault_injection import FaultInjector, FaultSpec, FiredFault
from repro.harness.metrics import cps, overhead_pct
from repro.harness.runner import CkptRecord, Machine, RunResult, run_app

__all__ = [
    "Machine",
    "RunResult",
    "CkptRecord",
    "run_app",
    "overhead_pct",
    "cps",
    "FaultInjector",
    "FaultSpec",
    "FiredFault",
]
