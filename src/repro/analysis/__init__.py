"""Whole-program static analysis for checkpoint-restart safety.

Three passes over the source tree (AST only — no module is imported,
so analysing a broken tree can never crash the analyser):

- **wiring** (:mod:`repro.analysis.wiring`) — cross-layer API-wiring
  consistency: every ``cuda*`` trampoline method must be entered,
  dispatched (trace attribution), reachable, sanitizer-modelled,
  replay-logged, captured *and* restored, and severity-classified.
- **taint** (:mod:`repro.analysis.taint`) — replay-determinism
  dataflow: wall-clock/unseeded-RNG values flowing into kernel args or
  capture digests, device pointers escaping into module-level host
  containers, stream/event use-after-destroy, and launches with no
  statically reachable sync before a checkpoint cut.
- **lint** (:mod:`repro.analysis.lint`) — the per-line determinism
  rules: nondeterministic calls (resolved through import bindings, so
  aliased imports like ``from time import time`` do not evade them),
  raw raises in CUDA call paths, and dict-order iteration in capture
  and restore paths. It also reads the deliberate-violation libraries
  the other two passes leave out.

Every file is parsed once into a :class:`~repro.analysis.astutil.PackageIndex`
that all three passes walk; a file that does not parse is a
``lint/syntax`` finding. Findings (:mod:`repro.analysis.findings`) route
severity through the ``cuda/errors.py`` taxonomy, honour
``# lint: allow`` suppressions, diff against a committed baseline
(``benchmarks/ANALYSIS_baseline.json``) and export SARIF.
``repro analyze`` is the CLI; the ``analyze`` CI job fails on any
unbaselined finding.
"""

from repro.analysis.engine import analyze_package, analyze_sources, run_corpus_gate
from repro.analysis.findings import Baseline, Finding

__all__ = [
    "Baseline",
    "Finding",
    "analyze_package",
    "analyze_sources",
    "run_corpus_gate",
]
