"""Pass orchestration, baseline diffing, and the corpus gate.

``analyze_package`` runs all three passes over ``src/repro`` (the
deliberate-violation libraries — ``sanitizer/planted.py`` plants
runtime hazards, ``analysis/corpus.py`` plants static ones — go through
the lint pass only) and diffs the result against the committed
baseline. ``run_corpus_gate`` runs the
planted corpus the way the sanitizer's planted scenarios are checked:
every positive scenario must be detected by its expected rule, every
negative control must come back completely clean.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis import lint, taint, wiring
from repro.analysis.astutil import PackageIndex
from repro.analysis.findings import Baseline, Finding

#: default committed baseline location (repo root relative)
BASELINE_PATH = "benchmarks/ANALYSIS_baseline.json"


def analyze_index(index: PackageIndex) -> tuple[list[Finding], list[dict]]:
    """All three passes over one index → (findings, api inventory)."""
    wiring_findings, inventory = wiring.analyze(index)
    findings = wiring_findings + taint.analyze(index) + lint.analyze(index)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings, inventory


def analyze_sources(sources: dict[str, str]) -> list[Finding]:
    """Analyse an in-memory tree (corpus scenarios, tests)."""
    return analyze_index(PackageIndex(sources))[0]


def _package_root(root: str | Path | None) -> Path:
    if root is not None:
        return Path(root)
    return Path(__file__).resolve().parents[1]  # src/repro


def analyze_package(
    root: str | Path | None = None,
    *,
    baseline: Baseline | None = None,
) -> dict:
    """Analyse ``src/repro`` and diff against ``baseline``.

    Returns a report dict: unbaselined ``findings``, accepted
    ``baselined`` findings, ``unused_baseline`` fingerprints (stale
    entries that must be deleted), the per-API wiring ``inventory``,
    and ``ok`` (no unbaselined findings).
    """
    index = PackageIndex.from_dir(_package_root(root))
    findings, inventory = analyze_index(index)
    baseline = baseline if baseline is not None else Baseline()
    unbaselined, baselined, unused = baseline.split(findings)
    return {
        "findings": [f.to_dict() for f in unbaselined],
        "baselined": [f.to_dict() for f in baselined],
        "unused_baseline": unused,
        "inventory": inventory,
        "counts": {
            "total": len(findings),
            "unbaselined": len(unbaselined),
            "baselined": len(baselined),
            "modules": len(index.modules),
            "apis": len(inventory),
        },
        "ok": not unbaselined,
    }


def findings_from_report(report: dict) -> list[Finding]:
    """Rehydrate unbaselined Finding objects from a report dict."""
    return [
        Finding(d["analyzer"], d["rule"], d["path"], d["line"], d["message"])
        for d in report["findings"]
    ]


def run_corpus_gate() -> dict:
    """Run every planted scenario; the report ``repro analyze --gate``
    prints."""
    from repro.analysis.corpus import SCENARIOS

    rows = []
    detected = 0
    positives = 0
    false_positives = 0
    for scenario in SCENARIOS:
        findings = analyze_sources(scenario.files)
        rules = sorted({f.rule for f in findings})
        if scenario.expect is None:
            ok = not findings
            false_positives += len(findings)
        else:
            positives += 1
            ok = scenario.expect in rules
            detected += int(ok)
        rows.append(
            {
                "name": scenario.name,
                "expect": scenario.expect,
                "found": rules,
                "ok": ok,
            }
        )
    return {
        "scenarios": rows,
        "positives": positives,
        "detected": detected,
        "detection_rate": detected / positives if positives else 1.0,
        "false_positives": false_positives,
        "ok": detected == positives and false_positives == 0,
    }
