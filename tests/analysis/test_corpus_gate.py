"""Planted-corpus gate: every violation detected, every control clean."""

import pytest

from repro.analysis.corpus import SCENARIOS
from repro.analysis.engine import analyze_sources, run_corpus_gate
from repro.analysis.findings import RULE_CODES

POSITIVES = [s for s in SCENARIOS if s.expect is not None]
NEGATIVES = [s for s in SCENARIOS if s.expect is None]


def test_corpus_is_large_enough():
    assert len(POSITIVES) >= 10
    assert len(NEGATIVES) >= 4


def test_every_rule_has_a_planted_scenario():
    # A positive for every rule keeps the detectors honest: a rule with
    # no scenario could silently stop firing. A rule may have more than
    # one, one per shape it catches (a trampoline log write of one call
    # and of a run). lint/syntax reports a file the parser rejects, which
    # no corpus tree plants.
    assert {s.expect for s in POSITIVES} == set(RULE_CODES) - {"lint/syntax"}
    assert len({s.name for s in SCENARIOS}) == len(SCENARIOS), "duplicate names"


@pytest.mark.parametrize("scenario", POSITIVES, ids=lambda s: s.name)
def test_planted_violation_detected(scenario):
    findings = analyze_sources(scenario.files)
    rules = {f.rule for f in findings}
    assert scenario.expect in rules, (
        f"{scenario.name}: expected {scenario.expect}, got {sorted(rules)}"
    )


@pytest.mark.parametrize("scenario", NEGATIVES, ids=lambda s: s.name)
def test_negative_control_is_clean(scenario):
    findings = analyze_sources(scenario.files)
    assert findings == [], (
        f"{scenario.name}: false positives "
        f"{[f.describe() for f in findings]}"
    )


def test_gate_report_shape():
    report = run_corpus_gate()
    assert report["ok"] is True
    assert report["detection_rate"] == 1.0
    assert report["false_positives"] == 0
    assert report["positives"] == len(POSITIVES)
    assert len(report["scenarios"]) == len(SCENARIOS)
    assert all(row["ok"] for row in report["scenarios"])
