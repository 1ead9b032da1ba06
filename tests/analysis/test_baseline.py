"""Baseline machinery: the committed repo is clean, split() is exact."""

from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.engine import BASELINE_PATH
from repro.analysis.findings import RULE_CODES, Baseline, Finding, to_sarif

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_is_clean_against_committed_baseline(package_report):
    # The CI gate in one assertion: with the committed baseline loaded,
    # the shipped tree (the lint-only planted libraries included) has
    # zero unbaselined findings and no stale baseline entries masking
    # fixed ones.
    assert package_report["ok"] is True, package_report["findings"]
    assert package_report["unused_baseline"] == []


def test_committed_baseline_entries_are_justified():
    baseline = Baseline.load(REPO_ROOT / BASELINE_PATH)
    for entry in baseline.entries.values():
        assert entry["justification"].strip()
        assert "TODO" not in entry["justification"]


findings_st = st.lists(
    st.builds(
        Finding,
        analyzer=st.just("wiring"),
        rule=st.sampled_from(sorted(RULE_CODES)),
        path=st.sampled_from(["repro/a.py", "repro/b.py", "repro/c.py"]),
        line=st.integers(min_value=1, max_value=500),
        message=st.text(
            alphabet=st.characters(codec="ascii", categories=["L", "N"]),
            min_size=1,
            max_size=12,
        ),
    ),
    max_size=12,
    unique_by=lambda f: f.fingerprint,
)


@settings(max_examples=50, deadline=None)
@given(findings=findings_st, data=st.data())
def test_baseline_split_partitions_exactly(findings, data):
    accepted = data.draw(st.sets(st.sampled_from(findings))
                         if findings else st.just(set()))
    baseline = Baseline()
    for f in accepted:
        baseline.add(f, "planted justification")
    unbaselined, baselined, unused = baseline.split(findings)
    # split() is a partition of the findings list...
    assert len(unbaselined) + len(baselined) == len(findings)
    assert {f.fingerprint for f in baselined} == {
        f.fingerprint for f in accepted
    }
    assert not {f.fingerprint for f in unbaselined} & {
        f.fingerprint for f in accepted
    }
    # ...and every accepted finding is live, so nothing reads as stale.
    assert unused == []


@settings(max_examples=25, deadline=None)
@given(findings=findings_st)
def test_baseline_save_load_round_trip(findings, tmp_path_factory):
    path = tmp_path_factory.mktemp("baseline") / "baseline.json"
    baseline = Baseline()
    for f in findings:
        baseline.add(f, f"accepted: {f.rule}")
    baseline.save(path)
    loaded = Baseline.load(path)
    assert loaded.entries == baseline.entries
    # Fingerprints ignore the line number: a pure reformat never
    # invalidates a committed baseline entry.
    moved = [
        Finding(f.analyzer, f.rule, f.path, f.line + 7, f.message)
        for f in findings
    ]
    unbaselined, baselined, _ = loaded.split(moved)
    assert unbaselined == []
    assert len(baselined) == len(moved)


def test_missing_baseline_file_is_empty():
    assert Baseline.load("/nonexistent/baseline.json").entries == {}


def test_sarif_export_shape():
    f = Finding("lint", "lint/raw-raise", "repro/cuda/api.py", 3, "boom")
    sarif = to_sarif([f])
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert [r["ruleId"] for r in run["results"]] == ["lint/raw-raise"]
    loc = run["results"][0]["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "repro/cuda/api.py"
    assert loc["region"]["startLine"] == 3
