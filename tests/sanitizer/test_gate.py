"""sanitize suite: planted detection, clean sweep, report rendering."""

import pytest

from repro.harness.suites import render
from repro.sanitizer.gate import _clean_apps_section, run_gate
from repro.sanitizer.planted import SCENARIOS, run_scenario


@pytest.fixture(scope="module")
def gate():
    """One smoke-scale suite run (the planted corpus included) shared by
    every test here."""
    result = run_gate(scale=0.02, gpu="V100", seed=0)
    return {**result, "suite": "sanitize",
            "ok": all(c["ok"] for c in result["checks"])}


class TestPlanted:
    def test_every_scenario_detected(self, gate):
        """The headline acceptance criterion: 100% planted detection,
        zero findings on the negative controls."""
        section = gate["planted"]
        assert section["detection_rate"] == 1.0
        assert section["false_positives"] == 0
        assert section["ok"]

    def test_each_checker_has_three_positives(self):
        """ISSUE floor: >= 3 planted positives per checker."""
        per = {}
        for sc in SCENARIOS:
            for checker, _ in sc.expect:
                per[checker] = per.get(checker, 0) + 1
        for checker in ("racecheck", "synccheck", "memcheck", "initcheck"):
            assert per.get(checker, 0) >= 3, checker

    def test_scenario_rows_name_what_was_found(self):
        sc = next(s for s in SCENARIOS if s.name == "mem-double-free")
        row = run_scenario(sc)
        assert row["detected"]
        assert ["memcheck", "double-free"] in [
            list(f) for f in row["found"]
        ] or ("memcheck", "double-free") in row["found"]
        assert row["missing"] == []


class TestCleanApps:
    def test_single_app_sweep_is_clean(self):
        from repro.apps.rodinia import Gaussian

        section = _clean_apps_section(0.05, "V100", 0, apps=[Gaussian])
        assert section["ok"]
        (row,) = section["apps"]
        assert row["hazards"] == 0
        assert row["ops_instrumented"] > 0


class TestReport:
    def test_run_gate_smoke_and_format(self, gate):
        """One full (smoke-scale) suite run: verdict PASS, JSON shape
        stable, text rendering names each check."""
        assert set(gate) == {
            "metrics", "checks", "planted", "clean_apps", "overhead",
            "suite", "ok",
        }
        assert gate["ok"], render(gate)
        text = render(gate)
        for token in ("planted: every positive detected",
                      "planted: no false positives", "clean sweep:",
                      "overhead ≤1.25×", "bench sanitize: PASS"):
            assert token in text

    def test_format_names_failures(self, monkeypatch):
        """A missed scenario is named in the failing check's detail."""
        import repro.sanitizer.gate as gate_mod

        missed = {
            "name": "race-x", "detected": False, "negative": False,
            "missing": [("racecheck", "write-write")], "found": [],
            "hazards": 0, "expected": [],
        }
        monkeypatch.setattr(gate_mod, "SCENARIOS", [SCENARIOS[0]])
        monkeypatch.setattr(gate_mod, "run_scenario", lambda sc: missed)
        monkeypatch.setattr(gate_mod, "_clean_apps_section",
                            lambda *a: {"apps": [], "total_hazards": 0,
                                        "ok": True})
        monkeypatch.setattr(gate_mod, "_overhead_section",
                            lambda *a: {"ratio": 1.0, "ops_instrumented": 0,
                                        "digest_match": True, "ok": True})
        result = run_gate(scale=0.02, gpu="V100", seed=0)
        report = {**result, "suite": "sanitize", "ok": False}
        text = render(report)
        assert "[FAIL] planted: every positive detected" in text
        assert "race-x" in text
