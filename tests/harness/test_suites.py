"""The ``repro bench`` engine: baseline checks, exit codes, registry."""

import dataclasses
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import suites
from repro.harness.suites import check

REPO = Path(__file__).resolve().parents[2]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


@pytest.fixture
def stub_suite(monkeypatch):
    """Swap a suite's run for a stub that reports the committed
    baseline's metrics and one check of the given verdict."""
    committed = json.loads((REPO / "benchmarks" / "BASELINE.json").read_text())

    def install(name, ok):
        module = importlib.import_module(suites.SUITES[name])
        metrics = dict(committed["suites"][name]["metrics"])

        def run(**config):
            return {"metrics": metrics, "checks": [check("stub", ok, "")]}

        monkeypatch.setattr(
            module, "SUITE", dataclasses.replace(module.SUITE, run=run)
        )

    return install


def _edit(path, fn):
    data = json.loads(path.read_text())
    fn(data)
    path.write_text(json.dumps(data))


def test_committed_baseline_records_every_suite_config():
    committed = json.loads((REPO / "benchmarks" / "BASELINE.json").read_text())
    assert committed["version"] == suites.BASELINE_VERSION
    assert set(committed["suites"]) == set(suites.SUITES)
    for name in suites.SUITES:
        suite = suites.load_suite(name)
        entry = committed["suites"][name]
        assert entry["config"] == json.loads(json.dumps(suite.config)), name
        assert set(entry["metrics"]) == set(suite.exact), name


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_failing_check_exits_1(name, stub_suite, bench_baseline):
    stub_suite(name, ok=True)
    code, text = run_cli("bench", name)
    assert code == 0, text
    stub_suite(name, ok=False)
    code, text = run_cli("bench", name)
    assert code == 1
    assert "[FAIL] stub" in text and f"bench {name}: FAIL" in text


@pytest.mark.parametrize("name", list(suites.SUITES))
def test_missing_baseline_entry_exits_1(name, stub_suite, bench_baseline):
    stub_suite(name, ok=True)
    _edit(bench_baseline, lambda d: d["suites"].pop(name))
    code, text = run_cli("bench", name)
    assert code == 1
    assert "[FAIL] baseline entry" in text and "--update-baseline" in text


def test_missing_baseline_file_exits_1(stub_suite, bench_baseline):
    stub_suite("serve", ok=True)
    bench_baseline.unlink()
    code, _ = run_cli("bench", "serve")
    assert code == 1


def test_config_mismatch_exits_1(stub_suite, bench_baseline):
    stub_suite("ckpt", ok=True)
    _edit(bench_baseline,
          lambda d: d["suites"]["ckpt"]["config"].update(seed=1, cuts=2))
    code, text = run_cli("bench", "ckpt")
    assert code == 1
    assert "config differs from the recorded one in cuts, seed" in text


def test_other_baseline_version_exits_1(stub_suite, bench_baseline):
    stub_suite("serve", ok=True)
    _edit(bench_baseline, lambda d: d.update(version=0))
    code, _ = run_cli("bench", "serve")
    assert code == 1


def test_gated_regression_exits_1(stub_suite, bench_baseline):
    stub_suite("serve", ok=True)
    _edit(bench_baseline, lambda d: d["suites"]["serve"]["metrics"].update(
        resume_p99_ms=1000.0))
    code, text = run_cli("bench", "serve")
    assert code == 1
    assert "[FAIL] resume_p99_ms vs baseline" in text
    assert "[PASS] sessions_per_sec vs baseline" in text


def test_update_baseline_records_then_gates(stub_suite, bench_baseline):
    stub_suite("perf", ok=True)
    bench_baseline.unlink()
    code, text = run_cli("bench", "perf", "--update-baseline")
    assert code == 0
    assert "recorded the 'perf' entry" in text
    recorded = json.loads(bench_baseline.read_text())
    assert recorded["version"] == suites.BASELINE_VERSION
    assert set(recorded["suites"]) == {"perf"}
    code, _ = run_cli("bench", "perf")
    assert code == 0


def test_update_baseline_keeps_the_entry_of_a_failing_run(
    stub_suite, bench_baseline
):
    before = bench_baseline.read_text()
    stub_suite("perf", ok=False)
    code, text = run_cli("bench", "perf", "--update-baseline")
    assert code == 1
    assert "[FAIL] stub" in text and "recorded the" not in text
    assert bench_baseline.read_text() == before


def test_unknown_suite_rejected():
    with pytest.raises(SystemExit):
        run_cli("bench", "doom")


def test_app_classes_resolve_every_paper_app():
    names = [
        "BFS", "CFD", "DWT2D", "Gaussian", "Heartwall", "Hotspot",
        "Hotspot3D", "Kmeans", "LUD", "Leukocyte", "NW", "Particlefilter",
        "SRAD", "Streamcluster", "simpleStreams", "UnifiedMemoryStreams",
        "LULESH", "HPGMG-FV", "HYPRE", "cublas-micro",
    ]
    assert [cls.name for cls in suites.app_classes(names)] == names


def test_exact_gate_fails_on_any_move():
    config = json.loads(json.dumps(suites.load_suite("serve").config))

    def gate(current, recorded):
        entry = {"config": config, "metrics": {
            "resume_p99_ms": recorded, "sessions_per_sec": 1.0,
        }}
        report = {"config": config, "metrics": {
            "resume_p99_ms": current, "sessions_per_sec": 1.0,
        }}
        baseline = {"version": suites.BASELINE_VERSION,
                    "suites": {"serve": entry}}
        checks = suites.baseline_checks("serve", report, baseline)
        assert checks[1]["name"] == "resume_p99_ms vs baseline"
        return checks[1]

    assert gate(0.1 + 0.2, 0.1 + 0.2)["ok"]
    assert not gate(0.30000000000000004, 0.3)["ok"]
    assert not gate(0.3, 0.30000000000000004)["ok"]
    assert gate(5.0, 5.0)["detail"] == (
        "5.0 vs 5.0 (exact match: any move fails)"
    )


def test_importing_faultspec_loads_no_suite():
    """The benchmark imports ``FaultSpec``; a suite module, the fault
    campaign or the trace checks in its process would count against its
    peak RSS."""
    code = (
        "import sys\n"
        "from repro.harness.fault_injection import FaultSpec\n"
        "from repro.harness.suites import SUITES\n"
        "heavy = [*SUITES.values(), 'repro.harness.fault_tolerance',\n"
        "         'repro.harness.trace_bench']\n"
        "print([m for m in heavy if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src")}, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_ci_bench_matrix_is_the_suite_registry():
    """The CI ``bench`` job runs exactly the registered suites, so a
    suite added to (or dropped from) the registry cannot drift out of CI."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    job = ci[ci.index("\n  bench:\n"):]
    line = next(
        ln for ln in job.splitlines() if ln.strip().startswith("suite:")
    )
    listed = line.split("[", 1)[1].rsplit("]", 1)[0]
    assert [s.strip() for s in listed.split(",")] == list(suites.SUITES)
