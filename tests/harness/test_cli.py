"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import APP_REGISTRY, main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestListApps:
    def test_lists_all_registered_apps(self):
        code, text = run_cli("list-apps")
        assert code == 0
        for name in APP_REGISTRY:
            assert name in text

    def test_registry_covers_whole_suite(self):
        # 14 Rodinia + SS + UMS + LULESH + HPGMG + HYPRE + cublas
        assert len(APP_REGISTRY) == 20


class TestInfo:
    def test_shows_version_and_costs(self):
        code, text = run_cli("info")
        assert code == 0
        assert "V100" in text and "K600" in text
        assert "native_dispatch_ns" in text


class TestRun:
    def test_run_native(self):
        code, text = run_cli("run", "hotspot", "--scale", "0.01")
        assert code == 0
        assert "runtime:" in text
        assert "native" in text

    def test_run_crac_with_checkpoint(self):
        code, text = run_cli(
            "run", "bfs", "--mode", "crac", "--scale", "0.01",
            "--checkpoint-at", "0.5",
        )
        assert code == 0
        assert "checkpoint:" in text
        assert "restart:" in text

    def test_run_checkpoint_without_restart(self):
        code, text = run_cli(
            "run", "bfs", "--mode", "crac", "--scale", "0.01",
            "--checkpoint-at", "0.5", "--no-restart",
        )
        assert code == 0
        assert "checkpoint:" in text
        assert "restart:" not in text

    def test_run_on_k600(self):
        code, text = run_cli(
            "run", "hotspot", "--scale", "0.01", "--gpu", "K600",
        )
        assert code == 0
        assert "K600" in text

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "doom")


class TestReproduce:
    def test_fig0(self):
        code, text = run_cli("reproduce", "fig0")
        assert code == 0
        assert "2019" in text

    def test_table2(self):
        code, text = run_cli("reproduce", "table2")
        assert code == 0
        assert "-s 8192 -q" in text

    def test_fig2_small_scale(self):
        code, text = run_cli("reproduce", "fig2", "--scale", "0.01")
        assert code == 0
        assert "Streamcluster" in text

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("reproduce", "fig99")


class TestCkptBench:
    def test_smoke_writes_report(self, tmp_path, bench_baseline):
        out_path = tmp_path / "BENCH_ckpt.json"
        code, text = run_cli("bench", "ckpt", "--out", str(out_path))
        assert code == 0, text
        assert "bench ckpt: PASS" in text
        assert "forked stall ≥30% below full" in text

        import json

        report = json.loads(out_path.read_text())
        assert len(report["cuts"]) == 4
        row = report["apps"]["Gaussian"]
        assert set(row["modes"]) == {
            "full", "incremental", "forked", "speculative",
        }
        for mode in row["modes"].values():
            assert mode["runtime_s"] >= row["baseline_s"]
        assert report["metrics"]["Kmeans.forked_reduction_pct"] >= 30.0
        assert all(c["ok"] for c in report["checks"])

    def test_dash_out_skips_file(self, tmp_path, monkeypatch, bench_baseline):
        monkeypatch.chdir(tmp_path)
        code, text = run_cli("bench", "ckpt", "--out", "-")
        assert code == 0
        assert "wrote" not in text
        assert list(tmp_path.iterdir()) == [bench_baseline]


class TestSpecBench:
    """Speculative cuts run inside the ``ckpt`` suite's mode sweep."""

    def test_smoke_writes_report(self, tmp_path, bench_baseline):
        out_path = tmp_path / "BENCH_ckpt.json"
        code, text = run_cli("bench", "ckpt", "--out", str(out_path))
        assert code == 0, text
        assert "forced conflict" in text

        import json

        report = json.loads(out_path.read_text())
        for app in ("Gaussian", "Kmeans"):
            assert report["metrics"][f"{app}.stall_ratio"] < 0.10
        passed = {c["name"] for c in report["checks"] if c["ok"]}
        assert "Kmeans: speculative digest-equal, live and restored" in passed
        assert "Kmeans.stall_ratio vs baseline" in passed
        assert report["forced_conflict"]["invalidated"] > 0
        assert report["forced_conflict"]["digest_equal"]
        assert report["ok"]

    def test_update_baseline_writes_payload(self, bench_baseline):
        bench_baseline.write_text('{"version": 1, "suites": {}}')
        code, _ = run_cli("bench", "ckpt", "--update-baseline")
        assert code == 0

        import json

        entry = json.loads(bench_baseline.read_text())["suites"]["ckpt"]
        assert entry["config"]["cuts"] == 4
        assert set(entry["metrics"]) == {
            "Gaussian.stall_ratio", "Kmeans.stall_ratio",
        }


class TestTrace:
    def test_trace_app_checks_and_writes_chrome_trace(self, tmp_path):
        trace_path = tmp_path / "ss.json"
        code, text = run_cli(
            "trace", "simplestreams", "--checkpoint-at", "0.5",
            "--trace-out", str(trace_path),
        )
        assert code == 0, text
        assert "[PASS] eq. 2 equals the traced call spans" in text
        assert "bench trace simplestreams: PASS" in text

        import json

        assert json.loads(trace_path.read_text())["traceEvents"]


class TestAnalyzeUpdateBaseline:
    """--update-baseline must refuse missing/placeholder justifications
    (the old code stamped 'TODO: justify before committing', which the
    justification audit rejects)."""

    @pytest.fixture
    def fake_finding_report(self, monkeypatch):
        from repro.analysis.findings import Finding

        finding = Finding(
            "wiring", "wiring/test-rule", "repro/fake.py", 1, "planted"
        )
        report = {
            "findings": [finding.to_dict()],
            "baselined": [],
            "unused_baseline": [],
            "counts": {
                "apis": 0, "modules": 0, "unbaselined": 1, "baselined": 0,
            },
            "ok": False,
        }
        monkeypatch.setattr(
            "repro.analysis.engine.analyze_package",
            lambda *a, **kw: dict(report),
        )
        return finding

    def test_missing_justify_refused(self, tmp_path, fake_finding_report):
        baseline = tmp_path / "baseline.json"
        code, text = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--out", "-",
        )
        assert code == 2
        assert "--justify" in text
        assert not baseline.exists(), "refused update still wrote the file"

    @pytest.mark.parametrize("msg", [
        "TODO: justify before committing",
        "fixme later",
        "TBD",
        "xxx placeholder",
        "   ",
    ])
    def test_placeholder_justify_refused(self, tmp_path, msg,
                                         fake_finding_report):
        baseline = tmp_path / "baseline.json"
        code, _ = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--justify", msg, "--out", "-",
        )
        assert code == 2
        assert not baseline.exists()

    def test_real_justification_accepted(self, tmp_path, fake_finding_report):
        import json

        baseline = tmp_path / "baseline.json"
        code, text = run_cli(
            "analyze", "--baseline", str(baseline), "--update-baseline",
            "--justify", "planted by the CLI regression test",
            "--out", "-",
        )
        assert code == 0
        assert "accepted 1 finding(s)" in text
        entries = json.loads(baseline.read_text())["entries"]
        assert len(entries) == 1
        assert entries[0]["justification"] == (
            "planted by the CLI regression test"
        )
        # The committed-baseline audit's own rule: no TODO markers.
        assert "TODO" not in entries[0]["justification"]


class TestVersion:
    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
