"""One whole-package analysis per test session, shared by every test
that reads its report."""

from pathlib import Path

import pytest

from repro.analysis.engine import BASELINE_PATH, analyze_package
from repro.analysis.findings import Baseline

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def package_report():
    """``analyze_package`` of ``src/repro`` against the committed
    baseline."""
    return analyze_package(baseline=Baseline.load(REPO_ROOT / BASELINE_PATH))
