"""``runner.drive``: the one driver of an app over a CRAC session."""

import ast
from pathlib import Path

import numpy as np

import repro
from repro.apps.base import CudaApp, digest_arrays
from repro.core.session import CracSession
from repro.harness import run_app
from repro.harness.runner import drive

SRC = Path(repro.__file__).resolve().parent


class Leap(CudaApp):
    """One kernel, then one progress report from 0.1 straight to 0.9."""

    name = "Leap"
    target_runtime_s = 0.01
    target_calls = 10

    def run_app(self, ctx):
        b = ctx.backend
        nbytes = 4 * 16
        ptr = b.malloc(nbytes)
        b.memcpy(ptr, np.arange(16, dtype=np.float32), nbytes, "h2d")
        ctx.maybe_checkpoint(0.1)

        def bump():
            view = b.device_view(ptr, nbytes, np.float32)
            np.add(view, 1.0, out=view)

        b.launch("kernel", bump)
        b.device_synchronize()
        ctx.maybe_checkpoint(0.9)
        out = np.empty(16, dtype=np.float32)
        b.memcpy(out, ptr, nbytes, "d2h")
        b.free(ptr)
        ctx.maybe_checkpoint(1.0)
        return digest_arrays(out)


def test_one_report_past_two_cuts_fires_both_in_order():
    seen = []
    drive(
        Leap(), CracSession(),
        cuts=[0.6, 0.3], on_cut=lambda p: seen.append((len(seen), p)),
    )
    assert seen == [(0, 0.9), (1, 0.9)]


def test_empty_cuts_never_call_on_cut():
    seen = []
    drive(Leap(), CracSession(), on_cut=seen.append)
    assert seen == []


def test_run_app_records_both_cuts_of_one_report():
    native = run_app(Leap(), mode="native", noise=False)
    res = run_app(Leap(), mode="crac", checkpoint_at=[0.3, 0.6], noise=False)
    assert [r.at_progress for r in res.checkpoints] == [0.9, 0.9]
    assert res.checkpoints[0].restart_s is None
    assert res.checkpoints[1].restart_s is not None
    assert res.digest == native.digest


def test_only_the_runner_builds_an_app_context():
    """Every session-driven app run goes through ``drive``: no module
    outside ``apps/`` and ``harness/runner.py`` constructs an
    ``AppContext``."""
    builders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel.startswith("apps/") or rel == "harness/runner.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), rel)):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            if name == "AppContext":
                builders.append(f"{rel}:{node.lineno}")
    assert builders == []
