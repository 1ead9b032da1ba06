"""Checkpoint-mode comparison: full vs incremental vs forked vs speculative.

Runs the ``ckpt`` bench suite's sweep over ≥2 Rodinia apps with several
mid-run cuts under each checkpoint mode and asserts the headline claim
of the delta/forked pipeline: forked+incremental checkpointing cuts the
app-visible checkpoint stall by at least 30% versus synchronous full
checkpoints. ``repro bench ckpt`` gates the same claim at the suite's
fixed config; this benchmark runs it at ``REPRO_BENCH_SCALE``.
"""

from benchmarks.conftest import BENCH_SCALE, run_once
from repro.harness.ckpt_bench import FORKED_REDUCTION_PCT, run_ckpt_bench
from repro.harness.suites import render


def test_delta_ckpt_modes(benchmark):
    result = run_once(
        benchmark,
        # Below ~quarter scale the fixed quiesce cost (which no mode can
        # hide) dominates the stall and the ≥30% claim is meaningless.
        lambda: run_ckpt_bench(
            apps=["Gaussian", "Kmeans"], scale=max(BENCH_SCALE, 0.25),
            cuts=4, gpu="V100", seed=0,
        ),
    )
    ok = all(c["ok"] for c in result["checks"])
    print()
    print(render({**result, "suite": "ckpt", "ok": ok}))

    for app, row in result["apps"].items():
        modes = row["modes"]
        # Incremental shrinks the image chain after the base cut.
        assert modes["incremental"]["image_mb"] <= modes["full"]["image_mb"]
        # Forked must never stall longer than the synchronous modes.
        assert modes["forked"]["stall_s"] <= modes["full"]["stall_s"]
        red = result["metrics"][f"{app}.forked_reduction_pct"]
        assert red >= FORKED_REDUCTION_PCT, (
            f"{app}: forked+incremental reduced stall by only {red:.1f}% "
            f"(claim: ≥{FORKED_REDUCTION_PCT:.0f}%)"
        )
    assert ok
