"""The ``sanitize`` bench suite.

Three independent verdicts, all of which must hold:

1. **Planted detection** — every positive scenario in
   :mod:`repro.sanitizer.planted` is detected (rate 1.0) and every
   negative control stays silent (0 false positives);
2. **Clean-app sweep** — the Rodinia suite, run under CRAC with a
   mid-run checkpoint cut and the sanitizer attached, produces zero
   hazards (the detector's real-workload false-positive rate);
3. **Overhead bound** — instrumenting Gaussian at the ``ckpt`` suite's
   scale and cuts costs at most ``OVERHEAD_LIMIT``× virtual time, and
   the output digest is unchanged (instrumentation shifts timing only).

The determinism lint over ``src/repro`` runs in ``repro analyze``.
"""

from __future__ import annotations

from repro.harness.suites import Suite, check
from repro.sanitizer.planted import SCENARIOS, run_scenario

#: maximum allowed virtual-time slowdown from instrumentation
OVERHEAD_LIMIT = 1.25


def _planted_section() -> dict:
    """Run every planted scenario; summarize detection."""
    rows = [run_scenario(sc) for sc in SCENARIOS]
    positives = [r for r in rows if not r["negative"]]
    negatives = [r for r in rows if r["negative"]]
    detected = sum(1 for r in positives if r["detected"])
    false_pos = sum(r["hazards"] for r in negatives)
    return {
        "scenarios": rows,
        "positives": len(positives),
        "detected": detected,
        "detection_rate": detected / len(positives) if positives else 1.0,
        "negatives": len(negatives),
        "false_positives": false_pos,
        "ok": detected == len(positives) and false_pos == 0,
    }


def _clean_apps_section(scale: float, gpu: str, seed: int,
                        apps=None) -> dict:
    """Run the Rodinia suite under CRAC + one cut with the sanitizer on.

    ``restart_after_checkpoint`` stays off: restart replay re-creates
    allocations outside the app's own call sequence, which is a
    different (heavier) instrumentation story than hazard detection on
    the app itself.
    """
    from repro.apps.rodinia import RODINIA_SUITE
    from repro.harness import Machine, run_app
    from repro.sanitizer.core import Sanitizer

    classes = apps if apps is not None else RODINIA_SUITE
    rows = []
    for cls in classes:
        san = Sanitizer()
        run_app(
            cls(scale=scale, seed=seed),
            Machine(gpu=gpu, seed=seed),
            mode="crac",
            checkpoint_at=0.5,
            restart_after_checkpoint=False,
            noise=False,
            sanitizer=san,
        )
        rows.append({
            "app": cls.name,
            "hazards": len(san.hazards),
            "by_checker": san.report.counts(),
            "ops_instrumented": san.report.ops_instrumented,
            "details": [h.describe() for h in san.hazards[:10]],
        })
    total = sum(r["hazards"] for r in rows)
    return {"apps": rows, "total_hazards": total, "ok": total == 0}


def _overhead_section(gpu: str, seed: int) -> dict:
    """Instrumented-vs-bare run of Gaussian at the ``ckpt`` suite's
    scale and cuts."""
    from repro.apps.rodinia import Gaussian
    from repro.harness import Machine, run_app
    from repro.sanitizer.core import Sanitizer

    cuts = [i / 5 for i in range(1, 5)]
    kw = dict(
        mode="crac", checkpoint_at=cuts, restart_after_checkpoint=False,
        noise=False,
    )
    base = run_app(Gaussian(scale=0.25, seed=seed),
                   Machine(gpu=gpu, seed=seed), **kw)
    san = Sanitizer()
    inst = run_app(Gaussian(scale=0.25, seed=seed),
                   Machine(gpu=gpu, seed=seed), sanitizer=san, **kw)
    ratio = (
        inst.runtime_exact_s / base.runtime_exact_s
        if base.runtime_exact_s > 0 else 1.0
    )
    return {
        "app": "gaussian",
        "scale": 0.25,
        "cuts": len(cuts),
        "base_s": base.runtime_exact_s,
        "instrumented_s": inst.runtime_exact_s,
        "ratio": ratio,
        "limit": OVERHEAD_LIMIT,
        "ops_instrumented": san.report.ops_instrumented,
        "digest_match": base.digest == inst.digest,
        "ok": ratio <= OVERHEAD_LIMIT and base.digest == inst.digest,
    }


def run_gate(*, scale: float, gpu: str, seed: int) -> dict:
    """Run the three sections; returns the suite result."""
    planted = _planted_section()
    clean = _clean_apps_section(scale, gpu, seed)
    overhead = _overhead_section(gpu, seed)
    failures = [r["name"] for r in planted["scenarios"] if not r["detected"]]
    dirty = [f"{r['app']}: {r['details']}" for r in clean["apps"]
             if r["hazards"]]
    return {
        "metrics": {
            "planted.detected": planted["detected"],
            "planted.positives": planted["positives"],
            "planted.false_positives": planted["false_positives"],
            "clean.hazards": clean["total_hazards"],
            "overhead.ratio": overhead["ratio"],
            "overhead.ops_instrumented": overhead["ops_instrumented"],
        },
        "checks": [
            check("planted: every positive detected",
                  planted["detected"] == planted["positives"],
                  f"{planted['detected']}/{planted['positives']}"
                  + (f"; missed {', '.join(failures)}" if failures else "")),
            check("planted: no false positives",
                  planted["false_positives"] == 0,
                  f"{planted['false_positives']} on {planted['negatives']} "
                  "negative control(s)"),
            check("clean sweep: no hazards", clean["ok"],
                  f"{clean['total_hazards']} across {len(clean['apps'])} "
                  "Rodinia app(s)" + ("; " + "; ".join(dirty) if dirty else "")),
            check(f"overhead ≤{OVERHEAD_LIMIT}×, digest equal", overhead["ok"],
                  f"{overhead['ratio']:.3f}×, digest "
                  + ("match" if overhead["digest_match"] else "MISMATCH")),
        ],
        "planted": planted,
        "clean_apps": clean,
        "overhead": overhead,
    }


SUITE = Suite(
    run=run_gate,
    config={"scale": 0.05, "gpu": "V100", "seed": 0},
)
