"""The ``ckpt`` bench suite: checkpoint stall and transparency per mode.

Runs each workload on one virtual machine once with no checkpoints (the
baseline) and then once per checkpoint mode — full, incremental,
forked, speculative — with the same mid-run cuts, and reports the
*checkpoint stall*: the extra virtual time the checkpointed run paid
over the baseline. Delta encoding shrinks the image; forking moves its
write off the critical path so only quiesce + snapshot + COW remain as
stall (CRUM); validated speculation drops the quiesce and drain as well
(PhoenixOS).

Checks:

- forked+incremental cuts the stall by at least
  :data:`FORKED_REDUCTION_PCT` versus full, per app;
- speculative stall stays below :data:`STALL_RATIO_LIMIT` of the forked
  stall, per app, and the ratio is gated against the baseline;
- every mode is transparent (paper §3): the output digest equals the
  uncheckpointed run's both when the process runs on past its cuts and
  when it is killed after each cut and restarted from the image;
- a forced-conflict cell writes a buffer inside the speculative capture
  window; validation must invalidate and replay it, and the restore
  must still hold the cut-point bytes.
"""

from __future__ import annotations

import numpy as np

from repro.core.session import CracSession
from repro.harness.runner import Machine, run_app
from repro.harness.suites import Gate, Suite, app_classes, check

#: mode -> ``run_app`` keywords. Forked and speculative imply
#: incremental, the combination CRUM and PhoenixOS converge on.
CKPT_MODES: dict[str, dict] = {
    "full": {},
    "incremental": {"incremental": True},
    "forked": {"incremental": True, "forked": True},
    "speculative": {"incremental": True, "speculative": True},
}
#: Forked stall must be at least this much below the full-mode stall.
FORKED_REDUCTION_PCT = 30.0
#: Speculative stall must stay below this fraction of the forked stall.
STALL_RATIO_LIMIT = 0.10
#: Added to both stalls of the speculative/forked ratio so a
#: sub-millisecond stall cannot flip the check on rounding.
STALL_FLOOR_S = 1e-3


def default_cuts(n_cuts: int) -> list[float]:
    """``n_cuts`` evenly spaced progress fractions, e.g. 4 → .2/.4/.6/.8."""
    if n_cuts < 1:
        raise ValueError("need at least one cut")
    return [(i + 1) / (n_cuts + 1) for i in range(n_cuts)]


def _forced_conflict_cell(*, seed: int, gpu: str) -> dict:
    """Write inside the capture window; validation must invalidate and
    replay, and the restored bytes must still equal the cut state."""
    nbytes = 1 << 20
    session = CracSession(gpu=gpu, seed=seed)
    backend = session.backend
    addr = backend.malloc(nbytes)
    backend.device_view(addr, nbytes)[:] = 17  # pre-cut contents
    image = session.checkpoint(speculative=True)
    # The capture window is open: these writes conflict with the cut.
    backend.device_view(addr, nbytes // 2)[:] = 99
    session.finish_forked_checkpoints()
    writer = image.forked_writer
    cell = {
        "invalidated": writer.invalidated,
        "replayed_bytes": writer.replayed_bytes,
        "replay_time_ns": writer.replay_time_ns,
        "committed": writer.committed,
    }
    # Restore must be digest-equal to a stop-the-world cut: the image
    # holds the *pre-window* bytes, not the conflicting write.
    session.kill()
    session.restart(image)
    restored = session.backend.device_view(addr, nbytes)
    cell["digest_equal"] = bool(np.all(restored == 17))
    cell["ok"] = bool(
        cell["invalidated"] > 0
        and cell["replayed_bytes"] > 0
        and cell["committed"]
        and cell["digest_equal"]
    )
    session.kill()
    return cell


def run_ckpt_bench(
    *, apps: list[str], scale: float, cuts: int, gpu: str, seed: int
) -> dict:
    """Run the mode sweep; returns the suite result.

    Every run uses ``noise=False`` (pure virtual time). The timing runs
    keep the original process alive so the runtime difference against
    the baseline isolates the stall exactly.
    """
    fracs = default_cuts(cuts)
    machine = Machine(gpu=gpu, seed=seed)
    metrics: dict = {}
    checks: list[dict] = []
    rows: dict = {}
    for cls in app_classes(apps):
        name = cls.name

        def run(**kwargs):
            return run_app(
                cls(scale=scale, seed=seed), machine, mode="crac",
                noise=False, **kwargs,
            )

        base = run()
        row: dict = {"baseline_s": base.runtime_exact_s, "modes": {}}
        stall: dict[str, float] = {}
        for mode, kwargs in CKPT_MODES.items():
            live = run(checkpoint_at=fracs, restart_after_checkpoint=False,
                       **kwargs)
            restored = run(checkpoint_at=fracs, restart_after_checkpoint=True,
                           **kwargs)
            stall[mode] = live.runtime_exact_s - base.runtime_exact_s
            metrics[f"{name}.{mode}.stall_s"] = stall[mode]
            row["modes"][mode] = {
                "runtime_s": live.runtime_exact_s,
                "stall_s": stall[mode],
                "image_mb": [r.size_mb for r in live.checkpoints],
                "ckpt_s": [r.checkpoint_s for r in live.checkpoints],
            }
            checks.append(check(
                f"{name}: {mode} digest-equal, live and restored",
                live.digest == base.digest == restored.digest,
                f"live {live.digest:#010x}, restored {restored.digest:#010x},"
                f" uncheckpointed {base.digest:#010x}",
            ))
        reduction = (
            100.0 * (1.0 - stall["forked"] / stall["full"])
            if stall["full"] > 0 else 0.0
        )
        ratio = (stall["speculative"] + STALL_FLOOR_S) / (
            stall["forked"] + STALL_FLOOR_S
        )
        metrics[f"{name}.forked_reduction_pct"] = reduction
        metrics[f"{name}.stall_ratio"] = ratio
        checks.append(check(
            f"{name}: forked stall ≥{FORKED_REDUCTION_PCT:.0f}% below full",
            reduction >= FORKED_REDUCTION_PCT,
            f"{stall['forked']:.4f}s vs {stall['full']:.4f}s "
            f"({reduction:.1f}% less)",
        ))
        checks.append(check(
            f"{name}: speculative stall < {STALL_RATIO_LIMIT:.0%} of forked",
            ratio < STALL_RATIO_LIMIT,
            f"{stall['speculative']:.4f}s vs {stall['forked']:.4f}s "
            f"(ratio {ratio:.3f})",
        ))
        rows[name] = row

    conflict = _forced_conflict_cell(seed=seed, gpu=gpu)
    checks.append(check(
        "forced conflict: invalidate-and-replay, restore digest-equal",
        conflict["ok"],
        f"invalidated {conflict['invalidated']} handle(s), replayed "
        f"{conflict['replayed_bytes']} bytes, "
        f"digest_equal={conflict['digest_equal']}",
    ))
    metrics["forced_conflict.replayed_bytes"] = conflict["replayed_bytes"]
    return {
        "metrics": metrics,
        "checks": checks,
        "cuts": fracs,
        "apps": rows,
        "forced_conflict": conflict,
    }


_CONFIG = {
    "apps": ["Gaussian", "Kmeans"],
    # Below ~quarter scale the fixed quiesce cost, which no mode can
    # hide, dominates the stall and the forked reduction is moot.
    "scale": 0.25,
    "cuts": 4,
    "gpu": "V100",
    "seed": 0,
}

SUITE = Suite(
    run=run_ckpt_bench,
    config=_CONFIG,
    # Virtual time: exact for the seed, so any move is a model change.
    gates=tuple(Gate(f"{app}.stall_ratio", "exact") for app in _CONFIG["apps"]),
)
