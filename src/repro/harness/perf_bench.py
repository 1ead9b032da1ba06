"""The ``perf`` bench suite: the simulator's host cost, counted per layer.

Paper §4.3 accounts for CRAC's overhead by counting what each CUDA call
costs (trampoline crossings against proxy marshalling and copies). This
suite gates the simulator's own host cost the same way, by counting: the
Python-level calls each layer of :mod:`repro` makes while three fixed
scenarios run.

- ``capture`` — checkpointed runs in full, incremental and forked mode
  with no restart, on the largest Rodinia apps and HPGMG-FV (thousands
  of never-written allocations at every cut, the many-buffer path); the
  output digest must equal an uncheckpointed run's;
- ``restart`` — the same apps in full and incremental mode, killed after
  every cut and restarted from its image; the digest must match too;
- ``sanitize`` — the Rodinia apps under the full dynamic checker set,
  which must stay hazard-free (HPGMG-FV's managed reads of never-written
  bytes are initcheck findings, so it is left out).

A call is a ``"call"`` profile event whose code lives under the
``repro`` package. It belongs to the layer named by the first path
component under ``repro/`` (``linux``, ``core``, ``cuda``, ``gpu``,
``dmtcp``, ...). Generated methods have no file (a dataclass
``__init__``, a NamedTuple ``__new__``), so they count toward their
caller's layer. Standard-library and numpy frames are not counted, so a
dependency upgrade cannot move a count.

Each scenario runs once uncounted, then once counted: the first pass
fills the lower half's cached images, and the warm counts are the same
in a fresh process as after a test session imported everything. Every
``calls.<scenario>.<layer>`` count is an exact gate, so a change that
moves host cost re-records the baseline and the diff shows the move per
layer. Counts depend on the interpreter's minor version (3.12 inlines
comprehensions), so the config records the one the baseline was counted
on and a run on any other fails before any count is compared.

What the count does not see is work that makes no Python call, such as
a loop inside one function or time spent in numpy. Wall-clock claims
belong to ``bench/`` (``bench/compare.py``).
"""

from __future__ import annotations

import os
import pkgutil
import sys
from collections import Counter
from typing import Callable

import repro
from repro.core.session import CracSession
from repro.harness.ckpt_bench import CKPT_MODES, default_cuts
from repro.harness.runner import Machine, drive, run_app
from repro.harness.suites import Suite, app_classes, check

#: The checkpoint modes the capture scenario cuts in.
CAPTURE_MODES = ("full", "incremental", "forked")
#: The checkpoint modes the restart scenario cuts and restarts in.
RESTART_MODES = ("full", "incremental")
SCENARIOS = ("capture", "restart", "sanitize")
#: Every top-level module and package of ``repro``: the layers a call
#: can belong to.
LAYERS = tuple(sorted(m.name for m in pkgutil.iter_modules(repro.__path__)))
#: ``major.minor`` of the running interpreter.
PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"

_REPRO_DIR = os.path.dirname(repro.__file__) + os.sep


def count_calls(fn: Callable[[], object]) -> tuple[object, Counter]:
    """Run ``fn()``; return its result and its Python calls per layer.

    Restores the profile function that was set before.
    """
    counts: Counter = Counter()
    layer_of: dict[str, str | None] = {}

    def layer(filename: str) -> str | None:
        if filename not in layer_of:
            name = None
            if filename.startswith(_REPRO_DIR):
                name = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
                name = name.removesuffix(".py")
            layer_of[filename] = name
        return layer_of[filename]

    def profile(frame, event, arg):
        if event != "call":
            return
        filename = frame.f_code.co_filename
        while filename.startswith("<"):  # generated: the caller's layer
            frame = frame.f_back
            if frame is None:
                return
            filename = frame.f_code.co_filename
        name = layer(filename)
        if name is not None:
            counts[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, counts


def _restart_each_cut(app, *, gpu: str, seed: int, fracs, incremental: bool):
    """Run ``app`` under CRAC, cutting at ``fracs``; after every cut kill
    the process and restart it from the image. Returns the app result."""
    session = CracSession(gpu=gpu, seed=seed)
    images: list = []

    def cut(progress: float) -> None:
        parent = images[-1] if incremental and images else None
        images.append(
            session.checkpoint(incremental=parent is not None, parent=parent)
        )
        session.kill()
        session.restart(images[-1])

    return drive(app, session, cuts=fracs, on_cut=cut)


def _scenarios(
    *, capture_apps: list[str], sanitize_apps: list[str], scale: float,
    cuts: int, gpu: str, seed: int,
) -> dict[str, Callable[[], dict]]:
    """Scenario name -> a function that runs it once and returns what its
    checks need."""
    from repro.sanitizer.core import Sanitizer

    fracs = default_cuts(cuts)
    machine = Machine(gpu=gpu, seed=seed)
    classes = app_classes(capture_apps)

    def capture() -> dict:
        return {
            (cls.name, mode): run_app(
                cls(scale=scale, seed=seed), machine, mode="crac",
                checkpoint_at=fracs, restart_after_checkpoint=False,
                noise=False, **CKPT_MODES[mode],
            ).digest
            for cls in classes for mode in CAPTURE_MODES
        }

    def restart() -> dict:
        return {
            (cls.name, mode): _restart_each_cut(
                cls(scale=scale, seed=seed), gpu=gpu, seed=seed, fracs=fracs,
                incremental=mode == "incremental",
            ).digest
            for cls in classes for mode in RESTART_MODES
        }

    def sanitize() -> dict:
        hazards = {}
        for cls in app_classes(sanitize_apps):
            san = Sanitizer()
            run_app(
                cls(scale=scale, seed=seed), machine, mode="crac",
                noise=False, sanitizer=san,
            )
            hazards[cls.name] = len(san.hazards)
        return hazards

    return {"capture": capture, "restart": restart, "sanitize": sanitize}


def run_perf_bench(
    *, capture_apps: list[str], sanitize_apps: list[str], scale: float,
    cuts: int, gpu: str, seed: int, python: str,
) -> dict:
    """Run every scenario warm, count it, and check it; returns the
    suite result. On an interpreter other than ``python`` nothing runs
    and the interpreter check fails."""
    interpreter = check(
        f"interpreter is Python {python}", PYTHON == python,
        f"running {PYTHON}; the recorded counts are for {python}",
    )
    if not interpreter["ok"]:
        return {"metrics": {}, "checks": [interpreter]}
    scenarios = _scenarios(
        capture_apps=capture_apps, sanitize_apps=sanitize_apps, scale=scale,
        cuts=cuts, gpu=gpu, seed=seed,
    )
    outcome: dict = {}
    counts: dict[str, Counter] = {}
    for name, scenario in scenarios.items():
        scenario()  # warm: the lower-half template and cached images exist
        outcome[name], counts[name] = count_calls(scenario)
    metrics: dict = {}
    for name in SCENARIOS:
        metrics[f"calls.{name}"] = sum(counts[name].values())
        metrics.update(
            (f"calls.{name}.{layer}", counts[name][layer]) for layer in LAYERS
        )
    reference = {
        cls.name: run_app(
            cls(scale=scale, seed=seed), Machine(gpu=gpu, seed=seed),
            mode="crac", noise=False,
        ).digest
        for cls in app_classes(capture_apps)
    }

    def digests_equal(name: str) -> dict:
        runs = outcome[name]
        differ = sorted(
            f"{app}/{mode}" for (app, mode), digest in runs.items()
            if digest != reference[app]
        )
        return check(
            f"{name} digests equal the uncheckpointed run", not differ,
            f"{len(runs) - len(differ)} of {len(runs)} run(s) equal"
            + (f"; differ: {', '.join(differ)}" if differ else ""),
        )

    hazards = sum(outcome["sanitize"].values())
    checks = [
        interpreter,
        digests_equal("capture"),
        digests_equal("restart"),
        check("sanitized runs hazard-free", hazards == 0,
              f"{hazards} hazard(s)"),
    ]
    return {
        "metrics": metrics,
        "checks": checks,
        "hazards": outcome["sanitize"],
    }


SUITE = Suite(
    run=run_perf_bench,
    config={
        "capture_apps": ["Gaussian", "Kmeans", "HPGMG-FV"],
        "sanitize_apps": ["Gaussian", "Kmeans"],
        "scale": 1.0,
        "cuts": 4,
        "gpu": "V100",
        "seed": 0,
        "python": "3.11",
    },
    exact=tuple(
        f"calls.{scenario}.{layer}"
        for scenario in SCENARIOS for layer in LAYERS
    ),
)
