"""The model fingerprint: every modeled number of the 20 paper apps,
pinned in ``benchmarks/MODEL_fingerprint.json``.

A change to host-side code paths (how a call is dispatched, logged or
replayed) must move no number of the model: no digest, virtual time,
call count, cut or restart step. The twin-session parity tests compare
a bulk path with a per-call path of the same commit, so a change that
moves both the same way passes them; this test compares against the
numbers recorded at an earlier commit instead.

Per paper app, at ``scale=1.0`` and seed 0, it records the native and
CRAC output digests, virtual runtimes, eq. 1 overhead and eq. 2 CPS,
and, for each checkpoint mode (full, incremental, forked,
speculative), a run cut at three points with a kill and
``restart_latest`` after each cut: the final call counter, hashes of
the final runtime's ``api_log`` and of the replay log's entries, each
cut's ``checkpoint_time_ns`` and image size, and each restart's steps.
A run that fails (``CublasMicro`` after a restart) records its typed
error instead of a digest. Every virtual time it records is an ``int``
count of ns: a float that creeps into a charge fails the test here.

A change that moves the model on purpose re-records the file in a
commit of its own::

    PYTHONPATH=src python -m tests.harness.test_model_fingerprint
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.apps import (
    CublasMicro,
    Hpgmg,
    Hypre,
    Lulesh,
    SimpleStreams,
    UnifiedMemoryStreams,
)
from repro.apps.base import AppContext
from repro.apps.rodinia import RODINIA_SUITE
from repro.core.halves import SplitProcess
from repro.core.session import CracSession
from repro.cuda.interface import NativeBackend
from repro.dmtcp.store import CheckpointStore
from repro.harness.metrics import cps, overhead_pct

FINGERPRINT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "MODEL_fingerprint.json"
)
APPS = tuple(RODINIA_SUITE) + (
    SimpleStreams, UnifiedMemoryStreams, Lulesh, Hpgmg, Hypre, CublasMicro,
)
MODES = ("full", "incremental", "forked", "speculative")
RESTART_STEPS = ("bootstrap_ns", "replay_ns", "fatbin_ns", "refill_ns", "adopt_ns")


def _digest(items) -> str:
    """A short stable hash of ``items``' repr."""
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _native(cls) -> tuple[dict, int]:
    """The native run's record and its checkpoint-callback count."""
    split = SplitProcess(gpu="V100", seed=0)
    backend = NativeBackend(split.runtime)
    callbacks: list[float] = []
    ctx = AppContext(
        backend=backend, upper_mmap=split.upper_mmap,
        checkpoint_cb=callbacks.append,
    )
    result = cls(scale=1.0, seed=0).run(ctx)
    return {"digest": result.digest, "virt_ns": split.process.clock_ns}, len(callbacks)


def _crac(cls, mode: str | None, cuts: frozenset[int]) -> dict:
    """One CRAC run, cut at callback indices ``cuts`` in ``mode`` with a
    kill and ``restart_latest`` after each cut (none for ``mode=None``)."""
    session = CracSession(gpu="V100", seed=0)
    store = CheckpointStore()
    images: list = []
    restarts: list = []
    index = 0

    def on_progress(_progress: float) -> None:
        nonlocal index
        index += 1
        if index - 1 not in cuts:
            return
        if mode == "incremental" and images:
            image = session.checkpoint(
                store=store, incremental=True, parent=images[-1]
            )
        else:
            image = session.checkpoint(
                store=store, forked=mode == "forked",
                speculative=mode == "speculative",
            )
        images.append(image)
        session.kill()
        restarts.append(session.restart_latest(store))

    ctx = AppContext(
        backend=session.backend,
        upper_mmap=lambda size: session.split.upper_mmap(size),
        checkpoint_cb=on_progress if cuts else None,
    )
    out: dict = {}
    try:
        result = cls(scale=1.0, seed=0).run(ctx)
        session.finish_forked_checkpoints()
        out["digest"] = result.digest
    except Exception as exc:  # recorded, typed
        code = getattr(exc, "code", None)
        out["error"] = code.name if code is not None else type(exc).__name__
    backend = session.backend
    out["virt_ns"] = session.process.clock_ns
    out["call_counter"] = dict(sorted(backend.call_counter.items()))
    out["total_calls"] = backend.total_calls
    if mode is not None:
        out["api_log"] = _digest(sorted(session.runtime.api_log.items()))
        out["replay_log"] = _digest(
            [tuple(e) for e in backend.log.entries]
        )
        out["cuts"] = [
            [image.checkpoint_time_ns, image.size_bytes] for image in images
        ]
        out["restarts"] = [
            [r.restart_time_ns, r.replayed_calls]
            + [getattr(r, step) for step in RESTART_STEPS]
            for r in restarts
        ]
    return out


def compute() -> dict:
    """The fingerprint of every paper app (module docstring)."""
    out = {}
    for cls in APPS:
        native, callbacks = _native(cls)
        crac = _crac(cls, None, frozenset())
        app = {"native": native, "crac": crac}
        if "digest" in crac:
            app["eq1_overhead_pct"] = overhead_pct(crac["virt_ns"], native["virt_ns"])
            app["eq2_cps"] = cps(crac["total_calls"], crac["virt_ns"] / 1e9)
        cuts = frozenset({0, callbacks // 2, callbacks - 1}) if callbacks else frozenset()
        for mode in MODES:
            app[mode] = _crac(cls, mode, cuts)
        out[cls.__name__] = app
    return out


def render(fingerprint: dict) -> str:
    """The file's exact text."""
    return json.dumps(fingerprint, indent=1, sort_keys=True) + "\n"


def _virtual_times(app: dict):
    """Every virtual time one app's record holds."""
    for run in app.values():
        if not isinstance(run, dict):
            continue  # eq. 1/2: ratios, not times
        yield run["virt_ns"]
        for cut in run.get("cuts", ()):
            yield cut[0]
        for restart in run.get("restarts", ()):
            yield restart[0]
            yield from restart[2:]


def test_model_fingerprint_is_unchanged():
    fingerprint = compute()
    floats = sorted(
        app for app, record in fingerprint.items()
        if any(type(t) is not int for t in _virtual_times(record))
    )
    assert not floats, f"virtual times that are not whole ns: {floats}"
    got = render(fingerprint)
    want = FINGERPRINT.read_text()
    if got != want:
        g, w = json.loads(got), json.loads(want)
        moved = sorted(
            f"{app}.{key}"
            for app in w
            for key in w[app]
            if g.get(app, {}).get(key) != w[app][key]
        )
        raise AssertionError(f"modeled numbers moved: {moved}")


if __name__ == "__main__":
    FINGERPRINT.write_text(render(compute()))
    print(f"wrote {FINGERPRINT}")
