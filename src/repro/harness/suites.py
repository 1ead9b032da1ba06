"""``repro bench SUITE``: one check engine for the bench suites.

A suite runs its cells at one fixed configuration — the CI smoke
config at seed 0, which is also the configuration its baseline was
recorded at — and returns ``{"metrics": {name: number}, "checks":
[{"name", "ok", "detail"}], ...}``. Anything else it returns (per-app
rows, cells) goes into the JSON report untouched.

The engine adds the baseline checks from the versioned
:data:`BASELINE_PATH`: the suite's entry must exist and record the
run's exact config, and each metric named in the suite's
:attr:`Suite.exact` must be measured and equal its recorded value. The
suite passes only if every check passes. ``--update-baseline`` records
the run's config and those metrics as the suite's entry instead, unless
one of the suite's own checks failed; such a run is gated as usual.

Performance at paper scale is measured by ``bench/`` (see
``BENCHMARK.json``); these suites gate the stall, latency and host-call
claims recorded in the baseline, and the transparency checks — a
restored process is byte-identical (paper §3) — that come with them.
The checks that gate no number are tier-1 tests.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from typing import Callable

#: suite name -> module that defines its ``SUITE``. Imported on demand,
#: so one suite never loads another's layers and importing the harness
#: package loads no suite.
SUITES = {
    "ckpt": "repro.harness.ckpt_bench",
    "perf": "repro.harness.perf_bench",
    "serve": "repro.harness.serve_bench",
}

#: The committed baseline every suite is gated against (cwd-relative:
#: CI runs from the repository root).
BASELINE_PATH = "benchmarks/BASELINE.json"
BASELINE_VERSION = 1


@dataclass(frozen=True)
class Suite:
    """A suite's run function, its fixed config and its gated metrics.

    Each metric in ``exact`` is exact for the seed (virtual time or a
    call count): it must equal its recorded value, and a move in either
    direction fails. A deliberate model change re-records it with
    ``--update-baseline``.
    """

    run: Callable[..., dict]
    config: dict
    exact: tuple[str, ...]


def check(name: str, ok: bool, detail: str) -> dict:
    """One entry of a report's ``checks`` list."""
    return {"name": name, "ok": bool(ok), "detail": detail}


def app_classes(names) -> list[type]:
    """Paper app classes by their ``name`` (e.g. ``"Gaussian"``,
    ``"HPGMG-FV"``): the 14 Rodinia apps and the other six."""
    from repro import apps
    from repro.apps.rodinia import RODINIA_SUITE

    by_name = {
        cls.name: cls
        for cls in (
            *RODINIA_SUITE, apps.SimpleStreams, apps.UnifiedMemoryStreams,
            apps.Lulesh, apps.Hpgmg, apps.Hypre, apps.CublasMicro,
        )
    }
    return [by_name[name] for name in names]


def load_suite(name: str) -> Suite:
    """The :class:`Suite` registered under ``name``."""
    return importlib.import_module(SUITES[name]).SUITE


def baseline_entry(name: str, report: dict) -> dict:
    """What ``--update-baseline`` records for a suite's run."""
    return {
        "config": report["config"],
        "metrics": {m: report["metrics"][m] for m in load_suite(name).exact},
    }


def baseline_checks(name: str, report: dict, baseline: dict) -> list[dict]:
    """Checks of one run against a loaded baseline file.

    A missing entry, a wrong file version or a recorded config that
    differs from the run's fails: the run would otherwise be compared
    against numbers measured on different work.
    """
    entry = None
    if baseline.get("version") == BASELINE_VERSION:
        entry = baseline.get("suites", {}).get(name)
    if entry is None:
        return [check(
            "baseline entry", False,
            f"no v{BASELINE_VERSION} '{name}' entry in {BASELINE_PATH}; "
            "record one with --update-baseline",
        )]
    config = report["config"]
    differs = sorted(
        key for key in config.keys() | entry["config"].keys()
        if config.get(key) != entry["config"].get(key)
    )
    if differs:
        return [check(
            "baseline entry", False,
            f"config differs from the recorded one in {', '.join(differs)}",
        )]
    checks = [check("baseline entry", True, f"config matches {BASELINE_PATH}")]
    exact = load_suite(name).exact
    unmeasured = [m for m in exact if m not in report["metrics"]]
    if unmeasured:
        return checks + [check(
            "gated metrics measured", False,
            f"{len(unmeasured)} of {len(exact)} not measured, "
            f"e.g. {unmeasured[0]}",
        )]
    for metric in exact:
        current = report["metrics"][metric]
        prior = entry["metrics"].get(metric)
        checks.append(check(
            f"{metric} vs baseline", current == prior,
            "no recorded value" if prior is None else
            f"{current!r} vs {prior!r} (exact match: any move fails)",
        ))
    return checks


def load_baseline() -> dict:
    """The baseline file, or an empty one if it does not exist yet."""
    if not os.path.exists(BASELINE_PATH):
        return {"version": BASELINE_VERSION, "suites": {}}
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as sorted, indented JSON."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_suite(name: str, *, update_baseline: bool = False) -> dict:
    """Run one suite at its fixed config and gate it; ``report["ok"]``
    is the verdict."""
    suite = load_suite(name)
    config = json.loads(json.dumps(suite.config))  # as the baseline stores it
    report = {**suite.run(**config), "suite": name, "config": config}
    baseline = load_baseline()
    if update_baseline and all(c["ok"] for c in report["checks"]):
        baseline["version"] = BASELINE_VERSION
        baseline.setdefault("suites", {})[name] = baseline_entry(name, report)
        write_json(BASELINE_PATH, baseline)
    else:
        report["checks"] = report["checks"] + baseline_checks(
            name, report, baseline
        )
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def render(report: dict) -> str:
    """The one human-readable report: checks, then metrics."""
    config = ", ".join(
        f"{k}={_fmt(v)}" for k, v in report.get("config", {}).items()
    )
    lines = [f"bench {report['suite']}" + (f" ({config})" if config else "")]
    lines.append("checks:")
    lines += [
        f"  [{'PASS' if c['ok'] else 'FAIL'}] {c['name']} — {c['detail']}"
        for c in report["checks"]
    ]
    lines.append("metrics:")
    width = max((len(k) for k in report["metrics"]), default=0)
    lines += [
        f"  {k:<{width}}  {_fmt(v)}" for k, v in report["metrics"].items()
    ]
    lines.append(
        f"bench {report['suite']}: {'PASS' if report['ok'] else 'FAIL'}"
    )
    return "\n".join(lines)
