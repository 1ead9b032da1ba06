"""``repro bench SUITE``: one check engine for every bench suite.

A suite runs its cells at one fixed configuration — the CI smoke
config at seed 0, which is also the configuration its baseline was
recorded at — and returns ``{"metrics": {name: number}, "checks":
[{"name", "ok", "detail"}], ...}``. Anything else it returns (per-app
rows, cells) goes into the JSON report untouched; a ``"files"`` entry
maps extra artifact names to JSON payloads written next to the report.

The engine adds the baseline checks from the versioned
:data:`BASELINE_PATH`: the suite's entry must exist and record the
run's exact config, and each of the suite's :class:`Gate` metrics must
keep its ratio to the recorded value within the gate's limit. The
suite passes only if every check passes. ``--update-baseline`` records
the run's config and gated metrics as the suite's entry instead.

Performance at paper scale is measured by ``bench/`` (see
``BENCHMARK.json``); these suites gate correctness claims — a restored
process is byte-identical (paper §3) — and the stall, overhead and
latency claims recorded in the baseline.
"""

from __future__ import annotations

import importlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

#: suite name -> module that defines its ``SUITE``. Imported on demand,
#: so one suite never loads another's layers and importing the harness
#: package loads no suite.
SUITES = {
    "ckpt": "repro.harness.ckpt_bench",
    "perf": "repro.harness.perf_bench",
    "faults": "repro.harness.fault_tolerance",
    "migrate": "repro.harness.migrate_bench",
    "serve": "repro.harness.serve_bench",
    "sanitize": "repro.sanitizer.gate",
    "trace": "repro.harness.trace_bench",
}

#: The committed baseline every suite is gated against (cwd-relative:
#: CI runs from the repository root).
BASELINE_PATH = "benchmarks/BASELINE.json"
BASELINE_VERSION = 1


@dataclass(frozen=True)
class Gate:
    """One baseline rule: ``ratio <= limit``.

    The ratio is ``(current + floor) / (baseline + floor)`` for a
    metric where lower is better and its inverse where higher is
    better. ``floor`` is in the metric's own unit; it damps the ratio
    of a metric near zero so noise the size of the floor cannot trip
    the gate.
    """

    metric: str
    better: str  # "lower" | "higher"
    limit: float
    floor: float = 0.0

    def ratio(self, current: float, baseline: float) -> float:
        """The damped ratio, > 1 when ``current`` is worse."""
        num, den = current + self.floor, baseline + self.floor
        if self.better == "higher":
            num, den = den, num
        if den <= 0:
            return 1.0 if num <= 0 else math.inf
        return num / den


@dataclass(frozen=True)
class Suite:
    """A suite's run function, its fixed config and its baseline gates."""

    run: Callable[..., dict]
    config: dict
    gates: tuple[Gate, ...] = ()


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
    gates = load_suite(name).gates
    return {
        "config": report["config"],
        "metrics": {g.metric: report["metrics"][g.metric] for g in gates},
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
    for gate in load_suite(name).gates:
        current = report["metrics"][gate.metric]
        prior = entry["metrics"].get(gate.metric)
        if prior is None:
            checks.append(check(
                f"{gate.metric} vs baseline", False, "no recorded value",
            ))
            continue
        ratio = gate.ratio(current, prior)
        checks.append(check(
            f"{gate.metric} vs baseline",
            ratio <= gate.limit,
            f"{current:.4g} vs {prior:.4g}: ratio {ratio:.3f} "
            f"({gate.better} is better, floor {gate.floor:g}, "
            f"limit {gate.limit:g})",
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
    if update_baseline:
        baseline["version"] = BASELINE_VERSION
        baseline.setdefault("suites", {})[name] = baseline_entry(name, report)
        write_json(BASELINE_PATH, baseline)
    else:
        report["checks"] = report["checks"] + baseline_checks(
            name, report, baseline
        )
    report["ok"] = all(c["ok"] for c in report["checks"])
    return report


def write_report(report: dict, path: str) -> list[str]:
    """Write the report to ``path`` and its ``files`` next to it;
    returns every path written."""
    report = dict(report)
    files = report.pop("files", {})
    write_json(path, report)
    written = [path]
    for fname, payload in files.items():
        written.append(os.path.join(os.path.dirname(path), fname))
        write_json(written[-1], payload)
    return written


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
