"""Compare benchmark runs of a parent commit and of a change.

    python3 bench/compare.py --parent p0.json p1.json ... --change c0.json c1.json ...

Each file is a report written by ``bench/run.py --out``; the i-th parent
file and the i-th change file form a pair (run them alternately, parent
first in half of the pairs). For every workload and end-to-end metric of
``BENCHMARK.json`` the verdict is:

``gain``
    with at least 10 pairs, the change is better in at least 9/10 of them
    (ties count for neither) and the medians differ by more than the
    parent's IQR;
``regression``
    the change's median is worse than the parent's by more than the
    metric's bound (a share of the parent's median);
``unresolved``
    the parent's own spread (IQR over median) exceeds the bound, so no
    verdict is possible, unless every change run beats every parent run;
``same``
    none of the above.

A gain does not count when the change fails more operations than the
parent. One row is printed per workload, then each side's median and
quartiles per metric. Exits 1 if any metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))

from bench.stats import quartiles  # noqa: E402

#: fewest pairs a gain may be claimed on
MIN_PAIRS = 10
#: share of pairs the change must win to claim a gain
WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float) -> dict:
    """The verdict for one (workload, metric) pair (module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    delta = sign * (cm - pm)  # > 0: the change is better
    iqr = p3 - p1
    spread = iqr / abs(pm) if pm else float("inf")
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs and delta > iqr:
        kind = "gain"
    elif -delta > bound * abs(pm):
        kind = "regression"
    elif spread > bound and not dominates:
        kind = "unresolved"
    else:
        kind = "same"
    return {
        "verdict": kind,
        "delta_pct": (cm - pm) / abs(pm) * 100.0 if pm else 0.0,
        "wins": wins,
        "pairs": pairs,
        "parent": (p1, pm, p3),
        "change": (c1, cm, c3),
        "spread": spread,
    }


def collect(paths: list[str]) -> dict[str, dict]:
    """workload → {"metrics": {name: [values]}, "failed": int} over files."""
    out: dict[str, dict] = {}
    for path in paths:
        with open(path) as fh:
            report = json.load(fh)
        for name, w in report["workloads"].items():
            entry = out.setdefault(name, {"metrics": {}, "failed": 0})
            entry["failed"] += w["failed"]
            for metric, m in w["metrics"].items():
                entry["metrics"].setdefault(metric, []).append(m["value"])
    return out


def compare(parent: dict[str, dict], change: dict[str, dict], spec: dict) -> dict:
    """Verdicts per workload and end-to-end metric."""
    rows = {}
    for name in sorted(set(parent) & set(change)):
        cells = {}
        more_failures = change[name]["failed"] > parent[name]["failed"]
        for m in spec["end_to_end"]:
            p = parent[name]["metrics"].get(m["name"])
            c = change[name]["metrics"].get(m["name"])
            if not p or not c:
                continue
            cell = verdict(p, c, better=m["better"], bound=m["bound"])
            if cell["verdict"] == "gain" and more_failures:
                cell["verdict"] = "same"
                cell["note"] = "gain void: the change fails more operations"
            cells[m["name"]] = cell
        rows[name] = {"cells": cells, "more_failures": more_failures}
    return rows


def format_rows(rows: dict) -> str:
    """One row per workload, then per-metric medians and quartiles."""
    lines = []
    for name, row in rows.items():
        cells = "  ".join(
            f"{metric}={c['verdict']}({c['delta_pct']:+.2f}%)"
            for metric, c in row["cells"].items()
        )
        flag = "  [change fails more ops]" if row["more_failures"] else ""
        lines.append(f"{name:<14} {cells}{flag}")
    lines.append("")
    for name, row in rows.items():
        for metric, c in row["cells"].items():
            (p1, pm, p3), (c1, cm, c3) = c["parent"], c["change"]
            lines.append(
                f"{name:<14} {metric:<16} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]"
                f"  change {cm:.6g} [{c1:.6g}, {c3:.6g}]"
                f"  wins {c['wins']}/{c['pairs']}  spread {c['spread']:.3%}"
            )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point (module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many parent files as change files (one per pair)")
    if len(args.parent) < MIN_PAIRS:
        print(f"warning: {len(args.parent)} pairs; no gain can be claimed on fewer "
              f"than {MIN_PAIRS}", file=sys.stderr)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(collect(args.parent), collect(args.change), spec)
    print(format_rows(rows))
    regressed = any(
        c["verdict"] == "regression" for row in rows.values() for c in row["cells"].values()
    )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
