"""``BENCHMARK.json`` keeps to its format and matches the benchmark."""

import json
import re

from bench.run import ROOT
from bench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def load():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    return json.loads(raw)


def test_shape():
    spec = load()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(c, str) and len(c) <= 200 for c in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for path in spec["paths"]:
        assert PATH.match(path) and not path.startswith("/") and ".." not in path.split("/")
        assert (ROOT / path).is_dir()
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
        names.append(w["name"])
    assert 2 <= len(spec["workloads"]) <= 8
    assert names == list(WORKLOADS)
    for key, fields, limit in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 16),
        ("per_layer", {"name", "unit", "better"}, 128),
    ):
        assert 1 <= len(spec[key]) <= limit
        for m in spec[key]:
            assert set(m) == fields
            assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
            names.append(m["name"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))


def test_bounds_and_setup_metric():
    e2e = {m["name"]: m for m in load()["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    setup = e2e["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e.values())
