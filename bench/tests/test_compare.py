"""The comparison rule: gain, regression, unresolved, same."""

import json

from bench.compare import compare, collect, main, verdict


def test_gain_needs_nine_in_ten_wins_and_a_median_shift_beyond_the_iqr():
    parent = [100.0 + i for i in range(10)]
    change = [p + 20.0 for p in parent]
    assert verdict(parent, change, better="higher", bound=0.1)["verdict"] == "gain"
    # Same shift, but only 8 of 10 pairs won: no gain claim.
    mixed = change[:8] + [parent[8] - 1.0, parent[9] - 1.0]
    assert verdict(parent, mixed, better="higher", bound=0.1)["verdict"] != "gain"
    # Every pair won, but too few pairs to claim anything.
    assert verdict(parent[:3], change[:3], better="higher", bound=0.1)["verdict"] == "same"


def test_regression_beyond_the_bound():
    parent = [10.0] * 10
    assert verdict(parent, [11.5] * 10, better="lower", bound=0.1)["verdict"] == "regression"
    assert verdict(parent, [10.5] * 10, better="lower", bound=0.1)["verdict"] == "same"


def test_unresolved_when_the_parent_spread_exceeds_the_bound():
    parent = [5.0, 15.0] * 5
    change = [6.0, 14.0] * 5
    assert verdict(parent, change, better="lower", bound=0.1)["verdict"] == "unresolved"


def test_gain_void_when_the_change_fails_more_operations(tmp_path):
    spec = {"end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1}]}

    def report(value, failed):
        return {"workloads": {"w": {"failed": failed, "metrics": {"setup_s": {"value": value}}}}}

    parent = [report(10.0 + i * 0.01, 0) for i in range(10)]
    change = [report(5.0, 1) for _ in range(10)]
    paths = []
    for i, r in enumerate(parent + change):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(r))
        paths.append(str(path))
    rows = compare(collect(paths[:10]), collect(paths[10:]), spec)
    assert rows["w"]["cells"]["setup_s"]["verdict"] == "same"
    assert rows["w"]["more_failures"]
    # main() compares against the repository's BENCHMARK.json
    assert main(["--parent", *paths[:10], "--change", *paths[10:]]) == 0
    assert main(["--parent", *paths[10:], "--change", *paths[:10]]) == 1
