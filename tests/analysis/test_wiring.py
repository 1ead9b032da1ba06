"""Wiring-pass coverage: the inventory must see every live cuda* API."""

import inspect

from repro.analysis.findings import RULE_CODES, Finding
from repro.cuda.api import CudaRuntime
from repro.cuda.errors import CudaErrorCode, classify


def runtime_api_names():
    """Every public ``cuda*`` method the runtime actually exposes."""
    return {
        name
        for name, member in inspect.getmembers(
            CudaRuntime, predicate=inspect.isfunction
        )
        if name.startswith("cuda")
    }


def test_inventory_covers_every_runtime_api(package_report):
    # Completeness: the static extractor and the live class must agree,
    # or the wiring pass is silently skipping trampoline methods.
    seen = {record["name"] for record in package_report["inventory"]}
    missing = runtime_api_names() - seen
    assert not missing, f"wiring pass missed runtime APIs: {sorted(missing)}"


def test_inventory_records_are_well_formed(package_report):
    for record in package_report["inventory"]:
        assert record["name"].startswith("cuda")
        assert isinstance(record["entries"], list)
        assert isinstance(record["dispatched"], bool)
        assert record["call_sites"] >= 0


def test_every_rule_routes_through_the_error_taxonomy():
    # Severity is derived, never free-form: each rule maps to a
    # CudaErrorCode and classify() decides how bad it is.
    for rule, code in RULE_CODES.items():
        assert isinstance(code, CudaErrorCode)
        f = Finding("wiring", rule, "repro/x.py", 1, "m")
        assert f.severity is classify(code)


def test_unknown_rule_defaults_to_program_severity():
    f = Finding("wiring", "wiring/not-a-rule", "repro/x.py", 1, "m")
    assert f.code is CudaErrorCode.INVALID_VALUE
