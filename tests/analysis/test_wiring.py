"""Wiring-pass coverage: the inventory must see every live cuda* API,
and the CRAC plugin is the only module that reads the blobs it writes."""

import ast
import inspect
from pathlib import Path

import repro
from repro.analysis.astutil import PackageIndex, call_name, str_constants
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


def test_plugin_is_the_only_reader_of_its_blobs():
    # The checkpoint and restart sides of the crac/* image format live in
    # one module: every key core/plugin.py writes with add_blob is read
    # (.blob/.get) nowhere else in the package.
    index = PackageIndex.from_dir(Path(repro.__file__).parent)
    plugin = index.find("core/plugin.py")
    written = {
        s
        for node in ast.walk(plugin.tree)
        if isinstance(node, ast.Call) and call_name(node) == "add_blob"
        for s in str_constants(node.args[0])
    }
    assert written >= {"crac/buffers", "crac/replay-log", "crac/platform"}
    readers: dict[str, set[str]] = {}
    for rel, mod in index.modules.items():
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and call_name(node) in ("blob", "get")
                and node.args
            ):
                for s in str_constants(node.args[0]):
                    if s in written:
                        readers.setdefault(s, set()).add(rel)
    assert readers.keys() == written, sorted(written - readers.keys())
    elsewhere = {
        key: sorted(mods - {"repro/core/plugin.py"})
        for key, mods in readers.items()
        if mods != {"repro/core/plugin.py"}
    }
    assert not elsewhere, elsewhere
