"""The benchmark reaches ``repro`` only through ``bench/sut.py``."""

import ast
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def _imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield node.module, alias.name


def _is_repro(module):
    return module == "repro" or module.startswith("repro.")


def test_only_the_adapter_imports_repro():
    offenders = [
        f"{path.relative_to(BENCH)}: {module}"
        for path in sorted(BENCH.rglob("*.py"))
        if path.name != "sut.py"
        for module, _ in _imports(path)
        if _is_repro(module)
    ]
    assert not offenders


def test_adapter_avoids_cli_and_harness_except_faultspec():
    imported = [(m, n) for m, n in _imports(BENCH / "sut.py") if _is_repro(m)]
    assert imported
    for module, name in imported:
        assert not module.startswith("repro.cli")
        if module.startswith("repro.harness"):
            assert (module, name) == ("repro.harness.fault_injection", "FaultSpec")
