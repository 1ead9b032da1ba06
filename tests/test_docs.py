"""Every ``*.py`` file the top-level documents name in backticks exists."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PY_FILES = [p.relative_to(REPO).as_posix() for p in REPO.rglob("*.py")]


@pytest.mark.parametrize(
    "doc", ["README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md"]
)
def test_every_named_py_file_exists(doc):
    # `core/plugin.py`, `cli.py:512` and `tests/x.py::test_y` all name a
    # file; a bare name matches it in any directory.
    named = set(re.findall(r"`([\w./-]+\.py)(?::[^`]*)?`",
                           (REPO / doc).read_text()))
    missing = sorted(
        name for name in named
        if not any(p == name or p.endswith("/" + name) for p in PY_FILES)
    )
    assert missing == []
