"""Static checkpoint-determinism lint (AST pass, no imports executed).

Three rules, each tied to a replay/checkpoint invariant of the model:

- ``nondeterminism`` — calls into the global ``random`` module, wall
  clocks (``time.time``/``perf_counter``/...), ``datetime.now`` family,
  or legacy ``numpy.random`` globals. Replay determinism (§3.2.4)
  requires every random draw to come from a *named* seeded stream
  (``random.Random(seed)`` / ``np.random.default_rng(seed)``), and
  virtual time forbids reading wall clocks anywhere in the model.
- ``raw-raise`` — ``raise ValueError/RuntimeError/IndexError`` in CUDA
  call paths (``repro/cuda/``, ``repro/gpu/``). Runtime failures must go
  through the ``cuda_error``/``cuda_check`` taxonomy so the fault
  domain can classify them (retryable/sticky/fatal/program).
- ``dict-iteration`` — iterating ``.items()``/``.values()``/``.keys()``
  without ``sorted(...)`` inside checkpoint *capture and restore*
  functions (``core/plugin.py``, ``dmtcp/``): image content must not
  depend on dict insertion order, or two identical runs produce
  different checksums — and the restore side must apply state in an
  order that cannot depend on how a dict happened to be built.

Aliased imports are resolved before matching (``from time import time
as now``, ``import numpy.random as npr``), so renaming a
nondeterministic source does not evade the rule.

Suppress a finding by appending ``# lint: allow`` to the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from repro.analysis.bindings import ImportBindings

SUPPRESS_MARK = "lint: allow"

RAW_RAISE_TYPES = {"ValueError", "RuntimeError", "IndexError"}
#: path fragments (posix style) marking CUDA call-path modules
CUDA_PATH_PARTS = ("repro/cuda/", "repro/gpu/")

#: path fragments marking checkpoint capture/restore modules (the
#: speculative handle table snapshots/restores versions, so it is held
#: to the same deterministic-iteration rules)
CAPTURE_PATH_PARTS = ("repro/core/plugin.py", "repro/dmtcp/", "repro/spec/")
#: function names treated as capture *or restore* paths within those
#: modules — the read side is linted too: restore must not apply state
#: in dict-insertion order
CAPTURE_FN_RE = re.compile(
    r"precheckpoint|capture|snapshot|checksum|serialize|save|dump|commit"
    r"|restore|load|rehydrate|import_",
    re.IGNORECASE,
)

NONDET_TIME_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "clock_gettime", "process_time",
}
NONDET_DATETIME_FNS = {"now", "utcnow", "today"}
NONDET_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "betavariate", "expovariate", "choice", "choices", "shuffle", "sample",
    "seed", "getrandbits", "triangular", "vonmisesvariate", "paretovariate",
}
NONDET_NP_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "seed", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
}


@dataclass(frozen=True)
class LintFinding:
    """One static finding."""

    rule: str  # "nondeterminism" | "raw-raise" | "dict-iteration"
    path: str  # repo-relative posix path
    line: int
    message: str

    def describe(self) -> str:
        """``path:line: [rule] message`` (compiler-style) rendering."""
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; [] if not a plain name chain."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class _Visitor(ast.NodeVisitor):
    def __init__(
        self,
        rel_path: str,
        lines: list[str],
        bindings: ImportBindings | None = None,
    ) -> None:
        self.rel_path = rel_path
        self.lines = lines
        self.bindings = bindings if bindings is not None else ImportBindings()
        self.findings: list[LintFinding] = []
        self._fn_stack: list[str] = []
        self.in_cuda_path = any(p in rel_path for p in CUDA_PATH_PARTS)
        self.in_capture_module = any(
            p in rel_path for p in CAPTURE_PATH_PARTS
        )

    # -- helpers -------------------------------------------------------------

    def _suppressed(self, node: ast.AST) -> bool:
        line = node.lineno - 1
        return (
            0 <= line < len(self.lines)
            and SUPPRESS_MARK in self.lines[line]
        )

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if self._suppressed(node):
            return
        self.findings.append(
            LintFinding(rule, self.rel_path, node.lineno, message)
        )

    def _in_capture_fn(self) -> bool:
        return self.in_capture_module and any(
            CAPTURE_FN_RE.search(name) for name in self._fn_stack
        )

    # -- structure -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- rule: nondeterminism -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if chain:
            self._check_nondet_call(node, chain)
        self.generic_visit(node)

    def _check_nondet_call(self, node: ast.Call, chain: list[str]) -> None:
        # Resolve import aliases first: `from time import time as now`
        # and `import numpy.random as npr` must match like the literal
        # dotted forms do.
        spelled = ".".join(chain)
        chain = self.bindings.resolve(chain)
        head, tail = chain[0], chain[-1]
        if head == "random" and len(chain) == 2 and tail in NONDET_RANDOM_FNS:
            self._add(
                "nondeterminism", node,
                f"global random.{tail}() (written {spelled!r}) — draw from "
                "a named seeded stream (random.Random(seed)) instead",
            )
        elif head == "time" and len(chain) == 2 and tail in NONDET_TIME_FNS:
            self._add(
                "nondeterminism", node,
                f"wall clock time.{tail}() (written {spelled!r}) — the "
                "model runs on virtual time only",
            )
        elif tail in NONDET_DATETIME_FNS and len(chain) >= 2 and chain[-2] in (
            "datetime", "date",
        ):
            self._add(
                "nondeterminism", node,
                f"wall clock {'.'.join(chain)}() — nondeterministic "
                "across runs",
            )
        elif (
            len(chain) == 3
            and head in ("np", "numpy")
            and chain[1] == "random"
            and tail in NONDET_NP_RANDOM_FNS
        ):
            self._add(
                "nondeterminism", node,
                f"legacy {'.'.join(chain)}() global (written {spelled!r}) "
                "— use np.random.default_rng(seed)",
            )

    # -- rule: raw-raise ------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        if self.in_cuda_path and node.exc is not None:
            exc = node.exc
            name = None
            if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
                name = exc.func.id
            elif isinstance(exc, ast.Name):
                name = exc.id
            if name in RAW_RAISE_TYPES:
                self._add(
                    "raw-raise", node,
                    f"raise {name} in a CUDA call path — use the "
                    "cuda_error/cuda_check taxonomy so the fault domain "
                    "can classify it",
                )
        self.generic_visit(node)

    # -- rule: dict-iteration --------------------------------------------------

    def _is_dict_iter(self, it: ast.AST) -> str | None:
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("items", "values", "keys")
        ):
            return it.func.attr
        return None

    def _check_iter_node(self, node: ast.AST, it: ast.AST) -> None:
        if not self._in_capture_fn():
            return
        attr = self._is_dict_iter(it)
        if attr is not None:
            self._add(
                "dict-iteration", node,
                f"iterating .{attr}() in a checkpoint capture path "
                "depends on dict insertion order — wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter_node(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter_node(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp  # type: ignore[assignment]
    visit_SetComp = _visit_comp  # type: ignore[assignment]
    visit_DictComp = _visit_comp  # type: ignore[assignment]
    visit_GeneratorExp = _visit_comp  # type: ignore[assignment]


def lint_source(source: str, rel_path: str) -> list[LintFinding]:
    """Lint in-memory source (also the ``repro.analysis`` entry point,
    which runs the same rules over planted corpus trees)."""
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as exc:
        return [LintFinding("syntax", rel_path, exc.lineno or 0, str(exc.msg))]
    visitor = _Visitor(
        rel_path, source.splitlines(), ImportBindings.collect(tree)
    )
    visitor.visit(tree)
    return visitor.findings


def lint_file(path: str | Path, *, rel_to: Path | None = None) -> list[LintFinding]:
    """Lint one Python source file."""
    path = Path(path)
    rel = (
        path.relative_to(rel_to).as_posix()
        if rel_to is not None
        else path.as_posix()
    )
    return lint_source(path.read_text(), rel)


def lint_paths(
    paths: Iterable[str | Path], *, rel_to: Path | None = None
) -> list[LintFinding]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    findings: list[LintFinding] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            findings.extend(lint_file(f, rel_to=rel_to))
    return sorted(findings, key=lambda f: (f.path, f.line))


def lint_package(root: str | Path | None = None) -> list[LintFinding]:
    """Lint ``src/repro/`` (including ``apps/``) — the CI gate's scope."""
    pkg = Path(root) if root is not None else Path(__file__).resolve().parents[1]
    return lint_paths([pkg], rel_to=pkg.parent)


def format_findings(findings: list[LintFinding]) -> str:
    """Multi-line human-readable lint report (CLI output)."""
    if not findings:
        return "lint: clean"
    lines = [f"lint: {len(findings)} finding(s)"]
    lines += ["  " + f.describe() for f in findings]
    return "\n".join(lines)
