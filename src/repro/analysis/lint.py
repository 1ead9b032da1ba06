"""Pass 3 — per-line determinism lint.

Three rules, each tied to a replay/checkpoint invariant of the model:

- ``lint/nondeterminism`` — calls into the global ``random`` module,
  wall clocks (``time.time``/``perf_counter``/...), the ``datetime.now``
  family, or legacy ``numpy.random`` globals (classified by
  :func:`~repro.analysis.bindings.nondet_source`). Replay determinism
  (§3.2.4) requires every random draw to come from a *named* seeded
  stream (``random.Random(seed)`` / ``np.random.default_rng(seed)``),
  and virtual time forbids reading wall clocks anywhere in the model.
- ``lint/raw-raise`` — ``raise ValueError/RuntimeError/IndexError`` in
  CUDA call paths (``repro/cuda/``, ``repro/gpu/``). Runtime failures
  must go through the ``cuda_error``/``cuda_check`` taxonomy so the
  fault domain can classify them (retryable/sticky/fatal/program).
- ``lint/dict-iteration`` — iterating ``.items()``/``.values()``/
  ``.keys()`` without ``sorted(...)`` inside checkpoint *capture and
  restore* functions (``core/plugin.py``, ``dmtcp/``, ``spec/``): image
  content must not depend on dict insertion order, or two identical
  runs produce different checksums — and the restore side must apply
  state in an order that cannot depend on how a dict happened to be
  built.

Calls are matched after import aliases are resolved (``from time import
time as now``, ``import numpy.random as npr``), so renaming a
nondeterministic source does not evade the rule. The pass also reports
the index's ``lint/syntax`` findings, and it reads the deliberate-
violation libraries the other passes leave out
(:data:`~repro.analysis.astutil.LINT_ONLY_PARTS`).

Suppress a finding by appending ``# lint: allow`` to the line.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.astutil import ModuleInfo, PackageIndex, attr_chain
from repro.analysis.bindings import nondet_source
from repro.analysis.findings import Finding

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


class _Visitor(ast.NodeVisitor):
    def __init__(self, mod: ModuleInfo) -> None:
        self.mod = mod
        self.findings: list[Finding] = []
        self._fn_stack: list[str] = []
        self.in_cuda_path = any(p in mod.rel for p in CUDA_PATH_PARTS)
        self.in_capture_module = any(p in mod.rel for p in CAPTURE_PATH_PARTS)

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if not self.mod.suppressed(node):
            self.findings.append(
                Finding("lint", f"lint/{rule}", self.mod.rel, node.lineno, message)
            )

    # -- structure -----------------------------------------------------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._fn_stack.append(node.name)
        self.generic_visit(node)
        self._fn_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- rule: nondeterminism -------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        source = nondet_source(self.mod.bindings.resolve(chain))
        if source is not None:
            what, remedy = source
            self._add(
                "nondeterminism", node,
                f"{what} (written {'.'.join(chain)!r}) — {remedy}",
            )
        self.generic_visit(node)

    # -- rule: raw-raise ------------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        if self.in_cuda_path and node.exc is not None:
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id in RAW_RAISE_TYPES:
                self._add(
                    "raw-raise", node,
                    f"raise {exc.id} in a CUDA call path — use the "
                    "cuda_error/cuda_check taxonomy so the fault domain "
                    "can classify it",
                )
        self.generic_visit(node)

    # -- rule: dict-iteration --------------------------------------------------

    def _check_iter(self, node: ast.AST, it: ast.AST) -> None:
        if (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Attribute)
            and it.func.attr in ("items", "values", "keys")
            and self.in_capture_module
            and any(CAPTURE_FN_RE.search(name) for name in self._fn_stack)
        ):
            self._add(
                "dict-iteration", node,
                f"iterating .{it.func.attr}() in a checkpoint capture path "
                "depends on dict insertion order — wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node, node.iter)
        self.generic_visit(node)

    def _visit_comp(self, node) -> None:
        for gen in node.generators:
            self._check_iter(node, gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comp  # type: ignore[assignment]
    visit_SetComp = _visit_comp  # type: ignore[assignment]
    visit_DictComp = _visit_comp  # type: ignore[assignment]
    visit_GeneratorExp = _visit_comp  # type: ignore[assignment]


def analyze(index: PackageIndex) -> list[Finding]:
    """Run the lint rules over every parsed module, the lint-only ones
    included, after the index's syntax findings."""
    findings = list(index.syntax_errors)
    for mod in (*index.modules.values(), *index.lint_only.values()):
        visitor = _Visitor(mod)
        visitor.visit(mod.tree)
        findings.extend(visitor.findings)
    return findings
