"""Shared AST plumbing: the package index and call-graph reachability.

A :class:`PackageIndex` holds every parsed module of the tree under
analysis, keyed by repo-relative posix path. It can be built from a
directory (the real tree) or from an in-memory ``{relpath: source}``
dict (the planted-violation corpus) — both go through the same passes,
which is what makes the corpus a faithful gate. Each file is parsed
once; a file that does not parse becomes a ``lint/syntax`` finding and
no pass sees it.

The call graph is *name-based*: a call ``self.arena.alloc(...)``
reaches every ``def alloc`` in the package. Deliberately
over-approximate — for "is a sanitizer hook statically reachable from
this API?" an over-approximation can only *hide* a gap behind an
unrelated same-named function, never invent one, which keeps the pass
at zero false positives.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Callable

from repro.analysis.bindings import ImportBindings
from repro.analysis.findings import Finding

#: deliberate-violation libraries (``sanitizer/planted.py`` plants
#: runtime hazards, ``analysis/corpus.py`` static ones): only the lint
#: pass reads them, the wiring and taint passes leave them out
LINT_ONLY_PARTS = ("sanitizer/planted.py", "analysis/corpus.py")

SUPPRESS_MARK = "lint: allow"


@dataclass
class ModuleInfo:
    """One parsed source file."""

    rel: str  # posix relative path, e.g. "repro/cuda/api.py"
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def suppressed(self, node: ast.AST) -> bool:
        """True if the node's source line carries ``# lint: allow``."""
        line = getattr(node, "lineno", 0) - 1
        return 0 <= line < len(self.lines) and SUPPRESS_MARK in self.lines[line]

    @cached_property
    def bindings(self) -> ImportBindings:
        """The module's import bindings, shared by the taint and lint
        passes."""
        return ImportBindings.collect(self.tree)


class PackageIndex:
    """All modules of one tree plus a package-wide function-name map.

    ``modules`` is what every pass reads; ``lint_only`` holds the
    :data:`LINT_ONLY_PARTS` modules; ``syntax_errors`` holds one
    ``lint/syntax`` finding per file that did not parse.
    """

    def __init__(self, sources: dict[str, str]) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.lint_only: dict[str, ModuleInfo] = {}
        self.syntax_errors: list[Finding] = []
        for rel, source in sources.items():
            try:
                tree = ast.parse(source, filename=rel)
            except SyntaxError as exc:
                self.syntax_errors.append(
                    Finding("lint", "lint/syntax", rel, exc.lineno or 0, str(exc.msg))
                )
                continue
            lint_only = any(part in rel for part in LINT_ONLY_PARTS)
            table = self.lint_only if lint_only else self.modules
            table[rel] = ModuleInfo(rel, tree, source.splitlines())
        self._functions: dict[str, list[tuple[ModuleInfo, ast.AST]]] | None = None

    @classmethod
    def from_dir(cls, root: str | Path) -> "PackageIndex":
        """Parse every ``*.py`` under ``root``, keyed relative to its
        parent (``src/repro`` -> ``repro/...``)."""
        root = Path(root)
        return cls(
            {
                path.relative_to(root.parent).as_posix(): path.read_text()
                for path in sorted(root.rglob("*.py"))
            }
        )

    def find(self, *suffixes: str) -> ModuleInfo | None:
        """First module whose path ends with any of ``suffixes``."""
        for suffix in suffixes:
            for rel, mod in self.modules.items():
                if rel.endswith(suffix):
                    return mod
        return None

    def functions(self) -> dict[str, list[tuple[ModuleInfo, ast.AST]]]:
        """Package-wide ``def`` name → [(module, node)] map (cached)."""
        if self._functions is None:
            fns: dict[str, list] = defaultdict(list)
            for mod in self.modules.values():
                for node in ast.walk(mod.tree):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fns[node.name].append((mod, node))
            self._functions = dict(fns)
        return self._functions


def attr_chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ["a", "b", "c"]; [] if not a plain name chain.

    Subscripts are stepped through (``a[0].b`` -> ["a", "b"]) so real
    code like ``self.devices[i].enqueue_copy`` still yields a chain.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        else:
            break
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def call_name(node: ast.Call) -> str | None:
    """Terminal name of a call target (``a.b.c()`` -> "c")."""
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def str_constants(node: ast.AST) -> list[str]:
    """All string literals anywhere under ``node`` (handles IfExp args
    like ``self._entry("cudaMemcpyAsync" if async_ else "cudaMemcpy")``)."""
    return [
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    ]


def called_names(node: ast.AST) -> set[str]:
    """Terminal names of every call under ``node``."""
    names: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Call):
            cn = call_name(n)
            if cn is not None:
                names.add(cn)
    return names


def body_matches(node: ast.AST, predicate: Callable[[ast.AST], bool]) -> bool:
    """True if any descendant satisfies ``predicate``."""
    return any(predicate(n) for n in ast.walk(node))


def reaches(
    index: PackageIndex,
    fn: ast.AST,
    predicate: Callable[[ast.AST], bool],
    *,
    depth: int = 3,
) -> bool:
    """BFS over the name-based call graph: does ``predicate`` hold in
    ``fn``'s body or in any function reachable within ``depth`` calls?"""
    functions = index.functions()
    frontier: list[ast.AST] = [fn]
    seen: set[int] = {id(fn)}
    for _ in range(depth + 1):
        next_frontier: list[ast.AST] = []
        for body in frontier:
            if body_matches(body, predicate):
                return True
            for name in called_names(body):
                for _mod, target in functions.get(name, ()):
                    if id(target) not in seen:
                        seen.add(id(target))
                        next_frontier.append(target)
        if not next_frontier:
            break
        frontier = next_frontier
    return False
