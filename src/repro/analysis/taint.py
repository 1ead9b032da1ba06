"""Pass 2 — replay-determinism dataflow (intra-procedural taint).

The lint pass (:mod:`repro.analysis.lint`) flags nondeterministic
*calls*; this pass tracks where their *values* flow. Replay determinism
(§3.2.4 of the paper) only breaks when a nondeterministic value reaches
something replay compares: kernel arguments, captured blobs, digests.
Four flow rules:

- ``det/nondet-into-kernel`` — wall-clock / RNG value reaches a kernel
  launch argument: the replayed launch computes different bytes.
- ``det/nondet-into-capture`` — such a value reaches ``add_blob`` or a
  digest function: two identical runs produce different checksums.
- ``det/unseeded-rng`` — ``random.Random()`` / ``default_rng()`` with
  no seed argument: OS-entropy seeded, unreplayable by construction.
- ``det/pointer-escape`` — a ``cudaMalloc``-family result stored into a
  module-level container: restart rewrites the runtime's pointer
  registry, but nothing patches module globals, so the stored address
  dangles after restore.

Plus two lifecycle rules that need statement ordering, not taint:

- ``det/use-after-destroy`` — a stream/event handle used after the
  statement that destroyed it.
- ``det/unsynced-launch`` — a kernel launch followed by a checkpoint
  call in the same body with no statically reachable sync between
  them: the cut captures a stream with undrained work.

The walk is flow-ordered per function body and propagates taint
through assignments and expressions; a reassignment from a clean value
clears the name (strong update). Aliased imports are resolved through
:class:`~repro.analysis.bindings.ImportBindings`, so
``from time import time as now`` taints exactly like ``time.time``.
"""

from __future__ import annotations

import ast

from repro.analysis.astutil import PackageIndex, attr_chain, call_name
from repro.analysis.bindings import nondet_source
from repro.analysis.findings import Finding

_LAUNCH_NAMES = {"launch", "cudaLaunchKernel"}
_SYNC_NAMES = {
    "cudaDeviceSynchronize", "cudaStreamSynchronize", "cudaEventSynchronize",
    "synchronize", "device_synchronize", "stream_synchronize", "sync",
}
_CHECKPOINT_NAMES = {"checkpoint", "precheckpoint", "on_precheckpoint"}
_CAPTURE_SINKS = {
    "add_blob", "add_region", "crc32", "adler32", "sha1", "sha256",
    "md5", "blake2b",
}
_MALLOC_NAMES = {
    "cudaMalloc", "cudaMallocManaged", "cudaMallocHost", "cudaHostAlloc",
    "malloc", "malloc_managed", "malloc_host", "host_alloc",
}
_STREAM_CREATE = {"cudaStreamCreate", "stream_create"}
_EVENT_CREATE = {"cudaEventCreate", "event_create"}
_DESTROY_NAMES = {
    "cudaStreamDestroy", "stream_destroy", "cudaEventDestroy", "event_destroy",
}
_CONTAINER_MUTATORS = {"append", "add", "extend", "insert", "setdefault"}


class _FunctionTaint:
    """Flow-ordered single-function walk."""

    def __init__(self, mod, module_globals: set[str]):
        self.mod = mod
        self.bindings = mod.bindings
        self.module_globals = module_globals
        self.findings: list[Finding] = []
        self.tainted: dict[str, str] = {}  # name -> source description
        self.devptrs: set[str] = set()
        self.handles: dict[str, str] = {}  # name -> "stream"/"event"
        self.destroyed: dict[str, str] = {}
        self.pending_launch: int | None = None
        self.in_destroy_impl = False

    # -- sources -------------------------------------------------------------

    def _source_of_call(self, node: ast.Call) -> str | None:
        """Nondeterminism-source description, or None."""
        source = nondet_source(self.bindings.resolve(attr_chain(node.func)))
        return None if source is None else source[0]

    def _unseeded_rng(self, node: ast.Call) -> str | None:
        chain = self.bindings.resolve(attr_chain(node.func))
        ctor = ".".join(chain)
        if ctor in ("random.Random", "numpy.random.default_rng") and not (
            node.args or node.keywords
        ):
            return ctor
        return None

    def _expr_taint(self, node: ast.AST | None) -> str | None:
        """Source description if any part of the expression is tainted."""
        if node is None:
            return None
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and n.id in self.tainted:
                return self.tainted[n.id]
            if isinstance(n, ast.Call):
                src = self._source_of_call(n)
                if src is not None:
                    return src
        return None

    def _is_devptr_expr(self, node: ast.AST | None) -> bool:
        if node is None:
            return False
        for n in ast.walk(node):
            if isinstance(n, ast.Call) and call_name(n) in _MALLOC_NAMES:
                return True
            if isinstance(n, ast.Name) and n.id in self.devptrs:
                return True
        return False

    def _add(self, rule: str, node: ast.AST, message: str) -> None:
        if self.mod.suppressed(node):
            return
        self.findings.append(
            Finding("taint", rule, self.mod.rel, node.lineno, message)
        )

    # -- statement walk ------------------------------------------------------

    def run(self, fn: ast.AST) -> list[Finding]:
        # A function named like a destroy op *is* the destroy
        # implementation: touching the handle after forwarding the
        # destroy (registry bookkeeping) is not a use-after-destroy.
        self.in_destroy_impl = "destroy" in fn.name.lower()
        self._walk_body(fn.body)
        return self.findings

    def _walk_body(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs analysed as their own functions
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._handle_assign(stmt)
            return
        # Scan this statement's own expressions in source order, then
        # recurse into nested bodies (if/for/while/with/try arms)
        # sequentially — a conservative linearisation of control flow.
        for node in ast.iter_child_nodes(stmt):
            if isinstance(node, ast.expr):
                self._scan_expr(node)
        for item in getattr(stmt, "items", ()):  # with-statement items
            self._scan_expr(item.context_expr)
        for attr in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attr, None)
            if isinstance(inner, list):
                self._walk_body(inner)
        for handler in getattr(stmt, "handlers", ()):
            self._walk_body(handler.body)

    def _handle_assign(self, stmt: ast.stmt) -> None:
        value = getattr(stmt, "value", None)
        self._scan_expr(value)
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        taint = self._expr_taint(value)
        if isinstance(stmt, ast.AugAssign):
            # x += tainted keeps x's prior taint too
            target = stmt.target
            if isinstance(target, ast.Name) and target.id in self.tainted:
                taint = taint or self.tainted[target.id]
        if isinstance(value, ast.Call):
            unseeded = self._unseeded_rng(value)
            if unseeded is not None:
                self._add(
                    "det/unseeded-rng", stmt,
                    f"{unseeded}() with no seed — OS-entropy seeded RNG "
                    "cannot replay; pass an explicit seed",
                )
        is_devptr = self._is_devptr_expr(value)
        for t in targets:
            if isinstance(t, ast.Name):
                if taint is not None:
                    self.tainted[t.id] = taint
                else:
                    self.tainted.pop(t.id, None)
                if is_devptr:
                    self.devptrs.add(t.id)
                else:
                    self.devptrs.discard(t.id)
                self.destroyed.pop(t.id, None)
                if isinstance(value, ast.Call):
                    cn = call_name(value)
                    if cn in _STREAM_CREATE:
                        self.handles[t.id] = "stream"
                    elif cn in _EVENT_CREATE:
                        self.handles[t.id] = "event"
            elif isinstance(t, ast.Subscript):
                self._check_subscript_escape(t, value, stmt)

    def _check_subscript_escape(self, target: ast.Subscript, value, stmt) -> None:
        chain = attr_chain(target.value)
        if (
            chain
            and chain[0] in self.module_globals
            and self._is_devptr_expr(value)
        ):
            self._add(
                "det/pointer-escape", stmt,
                f"device pointer stored into module-level container "
                f"{chain[0]!r} — restart rewrites the runtime registry but "
                "never patches module globals, so this address dangles "
                "after restore",
            )

    # -- expression scan (recursive; calls own their argument scan) ----------

    def _scan_expr(self, node: ast.AST | None) -> None:
        if node is None:
            return
        if isinstance(node, ast.Call):
            self._check_call(node)
            return
        if isinstance(node, ast.Name):
            self._check_name_use(node)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword, ast.comprehension)):
                self._scan_expr_generic(child)

    def _scan_expr_generic(self, node: ast.AST) -> None:
        if isinstance(node, ast.keyword):
            self._scan_expr(node.value)
        elif isinstance(node, ast.comprehension):
            self._scan_expr(node.iter)
            for cond in node.ifs:
                self._scan_expr(cond)
        else:
            self._scan_expr(node)

    def _check_name_use(self, n: ast.Name) -> None:
        if isinstance(n.ctx, ast.Load) and n.id in self.destroyed:
            kind = self.destroyed.pop(n.id)  # one finding per stale handle
            self._add(
                "det/use-after-destroy", n,
                f"{kind} handle {n.id!r} used after its destroy call — "
                "replay would reference a handle the lower half already "
                "dropped",
            )

    def _check_call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name in _DESTROY_NAMES and not self.in_destroy_impl:
            # The handle argument of the destroy call itself is not a
            # use-after-destroy; mark it destroyed for what follows.
            kind_hint = "stream" if "tream" in (name or "") else "event"
            for arg in node.args:
                if isinstance(arg, ast.Name):
                    self.destroyed[arg.id] = self.handles.get(arg.id, kind_hint)
                else:
                    self._scan_expr(arg)
            if isinstance(node.func, ast.Attribute):
                self._scan_expr(node.func.value)
            return
        if isinstance(node.func, ast.Attribute):
            self._scan_expr(node.func.value)
        for sub in node.args:
            self._scan_expr(sub)
        for kw in node.keywords:
            self._scan_expr(kw.value)
        if name in _LAUNCH_NAMES:
            taint = self._args_taint(node)
            if taint is not None:
                self._add(
                    "det/nondet-into-kernel", node,
                    f"kernel launch argument derives from {taint} — the "
                    "replayed launch computes different bytes than the "
                    "original run",
                )
            self.pending_launch = node.lineno
        elif name in _SYNC_NAMES:
            self.pending_launch = None
        elif name in _CHECKPOINT_NAMES:
            if self.pending_launch is not None:
                self._add(
                    "det/unsynced-launch", node,
                    f"checkpoint cut with a kernel launched at line "
                    f"{self.pending_launch} and no statically reachable "
                    "sync between them — the cut captures a stream with "
                    "undrained work",
                )
                self.pending_launch = None
        elif name in _CAPTURE_SINKS:
            taint = self._args_taint(node)
            if taint is not None:
                self._add(
                    "det/nondet-into-capture", node,
                    f"captured/digested value derives from {taint} — two "
                    "identical runs produce different image checksums",
                )
        elif name in _CONTAINER_MUTATORS:
            chain = attr_chain(node.func)
            if (
                len(chain) >= 2
                and chain[0] in self.module_globals
                and any(self._is_devptr_expr(a) for a in node.args)
            ):
                self._add(
                    "det/pointer-escape", node,
                    f"device pointer stored into module-level container "
                    f"{chain[0]!r} — restart rewrites the runtime registry "
                    "but never patches module globals, so this address "
                    "dangles after restore",
                )

    def _args_taint(self, node: ast.Call) -> str | None:
        for sub in list(node.args) + [kw.value for kw in node.keywords]:
            taint = self._expr_taint(sub)
            if taint is not None:
                return taint
        return None


def _module_globals(tree: ast.Module) -> set[str]:
    """Names bound at module scope to mutable containers."""
    out: set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign):
            value = stmt.value
            is_container = isinstance(
                value, (ast.Dict, ast.List, ast.Set)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "list", "set", "defaultdict")
            )
            if is_container:
                for t in stmt.targets:
                    if isinstance(t, ast.Name):
                        out.add(t.id)
    return out


def analyze(index: PackageIndex) -> list[Finding]:
    """Run the taint pass over every function of every module."""
    findings: list[Finding] = []
    for mod in index.modules.values():
        globals_ = _module_globals(mod.tree)
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walker = _FunctionTaint(mod, globals_)
                findings.extend(walker.run(node))
    return findings
