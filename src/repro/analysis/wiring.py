"""Pass 1 — cross-layer API-wiring consistency.

CRAC's restart correctness rests on every intercepted CUDA API being
*fully* wired: entered in the lower half (call counting), dispatched in
the upper half (trace-span attribution), replay-logged if it mutates
device address space, captured *and* restored by the plugin, modelled
by the sanitizer if it moves data, and classified by the error
taxonomy. A newly added API with any strand missing becomes a typed
finding — which is exactly the per-resource-handle inventory ROADMAP
item 1 (PhoenixOS-style concurrent checkpointing) needs as input.

Everything here is *fact extraction + set difference*; there are no
hardcoded verdicts. The only model knowledge is the two documented
allowlists below.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.astutil import (
    PackageIndex,
    attr_chain,
    body_matches,
    call_name,
    called_names,
    reaches,
    str_constants,
)
from repro.analysis.findings import Finding

#: APIs the restart orchestrator calls on the *runtime* directly while
#: rebuilding the lower half — entered, never upper-half dispatched, so
#: they legitimately have no trace span of their own (they run inside
#: the restore splice segment).
RESTART_ONLY = {"cudaHostRegister"}

#: eq. 2 of the paper: one launch is *three* upper-half calls; the two
#: configuration calls exist only at the dispatch boundary and have no
#: runtime entry point of their own.
CONFIG_CALLS = {"cudaPushCallConfiguration", "cudaPopCallConfiguration"}

#: device-content writers on buffer ``contents`` objects
_CONTENTS_WRITERS = {"copy_from", "write_bytes", "fill", "apply_delta"}
#: UVM page-migration operations (registration is not data movement)
_UVM_OPS = {"device_access", "host_access", "prefetch"}
#: allocator-mutating method names on arena objects
_ARENA_OPS = {"alloc", "free"}

_ALLOC_METHOD_RE = re.compile(r"^(malloc|free|host_alloc)")
#: the replay-log hooks the dispatch base's cudaMalloc family calls: one
#: call, a run of equal calls (``self._log_run("op", nbytes, addrs,
#: device)``) or churn pairs (``self._log_churn(nbytes, addrs, device)``)
_LOG_WRITERS = {"_log", "_log_run", "_log_churn"}
#: the dispatch base, which writes the family, and CRAC's backend
_LOGGING_MODULES = ("cuda/interface.py", "core/trampoline.py")


@dataclass
class ApiFacts:
    """Statically extracted facts about one ``cuda*`` runtime method."""

    name: str
    line: int
    entries: list[str] = field(default_factory=list)
    has_entry: bool = False
    sanitizer_direct: bool = False
    sanitizer_reachable: bool = False
    data_plane: list[str] = field(default_factory=list)
    call_sites: int = 0
    dispatched: bool = False

    def to_dict(self) -> dict:
        """Inventory record (the ROADMAP item 1 handle inventory)."""
        return {
            "name": self.name,
            "entries": sorted(set(self.entries)),
            "dispatched": self.dispatched,
            "call_sites": self.call_sites,
            "data_plane": self.data_plane,
            "sanitizer_model": self.sanitizer_direct or self.sanitizer_reachable,
        }


def _sanitizer_in(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and "sanitizer" in attr_chain(node)


def _data_plane_facts(fn: ast.AST) -> list[str]:
    """Which data-moving operations the method body performs."""
    facts: set[str] = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        chain = attr_chain(node.func)
        if name in _CONTENTS_WRITERS and "contents" in chain:
            facts.add("contents-write")
        elif name is not None and name.startswith("enqueue"):
            facts.add("enqueue")
        elif name in _UVM_OPS and "uvm" in chain:
            facts.add("uvm")
        elif name in _ARENA_OPS and any("alloc" in part for part in chain[:-1]):
            facts.add("arena")
    return sorted(facts)


def _extract_api_facts(index: PackageIndex, api_mod) -> list[ApiFacts]:
    facts: list[ApiFacts] = []
    for cls in api_mod.tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("cuda"):
                continue
            f = ApiFacts(fn.name, fn.lineno)
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and call_name(node) == "_entry":
                    f.has_entry = True
                    if node.args:
                        f.entries.extend(str_constants(node.args[0]))
            f.sanitizer_direct = body_matches(fn, _sanitizer_in)
            f.data_plane = _data_plane_facts(fn)
            if f.data_plane and not f.sanitizer_direct:
                f.sanitizer_reachable = reaches(index, fn, _sanitizer_in)
            facts.append(f)
    return facts


def _count_call_sites(index: PackageIndex, method: str, own_def: ast.AST) -> int:
    """Calls to ``.method(...)`` anywhere in the package (internal API
    edges — e.g. ``cudaFree`` forwarding to ``cudaFreeManaged`` — count,
    recursion inside the method's own body does not)."""
    own = {id(n) for n in ast.walk(own_def)}
    count = 0
    for mod in index.modules.values():
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and id(node) not in own
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == method
            ):
                count += 1
    return count


def _dispatch_literals(mod) -> set[str]:
    """Names passed to ``_dispatch``/``_dispatch_batch``.

    Handles literal args, conditional literals (both IfExp arms), and
    the common ``name = "A" if flag else "B"; self._dispatch(name)``
    idiom by resolving plain-Name args against string constants
    assigned to that name in the same function body.
    """
    names: set[str] = set()
    for fn in ast.walk(mod.tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_strs: dict[str, set[str]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and node.targets:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        local_strs.setdefault(t.id, set()).update(
                            str_constants(node.value)
                        )
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            cn = call_name(node)
            if cn == "_dispatch" and node.args:
                arg = node.args[0]
                names.update(str_constants(arg))
                if isinstance(arg, ast.Name):
                    names.update(local_strs.get(arg.id, ()))
            elif cn == "_dispatch_batch":
                for s in str_constants(node):
                    if s.startswith(("cuda", "__cuda")):
                        names.add(s)
    return names


def _log_ops(mod) -> dict[str, int]:
    """``self._log("op", ...)`` and ``self._log_run("op", ...)`` literals
    in ``mod`` → first line."""
    ops: dict[str, int] = {}
    for node in ast.walk(mod.tree):
        if (
            isinstance(node, ast.Call)
            and call_name(node) in _LOG_WRITERS
            and node.args
        ):
            for s in str_constants(node.args[0]):
                ops.setdefault(s, node.lineno)
    return ops


def _replay_ops(mod) -> set[str]:
    """Op literals the lower half's log replay compares an entry's op
    against (``op == "x"``, ``e.op in ("x", "y")``)."""
    ops: set[str] = set()
    for node in ast.walk(mod.tree):
        if not isinstance(node, ast.Compare):
            continue
        sides = [node.left, *node.comparators]
        if any(
            (isinstance(s, ast.Attribute) and s.attr == "op")
            or (isinstance(s, ast.Name) and s.id == "op")
            for s in sides
        ):
            for s in sides:
                ops.update(str_constants(s))
    return ops


def _blob_keys(index: PackageIndex, plugin_mod) -> tuple[dict[str, int], set[str]]:
    """(written keys → line in the plugin, keys read anywhere)."""
    written: dict[str, int] = {}
    for node in ast.walk(plugin_mod.tree):
        if isinstance(node, ast.Call) and call_name(node) == "add_blob" and node.args:
            for s in str_constants(node.args[0]):
                written.setdefault(s, node.lineno)
    read: set[str] = set()
    for mod in index.modules.values():
        for node in ast.walk(mod.tree):
            if (
                isinstance(node, ast.Call)
                and call_name(node) in ("blob", "get")
                and node.args
            ):
                for s in str_constants(node.args[0]):
                    if s in written:
                        read.add(s)
    return written, read


def _severity_gaps(errors_mod) -> list[tuple[str, int]]:
    """Enum members of ``CudaErrorCode`` missing from ``SEVERITY``."""
    members: dict[str, int] = {}
    covered: set[str] = set()
    for node in ast.walk(errors_mod.tree):
        if isinstance(node, ast.ClassDef) and node.name == "CudaErrorCode":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name) and target.id != "SUCCESS":
                            members[target.id] = stmt.lineno
        target = None
        if isinstance(node, ast.Assign) and node.targets:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if (
            target is not None
            and isinstance(target, ast.Name)
            and target.id == "SEVERITY"
            and isinstance(getattr(node, "value", None), ast.Dict)
        ):
            for key in node.value.keys:
                chain = attr_chain(key) if key is not None else []
                if len(chain) == 2 and chain[0] == "CudaErrorCode":
                    covered.add(chain[1])
    return [(m, ln) for m, ln in members.items() if m not in covered]


def _library_kernel_gaps(lib_mod) -> list[tuple[str, str, int]]:
    """``_call(name, kernel)`` kernels not in the module's FatBinary."""
    registered: set[str] = set()
    for node in ast.walk(lib_mod.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "FatBinary"
        ):
            registered.update(str_constants(node))
    gaps: list[tuple[str, str, int]] = []
    for node in ast.walk(lib_mod.tree):
        if (
            isinstance(node, ast.Call)
            and call_name(node) == "_call"
            and len(node.args) >= 2
        ):
            routine = next(iter(str_constants(node.args[0])), None)
            kernel = next(iter(str_constants(node.args[1])), None)
            if routine and kernel and kernel not in registered:
                gaps.append((routine, kernel, node.lineno))
    return gaps


def _unlogged_alloc(mod) -> list[tuple[str, int]]:
    """Alloc/free methods (runs included) of a class in ``mod`` that
    never reach a log writer (``_log``, ``_log_run`` or ``_log_churn``).

    Scoped to classes that call a log writer at all (the dispatch base
    that writes the cudaMalloc family, a replay-logging backend), so a
    class that only implements the writers isn't held to the rule.
    """
    gaps: list[tuple[str, int]] = []
    for cls in ast.walk(mod.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = {
            n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
        }
        uses_log = any(
            _LOG_WRITERS & called_names(m) for m in methods.values()
        )
        if not uses_log:
            continue
        for name, fn in methods.items():
            if not _ALLOC_METHOD_RE.match(name):
                continue
            logged = bool(_LOG_WRITERS & called_names(fn)) or any(
                _LOG_WRITERS & called_names(methods[c])
                for c in called_names(fn)
                if c in methods
            )
            if not logged:
                gaps.append((name, fn.lineno))
    return gaps


def analyze(index: PackageIndex) -> tuple[list[Finding], list[dict]]:
    """Run the wiring pass; returns ``(findings, api_inventory)``."""
    findings: list[Finding] = []
    inventory: list[dict] = []

    def add(rule: str, mod, line: int, message: str, node: ast.AST | None = None):
        if node is not None and mod.suppressed(node):
            return
        findings.append(Finding("wiring", f"wiring/{rule}", mod.rel, line, message))

    api_mod = index.find("cuda/api.py")
    iface_mod = index.find("cuda/interface.py")
    dispatched = _dispatch_literals(iface_mod) if iface_mod is not None else set()

    if api_mod is not None:
        api_facts = _extract_api_facts(index, api_mod)
        entered: set[str] = set()
        for f in api_facts:
            entered.update(f.entries)
            f.call_sites = _count_call_sites(
                index, f.name, _find_def(api_mod, f.name)
            )
            f.dispatched = any(e in dispatched for e in f.entries)
            if not f.has_entry:
                add(
                    "entry-prologue", api_mod, f.line,
                    f"{f.name} never calls self._entry() — lower-half call "
                    "counting and checkpoint quiesce cannot see it",
                )
            if f.call_sites == 0:
                add(
                    "api-unreachable", api_mod, f.line,
                    f"{f.name} has no call site anywhere in the package — "
                    "dead trampoline surface (or a missing dispatch wrapper)",
                )
            if f.data_plane and not (f.sanitizer_direct or f.sanitizer_reachable):
                add(
                    "sanitizer-model-missing", api_mod, f.line,
                    f"{f.name} moves data ({', '.join(f.data_plane)}) but no "
                    "sanitizer hook is statically reachable from its body — "
                    "racecheck/memcheck are blind to this API",
                )
            inventory.append(f.to_dict())

        if iface_mod is not None:
            for f in api_facts:
                for entry in sorted(set(f.entries)):
                    if entry not in dispatched and entry not in RESTART_ONLY:
                        add(
                            "trace-unattributed", api_mod, f.line,
                            f"{f.name} enters {entry!r} but the dispatch layer "
                            "never dispatches that name — its upper-half calls "
                            "have no trace span",
                        )
            for name in sorted(dispatched - entered - CONFIG_CALLS):
                add(
                    "dispatch-unentered", iface_mod, 1,
                    f"dispatch layer dispatches {name!r} but no runtime "
                    "method enters it — the trace counts a call the lower "
                    "half never sees",
                )

    replayed = _replay_ops(api_mod) if api_mod is not None else None
    for log_mod in filter(None, map(index.find, _LOGGING_MODULES)):
        for op, line in sorted(_log_ops(log_mod).items()):
            if replayed is not None and op not in replayed:
                add(
                    "log-op-unreplayed", log_mod, line,
                    f"dispatch layer logs replay op {op!r} but the replay loop "
                    "never handles it — restart would silently drop the call",
                )
        for name, line in _unlogged_alloc(log_mod):
            add(
                "unlogged-alloc", log_mod, line,
                f"backend {name}() mutates device address space without "
                "reaching a replay-log writer (self._log() and kin) — the "
                "call is lost from the replay log",
            )

    plugin_mod = index.find("core/plugin.py")
    if plugin_mod is not None:
        written, read = _blob_keys(index, plugin_mod)
        for key, line in sorted(written.items()):
            if key not in read:
                add(
                    "capture-blob-unrestored", plugin_mod, line,
                    f"checkpoint blob {key!r} is captured but no restore "
                    "path ever reads it — dead image bytes or a missing "
                    "restore step",
                )

    errors_mod = index.find("cuda/errors.py")
    if errors_mod is not None:
        for member, line in sorted(_severity_gaps(errors_mod)):
            add(
                "severity-unclassified", errors_mod, line,
                f"CudaErrorCode.{member} has no SEVERITY entry — it would "
                "classify as FATAL by fallback instead of by decision",
            )

    for suffix in ("cuda/cublas.py", "cuda/cusolver.py"):
        lib_mod = index.find(suffix)
        if lib_mod is None:
            continue
        for routine, kernel, line in _library_kernel_gaps(lib_mod):
            add(
                "library-kernel-unregistered", lib_mod, line,
                f"{routine} launches kernel {kernel!r} which its FatBinary "
                "never registers — restart re-registration would not cover it",
            )

    return findings, inventory


def _find_def(mod, name: str) -> ast.AST:
    for node in ast.walk(mod.tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    return mod.tree
