"""Import-binding resolution: local names back to canonical origins.

The old lint matched attribute chains literally, so ``time.time()`` was
caught but ``from time import time`` or ``import numpy.random as npr``
slipped through. This module records what every imported local name
*means* and rewrites call chains into canonical dotted form before any
rule looks at them:

    from time import time as now    ->  now()        resolves to time.time
    import numpy.random as npr      ->  npr.random() resolves to numpy.random.random
    import numpy as np              ->  np.random.rand() resolves to numpy.random.rand

Relative imports (``from .foo import bar``) resolve to nothing — they
can only name package-local modules, never the stdlib sources the
nondeterminism rules care about.

:func:`nondet_source` is the one classifier of nondeterministic calls:
the lint's ``nondeterminism`` rule flags the call, the taint pass
tracks where its value flows.
"""

from __future__ import annotations

import ast

#: aliases normalised to their canonical module name
_CANONICAL_HEADS = {"np": "numpy"}

_CLOCK_FNS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "clock_gettime", "process_time",
}
_DATETIME_FNS = {"now", "utcnow", "today"}
_RANDOM_FNS = {
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "betavariate", "expovariate", "choice", "choices", "shuffle", "sample",
    "seed", "getrandbits", "triangular", "vonmisesvariate", "paretovariate",
}
_NP_RANDOM_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "seed", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
}


def nondet_source(chain: list[str]) -> tuple[str, str] | None:
    """``(what, remedy)`` if the resolved call ``chain`` reads a wall
    clock (``time.*``, the ``datetime.now`` family) or draws from a
    global RNG (``random.*``, legacy ``numpy.random.*``); else None.

    Replay determinism (§3.2.4) needs every draw to come from a named
    seeded stream and every clock read to be virtual time.
    """
    if not chain:
        return None
    head, tail = chain[0], chain[-1]
    dotted = ".".join(chain)
    if (head == "time" and len(chain) == 2 and tail in _CLOCK_FNS) or (
        tail in _DATETIME_FNS and len(chain) >= 2
        and chain[-2] in ("datetime", "date")
    ):
        return f"wall clock {dotted}()", "the model runs on virtual time only"
    if head == "random" and len(chain) == 2 and tail in _RANDOM_FNS:
        return (
            f"global {dotted}() draw",
            "draw from a named seeded stream (random.Random(seed)) instead",
        )
    if (
        len(chain) == 3
        and head == "numpy"
        and chain[1] == "random"
        and tail in _NP_RANDOM_FNS
    ):
        return (
            f"legacy global {dotted}() draw",
            "use np.random.default_rng(seed)",
        )
    return None


class ImportBindings:
    """Local-name → canonical dotted-origin map for one module."""

    def __init__(self) -> None:
        self.names: dict[str, str] = {}

    @classmethod
    def collect(cls, tree: ast.AST) -> "ImportBindings":
        """Walk a module body for ``import``/``from-import`` bindings."""
        b = cls()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # `import a.b` binds the *root* name `a`; only an
                    # asname binds the full dotted path.
                    origin = alias.name if alias.asname else alias.name.split(".")[0]
                    b.names[local] = origin
            elif isinstance(node, ast.ImportFrom):
                if node.level or node.module is None:
                    continue  # relative import: package-local
                for alias in node.names:
                    local = alias.asname or alias.name
                    b.names[local] = f"{node.module}.{alias.name}"
        return b

    def resolve(self, chain: list[str]) -> list[str]:
        """Rewrite ``chain`` with its head's import origin substituted.

        Unbound heads pass through unchanged (so literal ``time.time()``
        still resolves even without seeing the import statement).
        """
        if not chain:
            return chain
        head = chain[0]
        origin = self.names.get(head, head)
        origin = _CANONICAL_HEADS.get(origin, origin)
        return origin.split(".") + chain[1:]
