"""``repro.sanitizer``: compute-sanitizer-style analysis for the CRAC model.

Two halves, mirroring NVIDIA's compute-sanitizer tool family:

- a **dynamic hazard detector** (:class:`Sanitizer`) — vector-clock
  happens-before tracking threaded through the stream/event/UVM/arena
  layers, with four checkers (``racecheck``, ``synccheck``, ``memcheck``,
  ``initcheck``) emitting structured :class:`HazardReport` records;
- a **static determinism lint** (:mod:`repro.sanitizer.lint`) — an AST
  pass over the package flagging nondeterminism outside named RNG
  streams, raw raises in CUDA call paths, and dict-iteration-order
  dependence in checkpoint capture paths.

The detector drives ``repro sanitize APP`` (see :mod:`repro.cli`) and
the ``sanitize`` bench suite (:mod:`repro.sanitizer.gate`); the lint
runs in ``repro analyze``.
"""

from repro.sanitizer.core import CHECKERS, Sanitizer
from repro.sanitizer.hazards import HazardReport, SanitizerReport
from repro.sanitizer.lint import LintFinding, lint_package, lint_paths
from repro.sanitizer.vector_clock import VectorClock

__all__ = [
    "CHECKERS",
    "HazardReport",
    "LintFinding",
    "Sanitizer",
    "SanitizerReport",
    "VectorClock",
    "lint_package",
    "lint_paths",
]
