"""``repro.sanitizer``: compute-sanitizer-style analysis for the CRAC model.

A **dynamic hazard detector** (:class:`Sanitizer`), mirroring NVIDIA's
compute-sanitizer tool family: vector-clock happens-before tracking
threaded through the stream/event/UVM/arena layers, with four checkers
(``racecheck``, ``synccheck``, ``memcheck``, ``initcheck``) emitting
structured :class:`HazardReport` records.

The detector drives ``repro sanitize APP`` (see :mod:`repro.cli`) and
the perf suite's sanitize scenario; its planted scenarios
(:mod:`repro.sanitizer.planted`) are its own test oracle. The static
side — the determinism lint among the passes of :mod:`repro.analysis`
— runs in ``repro analyze``.
"""

from repro.sanitizer.core import CHECKERS, Sanitizer
from repro.sanitizer.hazards import HazardReport, SanitizerReport
from repro.sanitizer.vector_clock import VectorClock

__all__ = [
    "CHECKERS",
    "HazardReport",
    "Sanitizer",
    "SanitizerReport",
    "VectorClock",
]
