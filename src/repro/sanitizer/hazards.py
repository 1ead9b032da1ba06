"""Structured hazard records emitted by the dynamic checkers."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass(frozen=True)
class HazardReport:
    """One detected hazard.

    Attributes:
        checker: which checker fired (``racecheck`` | ``synccheck`` |
            ``memcheck`` | ``initcheck``).
        kind: the hazard sub-class within the checker (e.g.
            ``write-write``, ``use-after-free``, ``unsynced-cut``).
        message: human-readable one-liner.
        addr: base address of the buffer involved (0 when no buffer).
        byte_range: ``(lo, hi)`` byte range within the buffer, or None.
        stream_sids: stream ids involved, in the order they acted.
        op_ids: sanitizer op ids of the involved operations.
        missing_edge: for races, the ordering edge whose absence makes
            the pair concurrent (what an event record/wait would add).
    """

    checker: str
    kind: str
    message: str
    addr: int = 0
    byte_range: tuple[int, int] | None = None
    stream_sids: tuple[int, ...] = ()
    op_ids: tuple[int, ...] = ()
    missing_edge: str | None = None

    def describe(self) -> str:
        """One-line ``[checker:kind] @addr[lo:hi] message`` rendering."""
        loc = f" @{self.addr:#x}" if self.addr else ""
        if self.byte_range is not None:
            loc += f"[{self.byte_range[0]}:{self.byte_range[1]}]"
        return f"[{self.checker}:{self.kind}]{loc} {self.message}"


@dataclass
class SanitizerReport:
    """Everything one sanitizer run produced.

    ``history_compactions`` counts exact same-stream coverage
    compactions of a buffer's access history (lossless for race
    detection); ``history_summarized`` counts the last-resort
    per-(stream, write) span summarizations, which never miss a race
    but may over-approximate the ordering of pre-summary ops — a
    nonzero value flags that any racecheck positives on that run
    deserve a second look.
    """

    hazards: list[HazardReport] = field(default_factory=list)
    ops_instrumented: int = 0
    history_compactions: int = 0
    history_summarized: int = 0

    def counts(self) -> dict[str, int]:
        """Hazard count per checker (only checkers that fired)."""
        return dict(Counter(h.checker for h in self.hazards))

    @property
    def clean(self) -> bool:
        """True when no checker found anything."""
        return not self.hazards

    def summary(self) -> str:
        """Multi-line human-readable report (CLI output)."""
        lines = [
            f"sanitizer: {len(self.hazards)} hazard(s), "
            f"{self.ops_instrumented} op(s) instrumented"
        ]
        for checker in ("racecheck", "synccheck", "memcheck", "initcheck"):
            for h in (hz for hz in self.hazards if hz.checker == checker):
                lines.append("  " + h.describe())
                if h.missing_edge:
                    lines.append(f"    missing edge: {h.missing_edge}")
        return "\n".join(lines)
