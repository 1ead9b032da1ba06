"""The validated-speculation checkpoint writer.

A ``speculative=True`` cut does **not** quiesce: the checkpointer
snapshots handle versions and buffer contents at the cut instant
(physical copies are free in virtual time — the same trick the forked
mode uses) and the application keeps launching kernels through
``cuda/api.py``/``gpu/device.py`` while capture, drain and image write
proceed on the background timeline of a
:class:`~repro.dmtcp.forked.BackgroundWriter` ending at
``validate_end_ns``. The application pays only ``HostCosts.spec_cut_ns``
plus a per-handle version-snapshot cost at the cut.

At :meth:`SpeculativeCheckpoint.finish` the speculation is *validated*:
every resource the application mutated inside the capture window — a
buffer whose ``write_seq`` moved past its captured epoch, a stream or
event whose :class:`~repro.spec.HandleTable` version advanced — is a
conflict. Conflicted handles are invalidated and their spans replayed
(re-copied from the op/version log) before commit, charged at
``spec_replay_bw`` + ``spec_invalidate_ns`` per handle. The committed
image is digest-equal to a stop-the-world cut by construction: its bytes
were captured at the cut instant; conflicts cost time, never fidelity.

If validation cannot commit — an injected ``spec-validate`` fault —
the speculation rolls back: :meth:`abort` drops the image's capture
references *without touching live dirty state* (``mark_committed``
never runs, so every dirty bit survives for the fallback cut) and
:class:`~repro.errors.SpeculationAbortedError` tells the session to
re-issue the same cut in the forked (stop-the-world) mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.dmtcp.forked import BackgroundWriter
from repro.errors import InjectedFault, SpeculationAbortedError
from repro.gpu.timing import transfer_ns
from repro.linux.process import SimProcess
from repro.spec.conflicts import Conflict, detect_conflicts


@dataclass
class SpeculativeCheckpoint(BackgroundWriter):
    """An in-flight speculative capture awaiting validation."""

    mode: ClassVar[str] = "speculative"
    write_span: ClassVar[str] = "spec-write"
    settle_span: ClassVar[str] = "spec-validate"
    abort_instant: ClassVar[str] = "spec-abort"

    #: conflicts found at validation (filled in by :meth:`finish`)
    conflicts: list[Conflict] = field(default_factory=list)
    #: handles invalidated and replayed at validation
    invalidated: int = 0
    #: bytes re-copied by invalidate-and-replay
    replayed_bytes: int = 0
    #: app-visible validation cost (conflict replay), ns
    replay_time_ns: int = 0

    @property
    def cut_ns(self) -> int:
        return self.start_ns

    @property
    def validate_end_ns(self) -> int:
        return self.end_ns

    def _settle(self, live: SimProcess | None) -> tuple[int, dict]:
        """Validate the speculation (also when the application already
        died — against state frozen at death). Raises
        :class:`~repro.errors.SpeculationAbortedError` after rolling
        back if validation cannot commit."""
        try:
            if self.fault_injector is not None:
                self.fault_injector.check(
                    "spec-validate", f"speculative commit pid {self.image.pid}"
                )
        except InjectedFault as exc:
            self.abort()
            raise SpeculationAbortedError(
                f"speculative checkpoint of pid {self.image.pid} rolled "
                f"back: {exc}"
            ) from exc

        # Conflict detection: epoch/version diff against the cut.
        self.conflicts = detect_conflicts(self.image, self.handle_table)
        self.invalidated = len(self.conflicts)
        # Only writes that landed while background capture still held
        # un-captured spans are torn and must replay; like the forked
        # mode's COW exposure, pro-rate the dirtied bytes by the overlap.
        now = live.clock_ns if live is not None else self.end_ns
        self.replayed_bytes = int(
            sum(c.nbytes for c in self.conflicts) * self.overlap(now)
        )
        self.replay_time_ns = (
            transfer_ns(self.replayed_bytes, self.costs.spec_replay_bw)
            + self.invalidated * self.costs.spec_invalidate_ns
        )
        return self.replay_time_ns, {
            "conflicts": self.invalidated, "bytes": self.replayed_bytes,
        }
