"""Bandwidth/latency-modeled inter-node links with seeded fault injection.

The interconnect is the only path checkpoint generations take between
nodes, so its model mirrors the repo's LogP-style MPI costs: a transfer
of ``n`` bytes over a link completes at
``start + latency + n / bandwidth`` (virtual nanoseconds), and each
ordered node pair is a half-duplex link that serializes its transfers
(``start = max(now, link_busy_until)``).

Link faults come from a *named* seeded RNG stream (never the global
``random`` module) or from an explicit per-transfer ``fault_plan``:
``"corrupt"`` flips bytes in flight — caught by the destination store's
arrival CRC re-verification — and ``"drop"`` loses the transfer
entirely. Both are retryable; the shipping layer owns the retry budget.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.gpu.timing import transfer_ns

#: Datacenter-ish defaults: 100 GbE-class bandwidth, microseconds of
#: switch latency — slow enough that shipping a full image visibly
#: dominates a naive migration's blackout.
DEFAULT_BANDWIDTH = 10.0e9  # bytes/s
DEFAULT_LATENCY_NS = 5_000


@dataclass(frozen=True)
class LinkSpec:
    """Static link parameters shared by every node pair."""

    bandwidth: float = DEFAULT_BANDWIDTH  # bytes/s
    latency_ns: int = DEFAULT_LATENCY_NS


@dataclass
class TransferRecord:
    """One completed (or failed) transfer on the fabric."""

    src: str
    dst: str
    nbytes: int
    start_ns: int
    end_ns: int
    #: "ok" | "corrupt" (bytes flipped in flight) | "drop" (lost)
    outcome: str = "ok"

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Interconnect:
    """The cluster's network fabric (virtual-time transfer model).

    ``fault_prob`` draws per-transfer faults from the named RNG stream;
    ``fault_plan`` maps a global transfer index to a forced outcome
    (``"corrupt"``/``"drop"``/``"ok"``) so tests can land a fault on an
    exact transfer deterministically — the plan wins over the draw.
    """

    spec: LinkSpec = field(default_factory=LinkSpec)
    seed: int = 0
    fault_prob: float = 0.0
    fault_plan: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Named RNG stream: link-fault draws must never perturb the
        # checkpoint scheduler's or the injector's randomness (same
        # derivation as harness.fault_injection.derive_seed, inlined —
        # cluster must not import harness at module level).
        self._rng = random.Random(
            (self.seed & 0xFFFFFFFF) ^ zlib.crc32(b"interconnect")
        )
        #: per ordered node pair: virtual time the link frees up
        self._link_busy: dict[tuple[str, str], int] = {}
        self.transfers: list[TransferRecord] = []

    def transfer_ns(self, nbytes: int) -> int:
        """Unloaded transfer duration for ``nbytes`` (latency + wire)."""
        return self.spec.latency_ns + transfer_ns(nbytes, self.spec.bandwidth)

    def send(self, src: str, dst: str, nbytes: int, now_ns: int) -> TransferRecord:
        """Put ``nbytes`` on the ``src → dst`` link at ``now_ns``.

        Returns the transfer's record; the caller decides which clock
        (the sending process, or a background shipping timeline) absorbs
        ``end_ns``. A ``"drop"`` outcome still occupies the link for the
        full duration — the loss is discovered at the far end.
        """
        key = (src, dst)
        start = max(now_ns, self._link_busy.get(key, 0))
        end = start + self.transfer_ns(nbytes)
        self._link_busy[key] = end
        idx = len(self.transfers)
        outcome = self.fault_plan.get(idx)
        if outcome is None:
            outcome = "ok"
            if self.fault_prob > 0.0 and self._rng.random() < self.fault_prob:
                outcome = self._rng.choice(("corrupt", "drop"))
        record = TransferRecord(src, dst, nbytes, start, end, outcome)
        self.transfers.append(record)
        return record

    @property
    def shipped_bytes(self) -> int:
        """Total bytes put on the wire (all outcomes, diagnostics)."""
        return sum(t.nbytes for t in self.transfers)

    def faults(self) -> list[TransferRecord]:
        """Transfers that corrupted or dropped (diagnostics)."""
        return [t for t in self.transfers if t.outcome != "ok"]
