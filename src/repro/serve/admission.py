"""Admission control: a bounded queue that sheds load *typed*.

The serving tier refuses work it cannot finish instead of letting every
admitted session's latency collapse. Two shedding conditions, each with
its own typed error so clients (and the CLI exit path) can tell them
apart:

- **queue full** — the request never enters the system;
  :class:`~repro.errors.AdmissionRejectedError` (severity *retryable*:
  back off and re-offer);
- **deadline miss** — the estimated queue wait already exceeds the
  request's deadline, so serving it would waste capacity on an answer
  nobody is waiting for;
  :class:`~repro.errors.ServeDeadlineExceededError` (severity
  *program*: deterministic, no recovery rung can un-miss it).

The wait estimate is the classic M/M/c-shaped bound ``(depth // servers)
× service_estimate`` — deterministic (no sampling), so a campaign's shed
counts are bit-reproducible.
"""

from __future__ import annotations

from repro.errors import AdmissionRejectedError, ServeDeadlineExceededError


class AdmissionController:
    """Bounded admission queue with per-request deadline estimates.

    ``offer`` either admits (returning the estimated queue wait in
    virtual nanoseconds, which the scheduler charges to the session's
    clock) or raises one of the two typed shedding errors. ``release``
    frees the admitted slot once the request finishes.
    """

    def __init__(
        self,
        *,
        max_queue: int = 64,
        deadline_ns: int = 5_000_000,
        service_estimate_ns: int = 500_000,
        servers: int = 1,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if servers < 1:
            raise ValueError("servers must be >= 1")
        self.max_queue = max_queue
        self.deadline_ns = deadline_ns
        self.service_estimate_ns = round(service_estimate_ns)  # whole ns
        self.servers = servers
        self._inflight: set[str] = set()
        self.offered = 0
        self.admitted = 0
        self.rejected = 0
        self.deadline_missed = 0

    @property
    def depth(self) -> int:
        """Requests admitted but not yet released."""
        return len(self._inflight)

    def estimate_wait_ns(self) -> int:
        """Queue wait a request admitted *now* would see."""
        return (self.depth // self.servers) * self.service_estimate_ns

    def offer(
        self, sid: str, *, deadline_ns: int | None = None
    ) -> int:
        """Try to admit one request for session ``sid``.

        Returns the estimated wait (virtual ns) on admission; raises
        :class:`~repro.errors.AdmissionRejectedError` when the queue is
        full and :class:`~repro.errors.ServeDeadlineExceededError` when
        the wait estimate already blows the deadline.
        """
        self.offered += 1
        if sid in self._inflight:
            raise AdmissionRejectedError(
                f"session {sid!r} already has a request in flight"
            )
        if self.depth >= self.max_queue:
            self.rejected += 1
            raise AdmissionRejectedError(
                f"admission queue full ({self.depth}/{self.max_queue}); "
                "shedding load"
            )
        limit = self.deadline_ns if deadline_ns is None else deadline_ns
        wait_ns = self.estimate_wait_ns()
        if wait_ns > limit:
            self.deadline_missed += 1
            raise ServeDeadlineExceededError(sid, wait_ns, limit)
        self._inflight.add(sid)
        self.admitted += 1
        return wait_ns

    def release(self, sid: str) -> None:
        """Free ``sid``'s admitted slot (idempotent)."""
        self._inflight.discard(sid)

    def snapshot(self) -> dict:
        """JSON-safe counter summary."""
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "deadline_missed": self.deadline_missed,
            "depth": self.depth,
            "max_queue": self.max_queue,
        }

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"<AdmissionController {self.depth}/{self.max_queue} in flight, "
            f"{self.admitted}/{self.offered} admitted, "
            f"{self.rejected} rejected, {self.deadline_missed} past deadline>"
        )
