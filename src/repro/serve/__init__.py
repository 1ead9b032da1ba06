"""Multi-tenant session-serving tier over the CRAC checkpoint machinery.

``repro.serve`` multiplexes many :class:`~repro.core.session.CracSession`
user sessions across a pool of virtual GPU nodes, staying up through the
same fault classes the single-session ladder survives:

- :class:`~repro.serve.admission.AdmissionController` — bounded-queue
  admission with per-request deadlines and *typed* rejection (load
  shedding, not collapse);
- :class:`~repro.serve.eviction.LruHotSet` — the recency order behind
  checkpoint-backed eviction (cold sessions park as incremental images);
- :class:`~repro.serve.pool.SessionPool` /
  :class:`~repro.serve.pool.ServeNode` — GPU slots, per-session primary
  checkpoint stores, and shadow replicas shipped to a buddy node over
  the cluster interconnect;
- :class:`~repro.serve.scheduler.ServeScheduler` — the tier itself:
  open/serve/park/rehydrate/fail-over/close, layered on the
  :class:`~repro.core.fault_domain.FaultDomain` escalation ladder with
  per-session recovery budgets.
"""

from repro.serve.admission import AdmissionController
from repro.serve.eviction import LruHotSet
from repro.serve.pool import ServeNode, SessionPool
from repro.serve.scheduler import (
    ServeScheduler,
    SessionRecord,
    reference_digest,
)

__all__ = [
    "AdmissionController",
    "LruHotSet",
    "ServeNode",
    "SessionPool",
    "ServeScheduler",
    "SessionRecord",
    "reference_digest",
]
