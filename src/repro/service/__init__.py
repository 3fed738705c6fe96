"""Multi-tenant sort service: one standing mesh, many concurrent jobs.

The :class:`~repro.session.Session` API is strict FIFO — one job owns
the whole pool at a time.  This package is the long-running alternative
the ROADMAP's "heavy traffic" north star asks for:

* :mod:`repro.service.daemon` — :class:`SortService`, the ``repro
  serve`` daemon: control port and job registry over the one job queue
  (:class:`~repro.session.JobQueue`, the Session's) under the
  fair-share scheduler — each job runs on a per-job *subset* of the
  worker mesh so jobs overlap, a failed job fails only its subset, and
  workers outlive it; the mesh is never re-formed, replacements rejoin
  it;
* :mod:`repro.service.scheduler` — admission control (typed
  rejections, per-tenant quotas) and priority/fair-share dispatch,
  as pure unit-testable logic;
* :mod:`repro.service.client` — :class:`ServiceClient` /
  :class:`ServiceJobHandle`, the ``repro submit`` / ``repro status``
  side;
* :mod:`repro.service.stats` — per-tenant metrics snapshots;
* :mod:`repro.service.protocol` — the control-port wire format.

Per-job worker sizing is what makes the fundamental tradeoff actionable
in a shared cluster: each job picks its own K (and, for coded sorts, r)
and the scheduler packs the subsets onto one mesh.
"""

from repro.service.client import (
    ServiceClient,
    ServiceJobHandle,
    ServiceRejected,
)
from repro.service.daemon import SortService
from repro.service.scheduler import (
    AdmissionError,
    FairShareScheduler,
    QueueFull,
    QueuedJob,
    QuotaExceeded,
    TenantQuota,
)
from repro.service.stats import ServiceStats, TenantStats

__all__ = [
    "AdmissionError",
    "FairShareScheduler",
    "QueueFull",
    "QueuedJob",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceJobHandle",
    "ServiceRejected",
    "ServiceStats",
    "SortService",
    "TenantQuota",
    "TenantStats",
]
