"""Service metrics: per-tenant counters and queue-wait percentiles.

The daemon keeps one :class:`StatsRecorder` and snapshots it into a
:class:`ServiceStats` on demand — for ``repro status --json``, the
control port's ``("stats",)`` request, and tests.  Snapshots are plain
dataclasses of plain types, so they pickle across the control port and
``to_dict`` round-trips through JSON.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

__all__ = ["ServiceStats", "StatsRecorder", "TenantStats"]

#: Queue-wait samples kept per service (a bounded reservoir of the most
#: recent waits; p50/p95 of "recent" is what an operator watches).
_WAIT_WINDOW = 1024


def _percentile(samples: List[float], q: float) -> Optional[float]:
    """Nearest-rank percentile of ``samples`` (``None`` when empty)."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class TenantStats:
    """One tenant's counters (all monotone except the gauges)."""

    jobs_queued: int = 0  # gauge: waiting right now
    jobs_running: int = 0  # gauge: running right now
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    bytes_sorted: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class ServiceStats:
    """A point-in-time snapshot of the whole service.

    Attributes:
        workers: mesh size the service was configured with.
        workers_live: workers currently usable — shrinks on deaths and
            *recovers* as replacement workers rejoin the elastic pool.
        workers_joined: lifetime count of replacement workers integrated
            into the standing mesh.
        membership_epoch: bumps on every membership change (death or
            rejoin); jobs are fenced to the epoch they were planned in.
        jobs_queued / jobs_running: current gauges, summed over tenants.
        jobs_done / jobs_failed / jobs_rejected: lifetime counters.
        queue_wait_p50 / queue_wait_p95: seconds from admission to
            dispatch over the recent-wait window (``None`` until the
            first dispatch).
        tenants: per-tenant breakdown, keyed by tenant name.
    """

    workers: int = 0
    workers_live: int = 0
    workers_joined: int = 0
    membership_epoch: int = 0
    jobs_queued: int = 0
    jobs_running: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_rejected: int = 0
    queue_wait_p50: Optional[float] = None
    queue_wait_p95: Optional[float] = None
    tenants: Dict[str, TenantStats] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        d: Dict[str, Any] = dict(self.__dict__)
        d["tenants"] = {
            name: stats.to_dict() for name, stats in self.tenants.items()
        }
        return d


class StatsRecorder:
    """Thread-safe accumulator behind :class:`ServiceStats` snapshots."""

    def __init__(self, workers: int) -> None:
        self._lock = threading.Lock()
        self._workers = workers
        self._tenants: Dict[str, TenantStats] = {}
        self._waits: Deque[float] = deque(maxlen=_WAIT_WINDOW)

    def _tenant(self, tenant: str) -> TenantStats:
        return self._tenants.setdefault(tenant, TenantStats())

    def rejected(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).jobs_rejected += 1

    def queued(self, tenant: str) -> None:
        with self._lock:
            self._tenant(tenant).jobs_queued += 1

    def dispatched(self, tenant: str, queue_wait: float) -> None:
        with self._lock:
            t = self._tenant(tenant)
            t.jobs_queued -= 1
            t.jobs_running += 1
            self._waits.append(queue_wait)

    def requeued(self, tenant: str) -> None:
        """A running job went back to the queue for retry."""
        with self._lock:
            t = self._tenant(tenant)
            t.jobs_running -= 1
            t.jobs_queued += 1

    def finished(
        self, tenant: str, ok: bool, bytes_sorted: int = 0,
        queued: bool = False,
    ) -> None:
        """A job ended: a running one, or (``queued``) one that ended
        waiting in the queue or out a retry's backoff."""
        with self._lock:
            t = self._tenant(tenant)
            if queued:
                t.jobs_queued -= 1
            else:
                t.jobs_running -= 1
            if ok:
                t.jobs_done += 1
                t.bytes_sorted += bytes_sorted
            else:
                t.jobs_failed += 1

    def snapshot(
        self,
        workers_live: Optional[int] = None,
        workers_joined: int = 0,
        membership_epoch: int = 0,
    ) -> ServiceStats:
        with self._lock:
            waits = list(self._waits)
            tenants = {
                name: TenantStats(**t.__dict__)
                for name, t in self._tenants.items()
            }
        return ServiceStats(
            workers=self._workers,
            workers_live=(
                self._workers if workers_live is None else workers_live
            ),
            workers_joined=workers_joined,
            membership_epoch=membership_epoch,
            jobs_queued=sum(t.jobs_queued for t in tenants.values()),
            jobs_running=sum(t.jobs_running for t in tenants.values()),
            jobs_done=sum(t.jobs_done for t in tenants.values()),
            jobs_failed=sum(t.jobs_failed for t in tenants.values()),
            jobs_rejected=sum(t.jobs_rejected for t in tenants.values()),
            queue_wait_p50=_percentile(waits, 0.50),
            queue_wait_p95=_percentile(waits, 0.95),
            tenants=tenants,
        )
