"""The sort service's worker pool: the shared reactor, owned resiliently.

There is one driver-side pool, :class:`~repro.runtime.pool.WorkerPool`;
this module only fixes how the sort service owns it.  Where a
``Session`` steps the reactor itself, runs one full-mesh job at a time
and tears the mesh down on any failure, a :class:`ServicePool` keeps one
standing TCP mesh (:class:`~repro.runtime.tcp.Rendezvous`, telling its
workers to outlive failed jobs), runs the reactor on its own thread, and
runs **many jobs concurrently on disjoint subsets** of the mesh — a K'=4
job on workers {0,1,2,3} while another runs on {4,...} — with
subset-scoped failure handling and elastic, epoch-fenced membership
(all of it described in :mod:`repro.runtime.pool`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.runtime.pool import SubsetJob, WorkerPool
from repro.runtime.tcp import Rendezvous, TcpCluster

__all__ = ["ServicePool", "SubsetJob"]


class ServicePool(WorkerPool):
    """Standing TCP mesh running concurrent jobs on disjoint subsets.

    ``cluster`` is only read (workers are told to be resilient through
    this pool's own transport, and mesh growth is tracked in
    :attr:`size`); the callbacks are
    :class:`~repro.runtime.pool.WorkerPool`'s.  :meth:`start`
    rendezvouses K workers (blocking, bounded by the cluster's
    ``connect_timeout``) and starts the reactor thread.
    """

    def __init__(
        self,
        cluster: TcpCluster,
        on_done: Optional[Callable[[SubsetJob], None]] = None,
        on_idle: Optional[Callable[[], None]] = None,
        on_join: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        super().__init__(
            Rendezvous(cluster, resilient=True),
            cluster,
            name="SortService",
            resilient=True,
            on_done=on_done,
            on_idle=on_idle,
            on_join=on_join,
        )
