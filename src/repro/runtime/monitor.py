"""Driver-side job liveness tracking and speculation policy.

The :class:`~repro.runtime.pool.WorkerPool` reactor feeds worker
heartbeats (``("hb", rank, job_seq, stage)`` frames emitted by
``serve_pool_jobs``) and final results into one :class:`JobMonitor` per
job, then polls it for two decisions —

* **liveness**: a worker whose last heartbeat is older than
  ``failure_timeout`` is declared dead with a typed
  :class:`~repro.runtime.errors.WorkerFailure` (no more waiting for the
  EOF cascade);
* **speculation**: when the job's :class:`~repro.runtime.program
  .PreparedJob` carries a speculation config, the monitor watches which
  ranks have moved past the watched stage (default ``"map"``) and, once
  at least half have, nominates a backup rank for any straggler that has
  been in the stage for longer than
  ``max(min_wait, wait_factor x median completion time)``.  The pool
  broadcasts the resulting ``("speculate", straggler, backup)``
  directive to every worker; first finisher wins on the worker side.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.runtime.errors import WorkerFailure


class JobMonitor:
    """Per-job liveness + straggler bookkeeping for a pool driver loop."""

    def __init__(
        self,
        size: int,
        failure_timeout: float,
        speculation: Optional[Dict] = None,
        epoch: Optional[int] = None,
    ) -> None:
        now = time.monotonic()
        self.size = size
        self.failure_timeout = failure_timeout
        self.speculation = speculation
        #: Membership epoch the job was planned under (elastic pools).
        #: Feeds sourced via :meth:`heartbeat`/:meth:`result` with a
        #: newer member-incarnation epoch are rejected — a recycled rank
        #: must never refresh the liveness clock of a job dispatched
        #: before its replacement worker joined.
        self.epoch = epoch
        self._start = now
        self._last_heard = [now] * size
        self._stage = ["init"] * size
        self._past_watched = [False] * size
        self._done_at: List[Optional[float]] = [None] * size
        self._finished = [False] * size
        self._spec_assigned: Dict[int, int] = {}  # straggler -> backup
        self._busy_backups: set = set()

    # -- event feeds ---------------------------------------------------------

    def accepts(self, member_epoch: Optional[int]) -> bool:
        """Whether a feed from a member incarnation born at
        ``member_epoch`` belongs to this job (see ``epoch``)."""
        if self.epoch is None or member_epoch is None:
            return True
        return member_epoch <= self.epoch

    def heartbeat(
        self, rank: int, stage: str, member_epoch: Optional[int] = None
    ) -> None:
        if not self.accepts(member_epoch):
            return
        now = time.monotonic()
        self._last_heard[rank] = now
        self._stage[rank] = stage
        if self.speculation is not None and not self._past_watched[rank]:
            watched = self.speculation.get("stage", "map")
            if stage not in ("init", watched):
                self._past_watched[rank] = True
                self._done_at[rank] = now

    def result(
        self, rank: int, member_epoch: Optional[int] = None
    ) -> None:
        """A final ok/error report arrived from ``rank``."""
        if not self.accepts(member_epoch):
            return
        now = time.monotonic()
        self._last_heard[rank] = now
        self._finished[rank] = True
        if not self._past_watched[rank]:
            self._past_watched[rank] = True
            self._done_at[rank] = now

    def stage_of(self, rank: int) -> str:
        return self._stage[rank]

    # -- decisions -----------------------------------------------------------

    def check_liveness(self, pending) -> None:
        """Raise :class:`WorkerFailure` for the stalest silent worker."""
        now = time.monotonic()
        for rank in pending:
            silent = now - self._last_heard[rank]
            if silent > self.failure_timeout:
                raise WorkerFailure(
                    rank,
                    self._stage[rank],
                    f"no heartbeat for {silent:.1f}s "
                    f"(failure_timeout={self.failure_timeout}s)",
                )

    def speculation_directives(self) -> List[Tuple[int, int]]:
        """Newly decided ``(straggler, backup)`` pairs since the last call."""
        if self.speculation is None:
            return []
        done = [r for r in range(self.size) if self._past_watched[r]]
        if len(done) * 2 < self.size:
            return []
        now = time.monotonic()
        durations = sorted(self._done_at[r] - self._start for r in done)
        median = durations[len(durations) // 2]
        threshold = max(
            float(self.speculation.get("min_wait", 0.2)),
            float(self.speculation.get("wait_factor", 1.5)) * median,
        )
        fresh: List[Tuple[int, int]] = []
        for rank in range(self.size):
            if self._past_watched[rank] or rank in self._spec_assigned:
                continue
            if now - self._start <= threshold:
                continue
            backup = next(
                (
                    r
                    for r in done
                    if r != rank and r not in self._busy_backups
                ),
                None,
            )
            if backup is None:
                continue
            self._spec_assigned[rank] = backup
            self._busy_backups.add(backup)
            fresh.append((rank, backup))
        return fresh

    @property
    def speculation_active(self) -> bool:
        """True while a speculative backup might still need launching."""
        return (
            self.speculation is not None
            and not all(self._past_watched)
        )

    def poll_timeout(self, remaining: float) -> float:
        """How long the collection loop may block before checking again."""
        cap = max(0.01, self.failure_timeout / 4.0)
        if self.speculation_active:
            cap = min(cap, 0.02)
        return max(0.0, min(remaining, cap))
