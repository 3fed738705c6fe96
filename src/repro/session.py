"""Sessions: persistent worker pools, declarative job specs, job futures.

The paper's EC2 experiments amortize cluster setup across a whole
benchmark campaign; this module gives the driver API the same shape.  A
:class:`Session` owns a long-lived worker pool on the one
:class:`~repro.cluster.Cluster` (:func:`~repro.cluster.connect`:
``inproc://K`` threads, ``proc://K`` forked processes, or a multi-host
``tcp://HOST:PORT`` mesh) and accepts many jobs: on ``proc://`` the
fork + socketpair-mesh + reader-thread setup is paid once per session
instead of once per job, with workers running a control loop over their
standing mesh endpoint and building one
:class:`~repro.runtime.api.Comm` per job (each job shifted into its own
reserved tag window).

Jobs are *declarative*: a job is a validated spec dataclass —
:class:`~repro.core.terasort.TeraSortSpec`,
:class:`~repro.core.coded_terasort.CodedTeraSortSpec` or
:class:`~repro.core.cmr.MapReduceSpec` (with
``scheme="coded" | "uncoded"``) — defined next to the program it
describes and re-exported here; the spec class docstrings are the one
place each option's meaning, default and validity are written.  Jobs
are submitted through one call::

    from repro import Session, TeraSortSpec, CodedTeraSortSpec, connect

    with Session(connect("proc://8")) as session:
        base = session.submit(TeraSortSpec(data=data))
        fast = session.submit(CodedTeraSortSpec(data=data, redundancy=3))
        base.result().partitions  # JobHandle is a future
        fast.result().meta["schedule_rounds"]

:meth:`Session.submit` validates the spec synchronously (bad parameters
raise :class:`ValueError` in the caller) and returns a :class:`JobHandle`
future with ``result()`` / ``done()`` / ``wait()`` / ``exception()``;
jobs run strictly in submission order on one driver thread.  A session
is the one :class:`JobQueue` — whose docstring draws the job lifecycle
— under a FIFO policy; the sort service
(:class:`~repro.service.daemon.SortService`) is the same queue under its
fair-share scheduler.  Each job gets its own
:class:`~repro.runtime.program.ClusterResult` — stage times and traffic
are isolated per job id, never merged across jobs.  A failing job
reports its error on *its* handle and the session survives: subsequent
jobs run normally (the worker pool re-forms its mesh through its
transport — new threads, re-fork, or TCP re-join).

For a single job, :func:`run` opens a one-job session, submits, waits
and closes::

    run = repro.run(connect("inproc://6"), CodedTeraSortSpec(data=data, redundancy=2))
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.core.cmr import MapReduceSpec
from repro.core.coded_terasort import CodedTeraSortSpec
from repro.core.terasort import TeraSortSpec
from repro.runtime.errors import JobDeadlineExpired, WorkerFailure
from repro.runtime.pool import SubsetJob
from repro.runtime.program import ClusterResult, JobSpec, PreparedJob

__all__ = [
    "JobSpec",
    "TeraSortSpec",
    "CodedTeraSortSpec",
    "MapReduceSpec",
    "JobAttempt",
    "JobHandle",
    "Session",
    "run",
]


# ---------------------------------------------------------------------------
# Job futures.
# ---------------------------------------------------------------------------


@dataclass
class JobAttempt:
    """One execution attempt of a job (see :attr:`JobHandle.attempts`).

    Attributes:
        index: 0-based attempt number.
        duration: wall seconds this attempt ran on the pool.
        error: the typed failure that ended the attempt
            (:class:`~repro.runtime.errors.WorkerFailure` for the retried
            ones), or ``None`` for the successful attempt.
        replanned_k: when the sort service's ``shrink_to_fit`` policy
            re-planned this attempt onto fewer workers than the job
            asked for, the K' it actually ran at; ``None`` otherwise.
    """

    index: int
    duration: float
    error: Optional[BaseException] = None
    replanned_k: Optional[int] = None


def retry_delay(attempt: int, backoff: float, cap: float = 30.0) -> float:
    """Seconds to wait before re-submitting failed attempt ``attempt``.

    Bounded exponential: ``backoff * 2**attempt``, capped so a long retry
    budget cannot stall a queue for minutes.
    """
    return min(cap, backoff * (2 ** attempt))


class JobHandle:
    """Future and record for one submitted job, on either entry point.

    Settled by its queue's driver thread; all methods are safe to call
    from any thread, any number of times.

    Attributes:
        workers: the width the job asked for (a Session's: the pool
            size).
        tenant / priority: the sort service's scheduling keys.
        state: ``queued`` (also while waiting out a retry's backoff),
            ``running``, ``done`` or ``failed``.
        workers_used: global ranks of the latest attempt.
        replanned_k: the width the latest attempt ran at when the sort
            service's ``shrink_to_fit`` policy re-planned it below
            ``workers``; ``None`` otherwise.
        submitted_at / started_at / finished_at: wall-clock times.
        attempts: every attempt that ran, appended as each ends.  One
            entry for a job that ran cleanly or failed on its own merits;
            a job that survived worker failures records every failed
            attempt (with its typed
            :class:`~repro.runtime.errors.WorkerFailure`) before the
            successful one.
    """

    def __init__(
        self,
        job_id: int,
        spec: JobSpec,
        workers: int = 0,
        tenant: str = "default",
        priority: int = 0,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.workers = workers
        self.tenant = tenant
        self.priority = priority
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.workers_used: List[int] = []
        self.replanned_k: Optional[int] = None
        self.attempts: List[JobAttempt] = []
        self._event = threading.Event()
        self._result: Any = None
        self._cluster_result: Optional[ClusterResult] = None
        self._error: Optional[BaseException] = None
        self._error_kind = ""
        self._prepared: Optional[PreparedJob] = None
        self._started = 0.0  # monotonic start of the latest attempt
        self._not_before = 0.0  # monotonic time a retry may dispatch

    # -- settling (driver side) --------------------------------------------

    def _settle(
        self,
        error: Optional[BaseException],
        result: Any = None,
        cluster_result: Optional[ClusterResult] = None,
        kind: Optional[str] = None,
    ) -> None:
        self._result = result
        self._cluster_result = cluster_result
        self._error = error
        if error is not None:
            infra = isinstance(error, WorkerFailure)
            self._error_kind = kind or ("worker_failure" if infra else "error")
        self.state = "done" if error is None else "failed"
        self.finished_at = time.time()
        self._event.set()

    # -- future API --------------------------------------------------------

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self.wait(0.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did within ``timeout``."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's result (:class:`~repro.core.coded_terasort.SortRun`
        for the sort specs, :class:`~repro.core.cmr.CMRRun` for
        MapReduce).

        Blocks until completion; re-raises the job's error if it failed,
        and :class:`TimeoutError` if ``timeout`` expires first.
        """
        if self.exception(timeout) is not None:
            raise self._error
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The job's error (None on success); blocks like :meth:`result`."""
        if not self.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        return self._error

    def cluster_result(
        self, timeout: Optional[float] = None
    ) -> ClusterResult:
        """This job's raw :class:`~repro.runtime.program.ClusterResult`.

        Per-job isolation: stage times and the traffic log cover exactly
        this job id's transfers, nothing from neighbouring jobs on the
        same session.
        """
        self.result(timeout)  # propagate errors / wait
        assert self._cluster_result is not None
        return self._cluster_result

    @property
    def error(self) -> Optional[Tuple[str, str]]:
        """A failed job's ``(kind, message)`` — what the service's wire
        carries, since typed failures do not survive pickling: ``kind``
        is ``worker_failure``, ``shutdown`` or ``error``."""
        if self._error is None:
            return None
        return self._error_kind, str(self._error)

    def describe(self) -> Dict[str, Any]:
        """Picklable, JSON-able status row."""
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "priority": self.priority,
            "spec": type(self.spec).__name__,
            "workers": self.workers,
            "workers_used": list(self.workers_used),
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": len(self.attempts),
            "replanned_k": self.replanned_k,
            "error": list(self.error) if self.error else None,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"JobHandle(job_id={self.job_id}, "
            f"spec={type(self.spec).__name__}, {self.state})"
        )


# ---------------------------------------------------------------------------
# The one job queue.
# ---------------------------------------------------------------------------


class JobQueue:
    """Jobs over one :class:`~repro.runtime.pool.WorkerPool`, driven by
    one thread: the lifecycle both entry points share.

    ::

        submit -> queued -> running -> done
                    ^         |  \\-> failed   (program error, retries spent,
                    |         v                 too few live workers, shutdown)
                    +---- backoff               (WorkerFailure, budget left)

    The driver thread dispatches whatever the policy picks through
    :meth:`~repro.runtime.pool.WorkerPool.submit`, steps the pool's
    reactor itself and settles each finished attempt inline: it records
    the :class:`JobAttempt`, then finalizes the result, or — for a typed
    :class:`~repro.runtime.errors.WorkerFailure` within ``max_retries``
    — holds the job back for :func:`retry_delay` (a not-before time the
    step's wait honours) and hands it to the policy again, or fails the
    handle.  A program error is never retried, nor is the pool's
    whole-job deadline (:class:`~repro.runtime.errors.JobDeadlineExpired`).

    A subclass is the policy: :meth:`_pick` chooses the next job and its
    workers, :meth:`_readmit` takes a retry back, :meth:`_attempt_ended`
    observes each attempt's end and :meth:`_drained` says whether a
    closed queue may stop.  ``reform`` is the entry point's half of the
    pool contract: a queue that re-forms (a :class:`Session`) makes the
    mesh whole before each job and tears it down after a failed one, so
    a retry always finds its width; one that never re-forms (the sort
    service) retries only while enough workers live.
    """

    def __init__(
        self, max_retries: int, retry_backoff: float, reform: bool
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._reform = reform
        self._pool = None
        self._lock = threading.Lock()
        self._driver: Optional[threading.Thread] = None
        self._closed = False
        self._next_job_id = 0
        self._running: Dict[int, Tuple[SubsetJob, JobHandle]] = {}  # by seq
        self._backoff: List[JobHandle] = []

    @property
    def closed(self) -> bool:
        return self._closed

    # -- policy (subclass; lock held) ---------------------------------------

    def _pick(self) -> Optional[Tuple[JobHandle, List[int]]]:
        """The next job to dispatch and the global ranks it runs on."""
        raise NotImplementedError

    def _readmit(self, handle: JobHandle) -> None:
        """Take back a job whose retry backoff is over."""
        raise NotImplementedError

    def _attempt_ended(self, handle: JobHandle, state: str) -> None:
        """An attempt ended; ``state`` is what the handle becomes
        (``queued`` for a retry)."""

    def _drained(self) -> bool:
        """Whether a closed queue's driver may stop now."""
        return True

    # -- the driver ---------------------------------------------------------

    def _start_driver(self, name: str) -> None:
        self._driver = threading.Thread(
            target=self._loop, daemon=True, name=name
        )
        self._driver.start()

    def _stop_driver(self) -> None:
        """Wake the driver and wait for it to stop (any closer may)."""
        pool = self._pool
        if pool is not None:
            pool.wake()
        if self._driver is not None:
            self._driver.join()

    def _loop(self) -> None:
        pool = self._pool
        while True:
            for seq, (job, handle) in list(self._running.items()):
                if job.done.is_set():
                    del self._running[seq]
                    self._end(handle, job.error, job.cluster_result)
                    if job.error is not None and self._reform:
                        # After settling (a teardown waits on a stuck
                        # worker), before the next dispatch re-forms.
                        pool.teardown()
            with self._lock:
                now = time.monotonic()
                for handle in list(self._backoff):
                    if handle._not_before <= now:
                        self._backoff.remove(handle)
                        self._readmit(handle)
                if self._closed and self._drained():
                    return
                picked = self._pick()
                if picked is not None:
                    handle, members = picked
                    handle.state = "running"
                    handle.started_at = time.time()
                    handle.workers_used = members
                    width = len(members)
                    handle.replanned_k = (
                        width if width != handle.workers else None
                    )
            if picked is not None:
                self._dispatch(handle, members)
                continue
            pool._step(min(
                [pool._POLL] + [h._not_before - now for h in self._backoff]
            ))

    def _dispatch(self, handle: JobHandle, members: List[int]) -> None:
        handle._started = time.monotonic()
        try:
            # Re-prepare when this attempt's width differs from the
            # cached plan (first dispatch, or a shrink-to-fit re-plan /
            # full-width retry after one).
            if (
                handle._prepared is None
                or len(handle._prepared.payloads) != len(members)
            ):
                handle._prepared = handle.spec.prepare(len(members))
            if self._reform:
                self._pool.ready()
            job = self._pool.submit(members, handle._prepared)
        except BaseException as exc:  # noqa: BLE001 - fail the handle
            self._end(handle, exc)
            return
        self._running[job.seq] = (job, handle)

    def _end(
        self,
        handle: JobHandle,
        error: Optional[BaseException],
        cluster_result: Optional[ClusterResult] = None,
    ) -> None:
        """Settle one attempt: record it, then finalize, retry or fail."""
        result = None
        if error is None:
            try:
                result = handle._prepared.finalize(cluster_result)
            except BaseException as exc:  # noqa: BLE001 - fail the handle
                error = exc
        retry = (
            isinstance(error, WorkerFailure)
            and not isinstance(error, JobDeadlineExpired)
            and len(handle.attempts) < self._max_retries
            and (
                self._reform
                or self._pool.live_workers() >= handle.workers
            )
        )
        with self._lock:
            handle.attempts.append(JobAttempt(
                index=len(handle.attempts),
                duration=time.monotonic() - handle._started,
                error=error,
                replanned_k=handle.replanned_k,
            ))
            if retry:
                handle.state = "queued"
                handle._not_before = time.monotonic() + retry_delay(
                    len(handle.attempts) - 1, self._retry_backoff
                )
                self._backoff.append(handle)
                self._attempt_ended(handle, "queued")
                return
            self._attempt_ended(handle, "done" if error is None else "failed")
            handle._settle(error, result, cluster_result)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# The session.
# ---------------------------------------------------------------------------


class Session(JobQueue):
    """A standing cluster accepting many jobs (context manager): the job
    queue with a FIFO policy, one job at a time on every worker.

    Args:
        cluster: a :class:`~repro.cluster.Cluster` (anything with
            ``size`` and ``create_pool()``).  The cluster object only
            carries configuration; the session owns the actual pool.
        max_retries: how many times a job that failed to *infrastructure*
            (a typed :class:`~repro.runtime.errors.WorkerFailure`: worker
            crash, silent worker past the failure timeout, comm cascade)
            is automatically re-submitted.  The pool re-forms between
            attempts (new threads, re-fork, or worker re-join on TCP) and
            re-runs produce byte-identical output because job specs are
            deterministic descriptors.  Program errors — the job's own
            code raising — and the pool's whole-job deadline are never
            retried.
            Default 0: a failure fails the handle.
        retry_backoff: base seconds waited before re-submitting; attempt
            ``n`` waits ``retry_backoff * 2**(n-1)`` (bounded exponential
            backoff so a flapping host isn't hammered).
        failure_timeout: override the cluster's mid-job worker liveness
            bound (seconds without a heartbeat before a worker is
            declared dead); ``None`` keeps the cluster's own setting.

    The worker pool starts lazily with the first job, jobs run strictly
    in submission order (a retry before anything submitted after it),
    and :meth:`close` (or leaving the ``with`` block) drains every
    queued job — and every job waiting out a retry — before shutting the
    pool down.
    """

    def __init__(
        self,
        cluster,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        failure_timeout: Optional[float] = None,
    ) -> None:
        if getattr(cluster, "create_pool", None) is None:
            raise TypeError(
                f"{type(cluster).__name__} does not support sessions "
                "(no create_pool())"
            )
        super().__init__(max_retries, retry_backoff, reform=True)
        if failure_timeout is not None and failure_timeout <= 0:
            raise ValueError(
                f"failure_timeout must be > 0, got {failure_timeout}"
            )
        self._cluster = cluster
        self._failure_timeout = failure_timeout
        self._fifo: Deque[JobHandle] = deque()

    @property
    def size(self) -> int:
        """Number of worker nodes (the paper's ``K``)."""
        return self._cluster.size

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Queue one job; returns its :class:`JobHandle` future.

        The spec is validated against the cluster size *synchronously*
        (bad parameters raise :class:`ValueError` here, not on the
        handle); everything else — preparation, execution, result
        assembly — happens on the driver thread in submission order.

        Raises:
            ValueError: the spec cannot run on this cluster.
            RuntimeError: the session is closed.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(
                f"submit() takes a JobSpec, got {type(spec).__name__}"
            )
        spec.validate(self.size)
        with self._lock:
            if self._closed:
                raise RuntimeError("session is closed")
            handle = JobHandle(self._next_job_id, spec, self.size)
            self._next_job_id += 1
            self._fifo.append(handle)
            if self._pool is None:
                self._pool = self._cluster.create_pool()
                if self._failure_timeout is not None:
                    # The override is the pool's state, never written
                    # back to the (possibly shared) cluster object.
                    self._pool.failure_timeout = self._failure_timeout
                self._start_driver("session-driver")
        self._pool.wake()
        return handle

    def run(self, spec: JobSpec) -> Any:
        """Submit one job and block for its result (convenience)."""
        return self.submit(spec).result()

    # -- policy -------------------------------------------------------------

    def _pick(self) -> Optional[Tuple[JobHandle, List[int]]]:
        if self._running or self._backoff or not self._fifo:
            return None
        return self._fifo.popleft(), list(range(self.size))

    def _readmit(self, handle: JobHandle) -> None:
        self._fifo.appendleft(handle)

    def _drained(self) -> bool:
        return not (self._fifo or self._running or self._backoff)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Drain queued jobs, stop the driver, shut the pool down.

        Idempotent.  Jobs already submitted still run to completion (their
        handles complete normally); new submissions raise.
        """
        with self._lock:
            self._closed = True
        # Every closer joins the (possibly already finished) driver, so a
        # concurrent second close() cannot reach the pool shutdown while
        # the first caller's driver still has a job in flight.
        self._stop_driver()
        with self._lock:  # a second closer returns once the pool is down
            if self._pool is not None:
                self._pool.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session({type(self._cluster).__name__}(size={self.size}), "
            f"{state}, {self._next_job_id} jobs submitted)"
        )


def run(cluster, spec: JobSpec) -> Any:
    """Run one job on ``cluster`` and return its result.

    Opens a one-job :class:`Session`, submits ``spec``, waits, and closes
    the session (and with it the worker pool) whether the job succeeded
    or raised.  Hold a :class:`Session` open instead to amortize the
    cluster setup across many jobs.
    """
    with Session(cluster) as session:
        return session.run(spec)
