"""Sessions: persistent worker pools, declarative job specs, job futures.

The paper's EC2 experiments amortize cluster setup across a whole
benchmark campaign; this module gives the driver API the same shape.  A
:class:`Session` owns a long-lived worker pool on any backend
(:class:`~repro.runtime.inproc.ThreadCluster`,
:class:`~repro.runtime.process.ProcessCluster`, or the multi-host
:class:`~repro.runtime.tcp.TcpCluster`) and accepts many jobs:
on the process backend the fork + socketpair-mesh + reader-thread setup
is paid once per session instead of once per job, with workers running a
control loop over their standing mesh endpoint and building one
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

    from repro import Session, ProcessCluster, TeraSortSpec, CodedTeraSortSpec

    with Session(ProcessCluster(8)) as session:
        base = session.submit(TeraSortSpec(data=data))
        fast = session.submit(CodedTeraSortSpec(data=data, redundancy=3))
        base.result().partitions  # JobHandle is a future
        fast.result().meta["schedule_rounds"]

:meth:`Session.submit` validates the spec synchronously (bad parameters
raise :class:`ValueError` in the caller) and returns a :class:`JobHandle`
future with ``result()`` / ``done()`` / ``wait()`` / ``exception()``;
jobs run strictly in submission order on a background driver thread.
Each job gets its own :class:`~repro.runtime.program.ClusterResult` —
stage times and traffic are isolated per job id, never merged across
jobs.  A failing job reports its error on *its* handle and the session
survives: subsequent jobs run normally (the worker pool re-forms its
mesh through its transport — new threads, re-fork, or TCP re-join).

For a single job, :func:`run` opens a one-job session, submits, waits
and closes::

    run = repro.run(ThreadCluster(6), CodedTeraSortSpec(data=data, redundancy=2))
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.cmr import MapReduceSpec
from repro.core.coded_terasort import CodedTeraSortSpec
from repro.core.terasort import TeraSortSpec
from repro.runtime.errors import WorkerFailure
from repro.runtime.program import ClusterResult, JobSpec

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
            re-planned this attempt onto fewer workers than the spec
            asked for, the K' it actually ran at; ``None`` otherwise.
    """

    index: int
    duration: float
    error: Optional[BaseException] = None
    replanned_k: Optional[int] = None


def retry_delay(attempt: int, backoff: float, cap: float = 30.0) -> float:
    """Seconds to sleep before re-submitting failed attempt ``attempt``.

    Bounded exponential: ``backoff * 2**attempt``, capped so a long retry
    budget cannot stall a driver for minutes.  Shared by the in-process
    :class:`Session` driver and the sort service's scheduler, so both
    retry with identical pacing.
    """
    return min(cap, backoff * (2 ** attempt))


class JobHandle:
    """Future for one submitted job.

    Completed by the session's driver thread; all methods are safe to
    call from any thread, any number of times.

    Attributes:
        attempts: per-attempt history, appended by the driver as each
            attempt ends.  One entry for a job that ran cleanly; a job
            that survived worker failures records every failed attempt
            (with its typed :class:`~repro.runtime.errors.WorkerFailure`)
            before the successful one.
    """

    def __init__(self, job_id: int, spec: JobSpec) -> None:
        self.job_id = job_id
        self.spec = spec
        self.attempts: List[JobAttempt] = []
        self._event = threading.Event()
        self._result: Any = None
        self._cluster_result: Optional[ClusterResult] = None
        self._error: Optional[BaseException] = None

    # -- completion (driver side) -----------------------------------------

    def _complete(
        self, result: Any, cluster_result: ClusterResult
    ) -> None:
        self._result = result
        self._cluster_result = cluster_result
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    # -- future API --------------------------------------------------------

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._event.is_set()

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
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The job's error (None on success); blocks like :meth:`result`."""
        if not self._event.wait(timeout):
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.done()
            else ("failed" if self._error is not None else "done")
        )
        return (
            f"JobHandle(job_id={self.job_id}, "
            f"spec={type(self.spec).__name__}, {state})"
        )


# ---------------------------------------------------------------------------
# The session.
# ---------------------------------------------------------------------------


class Session:
    """A standing cluster accepting many jobs (context manager).

    Args:
        cluster: a :class:`~repro.runtime.inproc.ThreadCluster` or
            :class:`~repro.runtime.process.ProcessCluster` (anything with
            ``size`` and ``create_pool()``).  The cluster object only
            carries configuration; the session owns the actual pool.
        max_retries: how many times a job that failed to *infrastructure*
            (a typed :class:`~repro.runtime.errors.WorkerFailure`: worker
            crash, silent worker past the failure timeout, comm cascade)
            is automatically re-submitted.  The pool re-forms between
            attempts (new threads, re-fork, or worker re-join on TCP)
            and re-runs produce byte-identical output because job
            specs are deterministic descriptors.  Program errors — the
            job's own code raising — are never retried.  Default 0: a
            failure fails the handle, matching the pre-retry behaviour.
        retry_backoff: base seconds slept before re-submitting; attempt
            ``n`` waits ``retry_backoff * 2**(n-1)`` (bounded exponential
            backoff so a flapping host isn't hammered).
        failure_timeout: override the cluster's mid-job worker liveness
            bound (seconds without a heartbeat before a worker is
            declared dead); ``None`` keeps the cluster's own setting.

    The worker pool starts lazily with the first job, jobs run strictly
    in submission order, and :meth:`close` (or leaving the ``with``
    block) drains every queued job before shutting the pool down.
    """

    def __init__(
        self,
        cluster,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        failure_timeout: Optional[float] = None,
    ) -> None:
        create_pool = getattr(cluster, "create_pool", None)
        if create_pool is None:
            raise TypeError(
                f"{type(cluster).__name__} does not support sessions "
                "(no create_pool())"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if failure_timeout is not None:
            if failure_timeout <= 0:
                raise ValueError(
                    f"failure_timeout must be > 0, got {failure_timeout}"
                )
        self._cluster = cluster
        self._failure_timeout = failure_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._pool = None
        self._queue: List[JobHandle] = []
        self._cond = threading.Condition()
        self._close_lock = threading.Lock()
        self._driver: Optional[threading.Thread] = None
        self._closed = False
        self._next_job_id = 0

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
        with self._cond:
            if self._closed:
                raise RuntimeError("session is closed")
            handle = JobHandle(self._next_job_id, spec)
            self._next_job_id += 1
            self._queue.append(handle)
            if self._driver is None:
                self._driver = threading.Thread(
                    target=self._drive, daemon=True, name="session-driver"
                )
                self._driver.start()
            self._cond.notify_all()
        return handle

    def run(self, spec: JobSpec) -> Any:
        """Submit one job and block for its result (convenience)."""
        return self.submit(spec).result()

    # -- driver -------------------------------------------------------------

    def _drive(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                handle = self._queue.pop(0)
            try:
                prepared = handle.spec.prepare(self.size)
                if self._pool is None:
                    self._pool = self._cluster.create_pool()
                    if self._failure_timeout is not None:
                        # The override is the pool's state, never written
                        # back to the (possibly shared) cluster object.
                        self._pool.failure_timeout = self._failure_timeout
                attempt = 0
                while True:
                    started = time.monotonic()
                    try:
                        cluster_result = self._pool.run_job(prepared)
                    except WorkerFailure as failure:
                        # Infrastructure died under the job.  Record the
                        # attempt and, within budget, re-submit: run_job
                        # re-forms the pool (re-fork / worker re-join) and
                        # the deterministic spec re-runs byte-identically.
                        handle.attempts.append(
                            JobAttempt(
                                index=attempt,
                                duration=time.monotonic() - started,
                                error=failure,
                            )
                        )
                        if attempt >= self._max_retries:
                            raise
                        time.sleep(retry_delay(attempt, self._retry_backoff))
                        attempt += 1
                        continue
                    handle.attempts.append(
                        JobAttempt(
                            index=attempt,
                            duration=time.monotonic() - started,
                        )
                    )
                    handle._complete(
                        prepared.finalize(cluster_result), cluster_result
                    )
                    break
            except BaseException as exc:  # noqa: BLE001 - fail the handle
                handle._fail(exc)

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain queued jobs, stop the driver, shut the pool down.

        Idempotent.  Jobs already submitted still run to completion (their
        handles complete normally); new submissions raise.
        """
        with self._cond:
            self._closed = True
            driver = self._driver
            self._cond.notify_all()
        # Every closer joins the (possibly already finished) driver, so a
        # concurrent second close() cannot reach the pool shutdown while
        # the first caller's driver still has a job in flight.
        if driver is not None:
            driver.join()
        with self._close_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

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
