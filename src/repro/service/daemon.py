"""The ``repro serve`` daemon: a multi-tenant sort service on one mesh.

A :class:`SortService` owns a standing :class:`~repro.runtime.tcp
.TcpCluster` worker mesh (the one :class:`~repro.runtime.pool.WorkerPool`
reactor on its own thread, over the cluster's
:class:`~repro.runtime.tcp.Rendezvous`) and a TCP *control port* where
many clients submit serialized
:class:`~repro.session.JobSpec` jobs concurrently.  Between the two sits
the :class:`~repro.service.scheduler.FairShareScheduler`: admission
control with typed rejections at submit, priority + fair-share ordering
at dispatch, and per-job worker subsets so a K'=4 job and a K''=4 job
overlap on one 8-worker mesh.

Job lifecycle (all transitions under the service lock)::

    submit -> queued -> running -> done
                 ^          |  \\-> failed       (program error, timeout)
                 |          v
                 +------ retrying               (WorkerFailure, budget left)

Retries mirror :class:`~repro.session.Session`: only typed
:class:`~repro.runtime.errors.WorkerFailure` is retried, with the same
:func:`~repro.session.retry_delay` pacing, and a retry is a fresh pool
sequence number — its frames can never alias the failed attempt's.

The daemon is deliberately a thin composition: scheduling policy lives
in ``scheduler.py`` (pure logic, unit-testable), subset execution and
failure scoping in :mod:`repro.runtime.pool` — whose workers outlive a
failed job, and which the daemon never re-forms — and the wire protocol
in ``protocol.py``.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.errors import RuntimeTimeoutError, WorkerFailure
from repro.runtime.pool import SubsetJob, WorkerPool
from repro.runtime.program import PreparedJob
from repro.runtime.tcp import Rendezvous, TcpCluster, parse_address
from repro.service.protocol import MAX_REQUEST_BYTES, recv_obj, send_obj
from repro.service.scheduler import (
    AdmissionError,
    FairShareScheduler,
    QueuedJob,
    TenantQuota,
)
from repro.service.stats import ServiceStats, StatsRecorder
from repro.session import JobAttempt, JobSpec, retry_delay

__all__ = ["ServiceJob", "SortService"]


@dataclass
class ServiceJob:
    """Daemon-side record of one submitted job (the unit ``status``
    reports on).  ``error`` is a ``(kind, message)`` string pair — the
    runtime's typed failures do not survive pickling, and the control
    port should ship data, not exception objects."""

    job_id: int
    tenant: str
    priority: int
    spec: JobSpec
    workers: int
    est_bytes: int
    state: str = "queued"  # queued | running | done | failed
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    workers_used: List[int] = field(default_factory=list)
    attempts: List[JobAttempt] = field(default_factory=list)
    attempt: int = 0
    #: Set while the current attempt runs at a shrink-to-fit width K'
    #: below the requested ``workers``; recorded on the attempt.
    replanned_k: Optional[int] = None
    error: Optional[Tuple[str, str]] = None
    result: Any = None
    prepared: Optional[PreparedJob] = None
    enqueued_mono: float = 0.0
    done: threading.Event = field(default_factory=threading.Event)

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


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, WorkerFailure):
        return "worker_failure"
    if isinstance(exc, RuntimeTimeoutError):
        return "timeout"
    return "error"


class SortService:
    """The daemon: control port + scheduler + subset pool.

    Constructing the service binds the control listener immediately (so
    :attr:`control_address` is printable before workers join);
    :meth:`start` rendezvouses the mesh (blocking until K workers have
    dialed in) and starts the accept and dispatch threads.

    Args:
        cluster: mesh spec; its ``size`` is the scheduler's capacity.
        control: ``tcp://HOST:PORT`` for the control port (port 0 picks
            an ephemeral one).
        max_queue_depth / default_quota / quotas: admission policy, see
            :class:`~repro.service.scheduler.FairShareScheduler`.
        max_retries: WorkerFailure retry budget per job.
        retry_backoff: base of the shared bounded-exponential pacing.
        shrink_to_fit: let the scheduler re-plan a queued shrinkable job
            onto fewer free workers when nothing fits at full width (see
            :class:`~repro.service.scheduler.FairShareScheduler`); the
            re-plan is recorded as ``replanned_k`` on the job's attempt
            metadata and status rows.
    """

    #: Cap one ``("result", ...)`` long-poll; clients re-poll.
    _RESULT_POLL_CAP = 30.0

    def __init__(
        self,
        cluster: TcpCluster,
        control: str = "tcp://127.0.0.1:0",
        max_queue_depth: int = 64,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        max_retries: int = 1,
        retry_backoff: float = 0.1,
        shrink_to_fit: bool = False,
    ) -> None:
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._kick = threading.Event()
        self._pool = WorkerPool(
            Rendezvous(cluster),
            cluster,
            name="SortService",
            on_done=self._job_done,
            on_idle=self._kick.set,
            on_join=self._worker_joined,
        )
        self._scheduler = FairShareScheduler(
            cluster.size,
            max_queue_depth,
            default_quota,
            quotas,
            shrink_to_fit=shrink_to_fit,
        )
        self._stats = StatsRecorder(cluster.size)
        self._jobs: Dict[int, ServiceJob] = {}
        self._inflight: Dict[int, ServiceJob] = {}  # pool seq -> record
        self._next_id = 1
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._lock = threading.Lock()
        self._closed = False
        self._threads: List[threading.Thread] = []
        host, port = parse_address(control)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            self._listener.close()
            raise RuntimeError(
                f"cannot bind control port {host}:{port}: {exc}"
            ) from exc
        self._listener.listen(64)
        self._control_host = host
        self._control_port = self._listener.getsockname()[1]

    @property
    def control_address(self) -> str:
        return f"tcp://{self._control_host}:{self._control_port}"

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Rendezvous K workers (blocking, bounded by the cluster's
        ``connect_timeout``), then serve clients until :meth:`close`."""
        self._pool.start()
        for name, target in (
            ("service-accept", self._accept_loop),
            ("service-dispatch", self._dispatch_loop),
        ):
            t = threading.Thread(target=target, daemon=True, name=name)
            t.start()
            self._threads.append(t)

    def close(self) -> None:
        """Stop accepting, fail queued and running jobs, stop workers.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        try:
            # A closed listener does not wake a thread blocked in
            # accept() on Linux; shutting it down first does.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        self._kick.set()
        self._pool.close()
        # Settle every record that is not terminal: still in the
        # scheduler's queue, running (the pool fails its in-flight jobs
        # without a completion callback), or waiting out a retry backoff
        # (``_requeue`` drops it once closed) — so no client's ``result``
        # poll outlives the service.
        with self._lock:
            self._inflight.clear()
            for record in self._jobs.values():
                if record.state in ("queued", "running"):
                    record.state = "failed"
                    record.error = ("shutdown", "service shut down")
                    record.finished_at = time.time()
                    self._stats.finished(record.tenant, ok=False)
                    record.done.set()
        for t in self._threads:
            if t is not threading.current_thread():
                t.join(timeout=10.0)

    def __enter__(self) -> "SortService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- stats / status -----------------------------------------------------

    def stats(self) -> ServiceStats:
        return self._stats.snapshot(
            workers_live=self._pool.live_workers(),
            workers_joined=self._pool.workers_joined,
            membership_epoch=self._pool.membership_epoch,
        )

    def _worker_joined(self, rank: int, epoch: int) -> None:
        """Pool callback: a replacement worker is live at ``rank``."""
        with self._lock:
            self._scheduler.set_total_workers(self._pool.size)
        self._kick.set()

    def describe_jobs(
        self, job_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        with self._lock:
            if job_id is not None:
                record = self._jobs.get(job_id)
                return [record.describe()] if record is not None else []
            return [
                self._jobs[jid].describe() for jid in sorted(self._jobs)
            ]

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "default",
        priority: int = 0,
        workers: Optional[int] = None,
    ) -> ServiceJob:
        """Admit one job (or raise a typed
        :class:`~repro.service.scheduler.AdmissionError`).  Shared by
        the control port and in-process callers (tests, benchmarks)."""
        k = self._pool.size if workers is None else int(workers)
        try:
            spec.validate(k)
        except ValueError:
            with self._lock:
                self._stats.rejected(tenant)
            raise
        est_bytes = spec.input_bytes
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            record = ServiceJob(
                job_id=self._next_id,
                tenant=tenant,
                priority=int(priority),
                spec=spec,
                workers=k,
                est_bytes=est_bytes,
                submitted_at=time.time(),
                enqueued_mono=time.monotonic(),
            )
            try:
                self._scheduler.submit(
                    QueuedJob(
                        job_id=record.job_id,
                        tenant=tenant,
                        priority=record.priority,
                        workers=k,
                        est_bytes=est_bytes,
                        payload=record,
                        enqueued_at=record.enqueued_mono,
                        shrink=spec.shrink_to,
                    )
                )
            except AdmissionError:
                self._stats.rejected(tenant)
                raise
            self._next_id += 1
            self._jobs[record.job_id] = record
            self._stats.queued(tenant)
        self._kick.set()
        return record

    # -- dispatch loop ------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            self._kick.wait(timeout=0.2)
            self._kick.clear()
            if self._closed:
                return
            while self._dispatch_one():
                pass

    def _dispatch_one(self) -> bool:
        """Dispatch at most one queued job; True if one was started."""
        with self._lock:
            if self._closed:
                return False
            idle = self._pool.idle_workers()
            queued = self._scheduler.next_job(
                len(idle), live_workers=self._pool.live_workers()
            )
            if queued is None:
                return False
            record: ServiceJob = queued.payload
            planned = queued.planned_workers or record.workers
            members = idle[:planned]
            record.state = "running"
            record.started_at = time.time()
            record.workers_used = members
            record.replanned_k = planned if planned != record.workers else None
            self._stats.dispatched(
                record.tenant, time.monotonic() - queued.enqueued_at
            )
            try:
                # Re-prepare when this attempt's width differs from the
                # cached plan (first dispatch, or a shrink-to-fit
                # re-plan / full-width retry after one).
                if (
                    record.prepared is None
                    or len(record.prepared.payloads) != planned
                ):
                    record.prepared = record.spec.prepare(planned)
                subset = self._pool.submit(members, record.prepared)
            except BaseException as exc:  # noqa: BLE001 - fail the record
                self._scheduler.job_finished(record.tenant)
                record.state = "failed"
                record.error = (_error_kind(exc), str(exc))
                record.finished_at = time.time()
                self._stats.finished(record.tenant, ok=False)
                record.done.set()
                return True
            self._inflight[subset.seq] = record
        return True

    # -- completion (reactor thread, no pool lock held) ---------------------

    def _job_done(self, subset: SubsetJob) -> None:
        retry_in: Optional[float] = None
        with self._lock:
            record = self._inflight.pop(subset.seq, None)
            if record is None:
                return
            self._scheduler.job_finished(record.tenant)
            started = record.started_at or time.time()
            duration = time.time() - started
            if subset.error is None:
                try:
                    assert record.prepared is not None
                    record.result = record.prepared.finalize(
                        subset.cluster_result
                    )
                except BaseException as exc:  # noqa: BLE001
                    self._fail_locked(record, exc, duration)
                else:
                    record.attempts.append(
                        JobAttempt(
                            index=record.attempt,
                            duration=duration,
                            replanned_k=record.replanned_k,
                        )
                    )
                    record.state = "done"
                    record.finished_at = time.time()
                    self._stats.finished(
                        record.tenant, ok=True, bytes_sorted=record.est_bytes
                    )
                    record.done.set()
            elif (
                isinstance(subset.error, WorkerFailure)
                and not isinstance(subset.error, RuntimeTimeoutError)
                and record.attempt < self._max_retries
                and self._pool.live_workers() >= record.workers
                and not self._closed
            ):
                record.attempts.append(
                    JobAttempt(
                        index=record.attempt,
                        duration=duration,
                        error=subset.error,
                        replanned_k=record.replanned_k,
                    )
                )
                retry_in = retry_delay(record.attempt, self._retry_backoff)
                record.attempt += 1
                record.state = "queued"
                record.enqueued_mono = time.monotonic()
                self._stats.requeued(record.tenant)
            else:
                self._fail_locked(record, subset.error, duration)
        if retry_in is not None:
            # Off-thread backoff (never sleep on the reactor): requeue
            # bypasses admission — the job was already admitted once.
            timer = threading.Timer(retry_in, self._requeue, args=(record,))
            timer.daemon = True
            timer.start()
        self._kick.set()

    def _fail_locked(
        self, record: ServiceJob, exc: BaseException, duration: float
    ) -> None:
        record.attempts.append(
            JobAttempt(
                index=record.attempt,
                duration=duration,
                error=exc,
                replanned_k=record.replanned_k,
            )
        )
        record.state = "failed"
        record.error = (_error_kind(exc), str(exc))
        record.finished_at = time.time()
        self._stats.finished(record.tenant, ok=False)
        record.done.set()

    def _requeue(self, record: ServiceJob) -> None:
        with self._lock:
            if self._closed or record.state != "queued":
                return
            self._scheduler.requeue(
                QueuedJob(
                    job_id=record.job_id,
                    tenant=record.tenant,
                    priority=record.priority,
                    workers=record.workers,
                    est_bytes=record.est_bytes,
                    payload=record,
                    enqueued_at=record.enqueued_mono,
                    shrink=record.spec.shrink_to,
                )
            )
        self._kick.set()

    # -- control port -------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            t = threading.Thread(
                target=self._serve_conn, args=(conn,), daemon=True,
                name="service-conn",
            )
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        req: Any = None
        try:
            conn.settimeout(self._RESULT_POLL_CAP + 30.0)
            try:
                req = recv_obj(conn, MAX_REQUEST_BYTES)
            except (OSError, ConnectionError):
                return
            try:
                resp = self._handle_request(req)
            except AdmissionError as exc:
                resp = ("rejected", exc.kind, str(exc))
            except ValueError as exc:  # submit: the spec's own validate
                resp = ("rejected", "invalid", str(exc))
            except BaseException as exc:  # noqa: BLE001 - report, don't die
                resp = ("error", _error_kind(exc), str(exc))
            try:
                send_obj(conn, resp)
            except (OSError, ConnectionError):  # pragma: no cover
                pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
        if req is not None and req and req[0] == "shutdown":
            self.close()

    def _handle_request(self, req: Any) -> Tuple:
        if not isinstance(req, tuple) or not req:
            raise RuntimeError(f"malformed service request: {req!r}")
        kind = req[0]
        if kind == "submit":
            _, spec, opts = req
            record = self.submit(
                spec,
                tenant=opts.get("tenant", "default"),
                priority=opts.get("priority", 0),
                workers=opts.get("workers"),
            )
            return ("ok", record.job_id)
        if kind == "status":
            job_id = req[1] if len(req) > 1 else None
            return ("ok", self.describe_jobs(job_id))
        if kind == "stats":
            return ("ok", self.stats())
        if kind == "result":
            _, job_id, timeout = req
            with self._lock:
                record = self._jobs.get(job_id)
            if record is None:
                raise RuntimeError(f"unknown job id {job_id}")
            record.done.wait(
                min(self._RESULT_POLL_CAP, max(0.0, float(timeout)))
            )
            if not record.done.is_set():
                return ("pending", record.state)
            if record.state == "done":
                # Third element since protocol v2: attempt metadata the
                # client surfaces on its handle (elastic re-plans).
                return (
                    "ok",
                    record.result,
                    {
                        "replanned_k": record.replanned_k,
                        "attempts": len(record.attempts),
                    },
                )
            assert record.error is not None
            return ("failed", record.error[0], record.error[1])
        if kind == "shutdown":
            return ("ok", None)  # close() runs after the response is sent
        raise RuntimeError(f"unknown service request {kind!r}")
