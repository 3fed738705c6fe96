"""The ``repro serve`` daemon: a multi-tenant sort service on one mesh.

A :class:`SortService` owns a standing ``tcp://`` worker mesh (one
:class:`~repro.runtime.pool.WorkerPool` over the cluster's
:class:`~repro.runtime.tcp.Rendezvous`) and a TCP *control port* where
many clients submit serialized :class:`~repro.session.JobSpec` jobs
concurrently.  It is the one job queue
(:class:`~repro.session.JobQueue`, whose docstring draws the job
lifecycle) under the :class:`~repro.service.scheduler.FairShareScheduler`:
admission control with typed rejections at submit, priority + fair-share
ordering at dispatch, and per-job worker subsets so a K'=4 job and a
K''=4 job overlap on one 8-worker mesh.  Its records are the queue's
:class:`~repro.session.JobHandle`\\ s, so retries, attempts and pacing
are the Session's, with one difference of entry point: the service
never re-forms the mesh, so it retries a typed
:class:`~repro.runtime.errors.WorkerFailure` only while enough workers
live for the job's width, and a retry is a fresh pool sequence number —
its frames can never alias the failed attempt's.

The daemon is deliberately a thin composition: scheduling policy lives
in ``scheduler.py`` (pure logic, unit-testable), subset execution and
failure scoping in :mod:`repro.runtime.pool` — whose workers outlive a
failed job — and the wire protocol in ``protocol.py``.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.pool import WorkerPool
from repro.runtime.tcp import Rendezvous, parse_address
from repro.service.protocol import MAX_REQUEST_BYTES, recv_obj, send_obj
from repro.service.scheduler import (
    AdmissionError,
    FairShareScheduler,
    QueuedJob,
    TenantQuota,
)
from repro.service.stats import ServiceStats, StatsRecorder
from repro.session import JobHandle, JobQueue, JobSpec

__all__ = ["SortService"]


class SortService(JobQueue):
    """The daemon: control port + the job queue under fair share.

    Constructing the service binds the control listener immediately (so
    :attr:`control_address` is printable before workers join);
    :meth:`start` rendezvouses the mesh (blocking until K workers have
    dialed in) and starts the accept and driver threads.

    Args:
        cluster: a ``tcp://`` :class:`~repro.cluster.Cluster`; its
            ``size`` is the scheduler's capacity.
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
        cluster,
        control: str = "tcp://127.0.0.1:0",
        max_queue_depth: int = 64,
        default_quota: Optional[TenantQuota] = None,
        quotas: Optional[Dict[str, TenantQuota]] = None,
        max_retries: int = 1,
        retry_backoff: float = 0.1,
        shrink_to_fit: bool = False,
    ) -> None:
        if cluster.scheme != "tcp":
            raise ValueError(
                "the sort service needs a tcp:// cluster, got "
                + cluster.address
            )
        host, port = parse_address(control)
        super().__init__(max_retries, retry_backoff, reform=False)
        self._pool = WorkerPool(
            Rendezvous(cluster), cluster, name="SortService"
        )
        self._scheduler = FairShareScheduler(
            cluster.size,
            max_queue_depth,
            default_quota,
            quotas,
            shrink_to_fit=shrink_to_fit,
        )
        self._stats = StatsRecorder(cluster.size)
        self._jobs: Dict[int, JobHandle] = {}
        self._next_job_id = 1
        self._accept: Optional[threading.Thread] = None
        #: Live per-request threads and their connections.
        self._conns: Dict[threading.Thread, socket.socket] = {}
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

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Rendezvous K workers (blocking, bounded by the cluster's
        ``connect_timeout``), then serve clients until :meth:`close`."""
        self._pool.start()
        self._start_driver("service-driver")
        self._accept = threading.Thread(
            target=self._accept_loop, daemon=True, name="service-accept"
        )
        self._accept.start()

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
        # The driver stops first, so no dispatch or retry reaches the
        # closed pool; then every record that is not terminal — queued,
        # running (the pool fails its jobs with nobody left to settle
        # them) or waiting out a retry — is settled here, so no client's
        # ``result`` poll outlives the service.
        self._stop_driver()
        self._pool.close()
        with self._lock:
            for handle in self._jobs.values():
                if not handle.done():
                    self._stats.finished(
                        handle.tenant, ok=False,
                        queued=handle.state == "queued",
                    )
                    handle._settle(
                        RuntimeError("service shut down"), kind="shutdown"
                    )
        if self._accept is not None:
            self._accept.join(timeout=10.0)
        # Every long-poll has its answer now; a request thread still
        # reading an idle client's request is woken by the shutdown.
        with self._lock:
            conns = dict(self._conns)
        deadline = time.monotonic() + 10.0
        for thread, conn in conns.items():
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # already closed by its thread
            thread.join(max(0.0, deadline - time.monotonic()))

    # -- stats / status -----------------------------------------------------

    def stats(self) -> ServiceStats:
        return self._stats.snapshot(
            workers_live=self._pool.live_workers(),
            workers_joined=self._pool.workers_joined,
            membership_epoch=self._pool.membership_epoch,
        )

    def describe_jobs(
        self, job_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        with self._lock:
            if job_id is not None:
                handle = self._jobs.get(job_id)
                return [handle.describe()] if handle is not None else []
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
    ) -> JobHandle:
        """Admit one job (or raise a typed
        :class:`~repro.service.scheduler.AdmissionError`).  Shared by
        the control port and in-process callers (tests, benchmarks)."""
        k = self._pool.size if workers is None else int(workers)
        try:
            spec.validate(k)
        except ValueError:
            self._stats.rejected(tenant)
            raise
        with self._lock:
            if self._closed:
                raise RuntimeError("service is shut down")
            handle = JobHandle(
                self._next_job_id, spec, k, tenant, int(priority)
            )
            # A rejoin may have grown the mesh since the last admission.
            self._scheduler.set_total_workers(self._pool.size)
            try:
                self._scheduler.submit(self._queued(handle))
            except AdmissionError:
                self._stats.rejected(tenant)
                raise
            self._next_job_id += 1
            self._jobs[handle.job_id] = handle
            self._stats.queued(tenant)
        self._pool.wake()
        return handle

    # -- policy: the fair-share scheduler ------------------------------------

    @staticmethod
    def _queued(handle: JobHandle) -> QueuedJob:
        return QueuedJob(
            job_id=handle.job_id,
            tenant=handle.tenant,
            priority=handle.priority,
            workers=handle.workers,
            est_bytes=handle.spec.input_bytes,
            payload=handle,
            enqueued_at=time.monotonic(),
            shrink=handle.spec.shrink_to,
        )

    def _pick(self) -> Optional[Tuple[JobHandle, List[int]]]:
        idle = self._pool.idle_workers()
        queued = self._scheduler.next_job(
            len(idle), live_workers=self._pool.live_workers()
        )
        if queued is None:
            return None
        self._stats.dispatched(
            queued.tenant, time.monotonic() - queued.enqueued_at
        )
        return queued.payload, idle[: queued.planned_workers]

    def _readmit(self, handle: JobHandle) -> None:
        # Bypasses admission: the job was already admitted once.
        self._scheduler.requeue(self._queued(handle))

    def _attempt_ended(self, handle: JobHandle, state: str) -> None:
        self._scheduler.job_finished(handle.tenant)
        if state == "queued":
            self._stats.requeued(handle.tenant)
        else:
            self._stats.finished(
                handle.tenant,
                ok=state == "done",
                bytes_sorted=handle.spec.input_bytes,
            )

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
            with self._lock:
                self._conns[t] = conn
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
                resp = ("error", "error", str(exc))
            try:
                send_obj(conn, resp)
            except (OSError, ConnectionError):  # pragma: no cover
                pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            with self._lock:
                self._conns.pop(threading.current_thread(), None)
        if req is not None and req and req[0] == "shutdown":
            self.close()

    def _handle_request(self, req: Any) -> Tuple:
        if not isinstance(req, tuple) or not req:
            raise RuntimeError(f"malformed service request: {req!r}")
        kind = req[0]
        if kind == "submit":
            _, spec, opts = req
            handle = self.submit(
                spec,
                tenant=opts.get("tenant", "default"),
                priority=opts.get("priority", 0),
                workers=opts.get("workers"),
            )
            return ("ok", handle.job_id)
        if kind == "status":
            job_id = req[1] if len(req) > 1 else None
            return ("ok", self.describe_jobs(job_id))
        if kind == "stats":
            return ("ok", self.stats())
        if kind == "result":
            _, job_id, timeout = req
            with self._lock:
                handle = self._jobs.get(job_id)
            if handle is None:
                raise RuntimeError(f"unknown job id {job_id}")
            if not handle.wait(
                min(self._RESULT_POLL_CAP, max(0.0, float(timeout)))
            ):
                return ("pending", handle.state)
            if handle.error is not None:
                return ("failed", *handle.error)
            # Third element since protocol v2: attempt metadata the
            # client surfaces on its handle (elastic re-plans).
            return (
                "ok",
                handle.result(),
                {
                    "replanned_k": handle.replanned_k,
                    "attempts": len(handle.attempts),
                },
            )
        if kind == "shutdown":
            return ("ok", None)  # close() runs after the response is sent
        raise RuntimeError(f"unknown service request {kind!r}")
