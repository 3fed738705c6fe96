"""The one worker pool: a driver-side reactor over any worker transport.

The paper's implementation (§V, Fig. 8) is one coordinator and K workers
running one program.  This module is that coordinator.  Everything that
happens *after* K workers and their control channels exist — dispatch,
per-job :class:`~repro.runtime.monitor.JobMonitor`, heartbeats,
speculation directives, abort, the grace window, the job deadline,
:func:`~repro.runtime.errors.job_failure` classification and
:func:`~repro.runtime.program.assemble_cluster_result` — lives here
once, for every backend.

A **transport** only answers how the workers come to exist and how a
replacement arrives:

* :class:`~repro.runtime.inproc.InprocMesh` starts K worker threads
  over shared mailboxes;
* :class:`~repro.runtime.process.ForkMesh` forks K workers over a
  ``socketpair`` mesh, each behind one more ``socketpair``;
* :class:`~repro.runtime.tcp.Rendezvous` admits K ``repro worker``
  agents through the versioned TCP handshake, and admits mid-flight
  rejoiners through the same routine.

A **control channel** is anything with ``send(obj)`` / ``recv()`` /
``fileno()`` / ``close()``.  Forked and TCP workers both sit behind a
:class:`~repro.runtime.transport.Channel` — one socket, one framing,
one codec, results' arrays out of band — and a worker thread's passes
objects by reference with a socket byte as doorbell.

The pool runs any number of concurrent jobs on disjoint member subsets
(:meth:`WorkerPool.submit`) and never starts a thread to do it: whoever
drives it steps the reactor (:meth:`WorkerPool._step`).  That is the one
job queue's driver thread (:class:`~repro.session.JobQueue`, behind both
:class:`~repro.session.Session` and the sort service), or the caller of
:meth:`WorkerPool.run_job` — ``submit(all members)`` + step until done +
raise, what ``cluster.run`` calls.

Failure is job-scoped and workers outlive it: only the job whose
members include a failed or dead worker fails, and its survivors get
``("ctl", seq, ("abort", reason))`` so their abort-polling receives
unwind in ~100 ms.  The entry point decides what happens next:

* a Session (and ``run_job``) calls :meth:`~WorkerPool.ready` before a
  full-width job — re-forming the mesh through the transport when a
  member is gone (new threads, re-fork, or wait for workers to re-join
  the rendezvous) — and :meth:`~WorkerPool.teardown` after a failed one;
* the sort service :meth:`~WorkerPool.start`\\ s the pool once and never
  re-forms: dead workers shrink capacity and replacements rejoin
  through the transport's listener.  Every
  membership change (death *or* join) bumps the **membership epoch**;
  job frames carry the epoch they were planned under, so a job can never
  alias a recycled rank (worker side: the job's
  :class:`~repro.runtime.api.Comm`; driver side:
  :meth:`JobMonitor.accepts`).

Threading: exactly one thread at a time steps the reactor and owns every
control-channel *receive*; sends (dispatch, aborts, directives) happen
under the pool lock from whichever thread triggers them, and
:meth:`~WorkerPool.wake` cuts a step's wait short from any thread.
Channels live in one persistent selector and are always unregistered
**before** they are closed, under the lock — a channel closed by another
thread while the reactor is selecting can therefore never poison the
wait.  A finished job sets its ``done`` event; the stepping thread
reads it there.
"""

from __future__ import annotations

import selectors
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.runtime.errors import WorkerFailure, job_failure
from repro.runtime.monitor import JobMonitor
from repro.runtime.program import (
    ClusterResult,
    PreparedJob,
    assemble_cluster_result,
)
from repro.runtime.traffic import TrafficLog
from repro.utils.slabs import job_window

__all__ = ["CHANNEL_ERRORS", "SubsetJob", "WorkerPool"]

#: What a control channel raises once its peer (or the channel) is gone:
#: EOF on a worker thread's channel, any socket/framing/codec error
#: (``TransportError`` is an ``OSError``), or a closed handle.
CHANNEL_ERRORS = (EOFError, OSError, ValueError)

_WAKE = "wake"
_JOIN = "join"


class SubsetJob:
    """One in-flight job on a subset of the pool (pool-internal record).

    ``members`` is the sorted list of *global* worker ranks; the job's
    program sees logical ranks ``0..len(members)-1`` in the same order.
    ``done`` is set exactly once, after which either ``cluster_result``
    or ``error`` is populated.
    """

    def __init__(
        self,
        seq: int,
        members: List[int],
        prepared: PreparedJob,
        failure_timeout: float,
        timeout: float,
        epoch: int = 0,
    ) -> None:
        k = len(members)
        self.seq = seq
        self.members = members
        self.prepared = prepared
        #: Membership epoch the job was planned under; shipped in the
        #: job frame and enforced both worker-side (the job's Comm) and
        #: driver-side (JobMonitor.accepts) so the job never aliases a
        #: rank recycled by a later rejoin.
        self.epoch = epoch
        self.monitor = JobMonitor(
            k, failure_timeout, prepared.speculation, epoch=epoch
        )
        self.deadline = time.monotonic() + timeout
        self.grace_deadline: Optional[float] = None
        self.results: List[Any] = [None] * k
        self.times: List[Dict[str, float]] = [dict() for _ in range(k)]
        self.traffic = TrafficLog()
        self.stages: List[str] = []
        self.program_errors: List[str] = []
        self.infra_failures: List[Tuple[int, str, str]] = []
        self.deaths = 0  # members dead mid-job: infra_failures[:deaths]
        self.expired = False  # failed by the whole-job deadline
        self.pending: Set[int] = set(members)  # global ranks yet to report
        self.error: Optional[BaseException] = None
        self.cluster_result: Optional[ClusterResult] = None
        self.done = threading.Event()

    def logical(self, global_rank: int) -> int:
        return self.members.index(global_rank)

    @property
    def failed(self) -> bool:
        return bool(self.program_errors or self.infra_failures)


class WorkerPool:
    """K standing workers behind control channels, running prepared jobs.

    Args:
        transport: how workers come to exist — ``form(size)`` returns
            ``{rank: channel}``, ``teardown()`` reaps whatever it
            started, ``listener`` (a listening socket, or ``None``)
            becomes readable when a replacement dials in, and
            ``admit_join(conn, reserve)`` runs its handshake.
        cluster: the configuration the pool copies at construction
            (``size``, ``timeout``, ``failure_timeout``,
            ``heartbeat_interval``); the cluster object is never
            written to — mesh growth and a Session's ``failure_timeout``
            override are the pool's own state.
        name: what failure messages call the pool (default: the
            cluster's ``address``).
    """

    #: After a job's first failure, wait this long (bounded by the job
    #: timeout) for the remaining members' reports before finishing it —
    #: a root-cause program error arriving late must still dominate the
    #: classification.
    _GRACE = 2.0
    #: Longest one reactor step blocks with nothing due.
    _POLL = 0.25

    def __init__(
        self,
        transport,
        cluster,
        name: Optional[str] = None,
    ) -> None:
        self._transport = transport
        self.name = name or cluster.address
        self.size = cluster.size
        self.timeout = cluster.timeout
        self.failure_timeout = cluster.failure_timeout
        self.heartbeat_interval = cluster.heartbeat_interval
        self._lock = threading.RLock()
        self._sel = selectors.DefaultSelector()
        self._chans: Dict[int, Any] = {}
        self._busy: Dict[int, int] = {}  # global rank -> job seq
        self._dead: Set[int] = set()
        self._jobs: Dict[int, SubsetJob] = {}
        self._seq = 0
        self._closed = False
        #: Bumped on every membership change, death *and* join.
        self._epoch = 0
        #: Epoch at which each rank's *current* incarnation joined
        #: (0 for a freshly formed mesh).
        self._rank_epoch: Dict[int, int] = {}
        #: Serializes join admissions: one joiner completes its whole
        #: handshake (through READY + integration) before the next
        #: starts, so every joiner's roster includes its predecessors.
        self._join_lock = threading.Lock()
        #: Total replacement workers integrated over the pool lifetime.
        self.workers_joined = 0
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)  # a full doorbell rings already
        self._sel.register(self._wake_r, selectors.EVENT_READ, _WAKE)

    # -- membership ---------------------------------------------------------

    def _install(self, rank: int, chan: Any, epoch: int) -> None:
        """Adopt ``chan`` as ``rank``'s control channel (lock held)."""
        self._chans[rank] = chan
        self._rank_epoch[rank] = epoch
        self._dead.discard(rank)
        self._sel.register(chan, selectors.EVENT_READ, (rank, chan))

    def _drop(self, rank: int) -> None:
        """Unregister, then close, ``rank``'s channel (lock held) — in
        that order, so the selector never holds a closed descriptor."""
        chan = self._chans.pop(rank, None)
        if chan is None:
            return
        try:
            self._sel.unregister(chan)
        except (KeyError, ValueError, OSError):
            pass  # closed behind our back; nothing left to unregister
        try:
            chan.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass

    @staticmethod
    def _try_send(chan: Any, msg: Tuple) -> None:
        """Best-effort control frame: a channel that cannot take it is
        dying, and its death is reported by the receive side."""
        try:
            chan.send(msg)
        except CHANNEL_ERRORS:
            pass

    def _form(self) -> None:
        """Bring ``size`` workers up through the transport (blocking)."""
        chans = self._transport.form(self.size)
        with self._lock:
            self._dead.clear()
            for rank, chan in chans.items():
                self._install(rank, chan, 0)

    def teardown(self) -> None:
        """Stop every worker and reap the transport; the next
        :meth:`ready` re-forms the mesh from scratch.  A rank still busy
        (with a job that was force-finished, or is lost with its control
        channel) cannot take the ``stop``: the transport need not wait
        for it."""
        with self._lock:
            for rank, chan in list(self._chans.items()):
                self._try_send(chan, ("stop",))
                self._drop(rank)
            busy = sorted(self._busy)
            self._busy.clear()
            self._dead.clear()
        self._transport.teardown(busy)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Form the mesh once, for good (blocking, bounded by the
        transport): the transport's listener, if it has one, joins the
        reactor's wait so replacements rejoin mid-flight.  The sort
        service's entry point; it never calls :meth:`ready`."""
        self._form()
        listener = self._transport.listener
        if listener is not None:
            self._sel.register(listener, selectors.EVENT_READ, _JOIN)

    def ready(self) -> None:
        """Make every member live and idle for a full-width job — the
        entry point that re-forms (a Session, ``run_job``) calls this
        before each job: one non-blocking step shows a worker that died
        idle as EOF, and a mesh short of a member (or torn down after a
        failed job) is formed afresh through the transport."""
        if self._chans:
            self._step(0.0)
        if len(self._chans) != self.size:
            self.teardown()
            self._form()

    def close(self) -> None:
        """Stop every worker and release the reactor (idempotent).
        In-flight jobs fail with a typed shutdown error via their done
        events."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            jobs = list(self._jobs.values())
            self._jobs = {}
            for job in jobs:
                job.error = WorkerFailure(
                    -1, "shutdown", "worker pool closed with the job running"
                )
                job.done.set()
        self.teardown()
        self._sel.close()
        self._wake_r.close()
        self._wake_w.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ------------------------------------------------------

    def idle_workers(self) -> List[int]:
        """Global ranks currently live and not running a job (sorted)."""
        with self._lock:
            return sorted(set(self._chans) - set(self._busy))

    def live_workers(self) -> int:
        with self._lock:
            return len(self._chans)

    @property
    def membership_epoch(self) -> int:
        """Bumps on every membership change (worker death or rejoin)."""
        with self._lock:
            return self._epoch

    # -- dispatch -----------------------------------------------------------

    def submit(
        self, members: Sequence[int], prepared: PreparedJob
    ) -> SubsetJob:
        """Dispatch ``prepared`` onto the given idle global ranks.

        Returns the job record immediately; the thread stepping the
        reactor sees it finish as ``job.done``.  Raises
        :class:`ValueError` if a member is busy, dead, or unknown.
        """
        members = sorted(members)
        prepared.check_size(len(members))
        with self._lock:
            if self._closed:
                raise RuntimeError("worker pool is closed")
            for g in members:
                if g not in self._chans:
                    raise ValueError(f"worker {g} is not live")
                if g in self._busy:
                    raise ValueError(
                        f"worker {g} is busy with job {self._busy[g]}"
                    )
            seq = self._seq
            self._seq += 1
            job_window(seq, prepared.builder)
            job = SubsetJob(
                seq,
                members,
                prepared,
                self.failure_timeout,
                self.timeout,
                epoch=self._epoch,
            )
            self._jobs[seq] = job
            dead_at_dispatch: List[int] = []
            for logical, g in enumerate(members):
                # Busy before the send: a dispatch failure then routes
                # through _member_died with the job attributed.
                self._busy[g] = seq
                try:
                    self._chans[g].send(
                        (
                            "job",
                            seq,
                            prepared.builder,
                            prepared.payloads[logical],
                            members,
                            job.epoch,
                        )
                    )
                except CHANNEL_ERRORS:
                    dead_at_dispatch.append(g)
            for g in dead_at_dispatch:
                self._member_died(g, "worker died at job dispatch")
        return job

    def run_job(
        self, prepared: PreparedJob, last: bool = False
    ) -> ClusterResult:
        """Run one prepared job on every member and gather the result:
        :meth:`ready` + ``submit(all members)`` + step until done +
        raise, all on the caller's thread; a failed job tears the mesh
        down.  ``last=True`` is the one-shot
        ``cluster.run`` contract: ``stop`` is queued right behind the job
        frame, so each worker exits as soon as it has reported and its
        closing mesh sockets tell still-running peers that it is gone.

        Raises:
            WorkerFailure: a worker died or went silent mid-job, or the
                job outran the pool's ``timeout`` (infrastructure — a
                job queue may retry it).
            RuntimeError: a worker's program raised (a genuine job bug,
                never retried); the worker's traceback text is included.
        """
        prepared.check_size(self.size)
        if self._closed:
            raise RuntimeError("worker pool is closed")
        self.ready()
        job = self.submit(range(self.size), prepared)
        if last:
            with self._lock:
                for chan in self._chans.values():
                    self._try_send(chan, ("stop",))
        while not job.done.is_set():
            self._step(self._POLL)
        if job.error is not None:
            self.teardown()
            raise job.error
        assert job.cluster_result is not None
        return job.cluster_result

    # -- reactor ------------------------------------------------------------

    def wake(self) -> None:
        """End the current step's wait now (any thread)."""
        try:
            self._wake_w.send(b"x")
        except OSError:  # full, or closing down
            pass

    def _step(self, max_wait: float) -> None:
        """One reactor turn: wait for channel traffic (no longer than
        the nearest job deadline / liveness check), deliver it, apply
        the time-driven policies."""
        with self._lock:
            jobs = list(self._jobs.values())
        now = time.monotonic()
        timeout = max_wait
        for job in jobs:
            remaining = job.deadline - now
            if job.grace_deadline is not None:
                remaining = min(remaining, job.grace_deadline - now)
            timeout = min(timeout, job.monitor.poll_timeout(remaining))
        for key, _ in self._sel.select(max(0.0, timeout)):
            if key.data is _WAKE:
                try:
                    key.fileobj.recv(4096)
                except OSError:
                    pass
            elif key.data is _JOIN:
                # A replacement worker is dialing: hand the handshake to
                # a join thread (it blocks on the joiner, the reactor
                # must not).
                try:
                    conn, _ = key.fileobj.accept()
                except OSError:
                    continue  # listener closed under us
                threading.Thread(
                    target=self._admit_join,
                    args=(conn,),
                    daemon=True,
                    name="pool-join",
                ).start()
            else:
                self._receive(*key.data)
        self._tick()

    def _receive(self, g: int, chan: Any) -> None:
        """Read and deliver one frame from ``g``'s channel.  The channel
        may have been dropped since the select returned; a closed one
        raises here and the stale-channel check in :meth:`_member_died`
        makes that a no-op."""
        try:
            msg = chan.recv()
        except CHANNEL_ERRORS as exc:
            with self._lock:
                self._member_died(
                    g,
                    f"worker died mid-job (control channel "
                    f"{type(exc).__name__}: {exc})",
                    chan,
                )
            return
        with self._lock:
            if self._chans.get(g) is chan:
                self._handle(g, msg)

    def _handle(self, g: int, msg: Tuple) -> None:
        """Deliver one worker frame (lock held)."""
        kind = msg[0]
        if kind not in ("hb", "ok", "comm_error", "error"):
            return  # unknown frame; ignore (forward compatibility)
        seq = msg[2]
        job = self._jobs.get(seq)
        incarnation = self._rank_epoch.get(g, 0)
        if kind == "hb":
            if job is not None and g in job.pending:
                job.monitor.heartbeat(
                    job.logical(g), msg[3], member_epoch=incarnation
                )
            return
        if job is not None and not job.monitor.accepts(incarnation):
            return  # a recycled rank's new incarnation: not this job's
        # The report frees the worker even when its job is already
        # finished (deadline/grace force-finish leaves late members
        # busy until they actually report).
        if self._busy.get(g) == seq:
            del self._busy[g]
        if job is None or g not in job.pending:
            return  # stale seq: a job already finished or never ours
        lidx = job.logical(g)
        job.pending.discard(g)
        job.monitor.result(lidx)
        if kind == "ok":
            _, _, _, payload, sw_times, records, prog_stages = msg
            job.results[lidx] = payload
            job.times[lidx] = sw_times
            job.traffic.extend(records)
            if prog_stages and not job.stages:
                job.stages = prog_stages
        elif kind == "comm_error":
            self._record_failure(
                job, lidx, f"comm failure:\n{msg[3]}", program_error=False
            )
        else:
            who = f"worker {lidx}" + ("" if lidx == g else f" (global {g})")
            self._record_failure(
                job, lidx, f"{who}:\n{msg[3]}", program_error=True
            )
        self._maybe_finish(job)

    def _record_failure(
        self, job: SubsetJob, lidx: int, detail: str, program_error: bool
    ) -> None:
        """Record one member failure; on the first, start the grace
        window and tell the job's survivors to abort."""
        first = not job.failed
        if program_error:
            job.program_errors.append(detail)
        else:
            job.infra_failures.append(
                (lidx, job.monitor.stage_of(lidx), detail)
            )
        if first:
            job.grace_deadline = time.monotonic() + min(
                self._GRACE, self.timeout
            )
            self._send_ctl(job, ("abort", f"member {lidx} failed"))

    def _send_ctl(self, job: SubsetJob, payload: Tuple) -> None:
        """Best-effort mid-job control frame to the job's *pending*
        members: an abort unblocks their abort-polling receives (see
        :class:`~repro.runtime.api.Comm`), a speculation
        directive names a straggler and its backup."""
        for g in job.pending:
            chan = self._chans.get(g)
            if chan is not None:
                self._try_send(chan, ("ctl", job.seq, payload))

    def _member_died(
        self, g: int, cause: str, chan: Optional[Any] = None
    ) -> None:
        """Handle a worker's death or silence (lock held).  Only the job
        whose subset contains ``g`` fails — its neighbours never hear
        about it (their mesh sockets to ``g`` EOF too, but their jobs do
        not include ``g``, so nothing blocks on that source).  ``chan``,
        when given, must still be ``g``'s current channel: a stale event
        must not kill a recycled rank's replacement."""
        current = self._chans.get(g)
        if current is None or (chan is not None and current is not chan):
            return
        self._dead.add(g)
        self._epoch += 1  # membership changed: jobs planned before this
        # death must not alias a later reuse of rank g
        self._drop(g)
        seq = self._busy.pop(g, None)
        job = self._jobs.get(seq) if seq is not None else None
        if job is not None and g in job.pending:
            lidx = job.logical(g)
            job.pending.discard(g)
            job.monitor.result(lidx)
            self._record_failure(job, lidx, cause, program_error=False)
            # Deaths go ahead of the survivors' comm failures, which only
            # echo them, however those reports raced the EOF.
            job.infra_failures.insert(job.deaths, job.infra_failures.pop())
            job.deaths += 1
            self._maybe_finish(job)

    def _tick(self) -> None:
        """Time-driven policies: liveness, speculation, deadlines."""
        now = time.monotonic()
        with self._lock:
            for job in list(self._jobs.values()):
                # Silent-worker detection (heartbeats are per-job).
                if self.heartbeat_interval:
                    try:
                        job.monitor.check_liveness(
                            [job.logical(g) for g in job.pending]
                        )
                    except WorkerFailure as failure:
                        self._member_died(
                            job.members[failure.rank],
                            f"no heartbeat: {failure.cause}",
                        )
                        if job.seq not in self._jobs:
                            continue
                for straggler, backup in job.monitor.speculation_directives():
                    self._send_ctl(job, ("speculate", straggler, backup))
                if job.pending and now >= job.deadline:
                    if not job.failed:
                        job.expired = True
                        job.infra_failures.append((
                            -1,
                            "unknown",
                            f"job timed out after {self.timeout}s "
                            f"(members {sorted(job.pending)} pending)",
                        ))
                        self._send_ctl(job, ("abort", "job deadline expired"))
                    self._maybe_finish(job, force=True)
                elif (
                    job.grace_deadline is not None
                    and now >= job.grace_deadline
                ):
                    self._maybe_finish(job, force=True)

    def _maybe_finish(self, job: SubsetJob, force: bool = False) -> None:
        if job.seq not in self._jobs or (job.pending and not force):
            return
        del self._jobs[job.seq]
        # Members that never reported (force-finish) stay busy until
        # their abort/timeout report arrives and frees them in _handle.
        if job.failed:
            job.error = job_failure(
                self.name, job.program_errors, job.infra_failures,
                job.expired,
            )
        else:
            job.cluster_result = assemble_cluster_result(
                job.results, job.times, job.traffic, job.stages
            )
        job.done.set()

    # -- elastic rejoin -----------------------------------------------------

    def _reserve_rank(self, want: int):
        """Pick the rank a joiner asking for ``want`` (-1 = any) gets:
        a dead rank is recycled, else the mesh grows by one.  Returns
        ``(rank, epoch, size, live ranks)`` — the membership epoch is
        bumped here, before the joiner is integrated, so every job
        dispatched from now on is newer than the joiner's links — or a
        rejection reason string."""
        with self._lock:
            if self._closed:
                return "worker pool is closed"
            if want >= 0 and want in self._chans:
                return (
                    f"duplicate rank: {want} is live at membership epoch "
                    f"{self._rank_epoch.get(want, 0)}"
                )
            if want >= 0 and want not in self._dead and want > self.size:
                return f"rank {want} out of range for a size-{self.size} mesh"
            if want >= 0:
                rank = want
            elif self._dead:
                rank = min(self._dead)
            else:
                rank = self.size
            self._epoch += 1
            self.size = max(self.size, rank + 1)
            return rank, self._epoch, self.size, sorted(self._chans)

    def _admit_join(self, conn: Any) -> None:
        """Run one replacement worker's whole join handshake (thread).

        Serialized on the join lock: a joiner's roster must include
        every earlier joiner, so only one admission is in flight at a
        time.  Any handshake failure just drops the dialer; the standing
        mesh is never disturbed.
        """
        try:
            with self._join_lock:
                joined = self._transport.admit_join(conn, self._reserve_rank)
                if joined is None:
                    return  # rejected with a reason; conn already closed
                rank, epoch, chan = joined
                with self._lock:
                    if self._closed:
                        chan.close()
                        return
                    self._install(rank, chan, epoch)
                    self.workers_joined += 1
                    update = {"size": self.size, "epoch": epoch, "joined": rank}
                    others = [c for g, c in self._chans.items() if g != rank]
        except (OSError, RuntimeError):
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass
            return
        # Announce to live workers (advisory: the link itself reaches
        # them through the mesh) with no lock held — a wedged worker
        # must not stall membership.
        for other in others:
            self._try_send(other, ("roster", update))
        self.wake()  # the driver dispatches onto the new worker
