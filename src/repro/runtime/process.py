"""Multiprocessing cluster backend: real parallel execution.

Architecture (the paper's Fig. 8, coordinator + K workers):

* the parent process is the coordinator: :class:`ForkMesh` creates a full
  mesh of ``socketpair`` channels and forks K worker processes, and the
  shared :class:`~repro.runtime.pool.WorkerPool` reactor dispatches jobs
  and collects results, stage timings, and traffic logs over per-worker
  control pipes (``ProcessCluster.run`` is that pool running one job);
* each worker runs the same :class:`~repro.runtime.program.NodeProgram` the
  threaded backend runs, over a :class:`Comm` whose point-to-point primitive
  is framed socket I/O;
* an optional sender-side token bucket throttles every worker's NIC,
  reproducing the paper's 100 Mbps ``tc`` configuration;
* barriers are dissemination barriers over the same mesh (O(K log K) empty
  frames), so no central coordinator round-trip sits on the timed path.

The data plane is zero-copy on both sides of every socket: sends hand the
framing header plus the caller's buffer parts to vectored ``sendmsg``
(no concatenation), and each inbound frame lands in one freshly-allocated
``bytearray`` arena via ``recv_into`` — receives with ``copy=False``
return memoryview slices of that arena all the way up to the program.

Each worker runs one *reader thread per peer socket* that demultiplexes
inbound frames into a tagged mailbox.  That is what makes the non-blocking
API deadlock-free: sockets are always drained regardless of which receives
the program has posted or waited, so a peer's send can never stall forever
on a full kernel buffer.  Blocking receives, lazy ``irecv`` requests, and
barrier frames all pop from the same mailbox.  ``isend`` / root-side
``ibcast`` closures run on a single per-worker sender thread (preserving
per-channel FIFO order); a per-destination lock keeps frames from
interleaving when the program thread (barriers, blocking broadcasts) sends
concurrently with the sender thread.

``ProcessCluster.run`` workers inherit the program factory through ``fork``,
so factories may close over arbitrary in-memory state (e.g. pre-generated
input files) without pickling.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue
import socket
import threading
import time
import traceback
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.runtime.api import (
    BufferParts,
    Comm,
    CommError,
    DEFAULT_CHUNK_BYTES,
    JOB_TAG_STRIDE,
    MulticastMode,
    Request,
    _BARRIER_NS,
    _BCAST_NS,
    _FutureRequest,
    _JOB_BARRIER_EPOCH_STRIDE,
    _JOB_TAG_WINDOWS,
    barrier_tag,
)
from repro.runtime.errors import RuntimeTimeoutError, WorkerFailure
from repro.runtime.mailbox import Mailbox, MailboxComm, MailboxLink
from repro.runtime.pool import WorkerPool
from repro.runtime.program import (
    ClusterResult,
    JobControl,
    NodeProgram,
    PreparedJob,
    ProgramFactory,
)
from repro.runtime.ratelimit import TokenBucket
from repro.runtime.traffic import TrafficLog
from repro.runtime.transport import (
    TransportError,
    bound_sends,
    recv_frame,
    send_frame,
)


class _SocketComm(MailboxComm):
    """Comm endpoint over a mesh of per-peer links, every backend's: a
    stream socket (reader threads feed the mailbox; sends are locked,
    paced and bounded) or a :class:`~repro.runtime.mailbox.MailboxLink`
    (worker threads of one process; sends are puts, inline)."""

    def __init__(
        self,
        rank: int,
        size: int,
        conns: Dict[int, Union[socket.socket, MailboxLink]],
        multicast_mode: MulticastMode,
        pacer: Optional[TokenBucket],
        recv_timeout: Optional[float],
        chunk_bytes: int,
        record_relays: bool,
    ) -> None:
        super().__init__(
            rank,
            size,
            traffic=TrafficLog(),
            multicast_mode=multicast_mode,
            chunk_bytes=chunk_bytes,
            record_relays=record_relays,
        )
        self._conns = conns
        self._pacer = pacer
        self._recv_timeout = recv_timeout
        self._mailbox = Mailbox()
        self._send_locks: Dict[int, threading.Lock] = {
            peer: threading.Lock() for peer in conns
        }
        #: Membership epoch at which each peer link was established; 0
        #: for the initial mesh.  Elastic pools stamp later incarnations
        #: (see :meth:`add_peer`), and :class:`SubsetComm` compares these
        #: against a job's planning epoch so a job dispatched before a
        #: rank was recycled can never talk to the replacement worker.
        self.peer_epochs: Dict[int, int] = {peer: 0 for peer in conns}
        self._readers: List[threading.Thread] = []
        self._send_queue: Optional["queue.Queue"] = None
        self._sender_thread: Optional[threading.Thread] = None
        self._sender_lock = threading.Lock()
        self._inline_sends = any(
            isinstance(link, MailboxLink) for link in conns.values()
        )
        self._barrier_epoch = 0

    # -- inbound demultiplexing -------------------------------------------------

    def _start_readers(self) -> None:
        """Spawn one reader thread per peer socket (call in the worker)."""
        for peer, sock in self._conns.items():
            t = threading.Thread(
                target=self._reader_loop,
                args=(peer, sock),
                daemon=True,
                name=f"reader-{self.rank}<-{peer}",
            )
            t.start()
            self._readers.append(t)

    def _reader_loop(self, peer: int, sock: socket.socket) -> None:
        while True:
            try:
                tag, payload = recv_frame(sock)
            except (OSError, TransportError) as exc:
                # Close the source only while this socket is still the
                # peer's current link: a replacement incarnation may have
                # been integrated (add_peer) before the old link's EOF
                # drained, and its fresh source must stay open.
                if self._conns.get(peer) is sock:
                    self._mailbox.close_source(peer, str(exc))
                return
            self._mailbox.put(peer, tag, payload)

    # -- elastic membership -----------------------------------------------------

    def add_peer(
        self, peer: int, sock: socket.socket, epoch: int = 0
    ) -> None:
        """Integrate a peer's mesh link into this endpoint.

        Every link of a TCP agent arrives this way — the ones it dials
        and the ones its acceptor takes in, at mesh formation and when a
        replacement agent joins mid-service: the new socket replaces
        any dead link at ``peer``'s rank, the rank's mailbox source is
        reopened (the old incarnation's EOF closed it), a fresh reader
        thread starts, and the link is stamped with the membership
        ``epoch`` it was born in.  Safe while disjoint subset jobs run:
        an in-flight :class:`SubsetComm` snapshots its members' sockets
        at construction and never includes a dead rank.
        """
        if self._recv_timeout is not None:
            bound_sends(sock, self._recv_timeout)
        old = self._conns.get(peer)
        self._conns[peer] = sock
        self._send_locks.setdefault(peer, threading.Lock())
        self.peer_epochs[peer] = epoch
        if peer >= self.size:
            self.size = peer + 1
        self._mailbox.reopen_source(peer)
        t = threading.Thread(
            target=self._reader_loop,
            args=(peer, sock),
            daemon=True,
            name=f"reader-{self.rank}<-{peer}",
        )
        t.start()
        self._readers.append(t)
        if old is not None and old is not sock:
            try:
                old.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def wait_for_peers(
        self, peers: Sequence[int], timeout: float = 5.0
    ) -> List[int]:
        """Block until every listed rank has a mesh link, at most
        ``timeout`` seconds; returns the ranks still missing.

        Links an acceptor takes in land on its own thread: at mesh
        formation the higher ranks dial in while this one is still
        dialing, and a subset job can be dispatched the instant a
        rejoined member reported ready to the coordinator, a hair before
        *this* worker integrated that member's link.
        """
        deadline = time.monotonic() + timeout
        missing = [
            g for g in peers if g != self.rank and g not in self._conns
        ]
        while missing and time.monotonic() < deadline:
            time.sleep(0.01)
            missing = [g for g in missing if g not in self._conns]
        return missing

    # -- raw primitives ---------------------------------------------------------

    def _send_raw(self, dst: int, tag: int, payload: BufferParts) -> None:
        """A put into the peer's mailbox, or a vectored frame write:
        header + parts go out in one ``sendmsg``."""
        link = self._conns[dst]
        if isinstance(link, MailboxLink):
            link.send(tag, payload)
            return
        try:
            with self._send_locks[dst]:
                send_frame(link, tag, payload, pacer=self._pacer)
        except socket.timeout as exc:
            # SO_SNDTIMEO expiry: the peer stopped draining (wedged or
            # dead) — typed so drivers can tell timeout from protocol bug.
            raise RuntimeTimeoutError(
                f"send to worker {dst} timed out in stage "
                f"{self._stage!r}: {exc}",
                peer=dst,
                stage=self._stage,
            ) from exc
        except (OSError, TransportError) as exc:
            raise WorkerFailure(
                dst, self._stage, f"send failed: {exc}"
            ) from exc

    def _begin_job_raw(self, job_seq: int) -> None:
        # Per-job barrier-epoch base: a stale barrier frame of an earlier
        # (e.g. aborted) job can never match a later job's rounds.
        self._barrier_epoch = (
            job_seq % _JOB_TAG_WINDOWS
        ) * _JOB_BARRIER_EPOCH_STRIDE

    def _barrier_raw(self) -> None:
        """Dissemination barrier: log2(K) rounds of shifted token passing."""
        k = self.size
        if k == 1:
            return
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        round_idx = 0
        dist = 1
        while dist < k:
            dst = (self.rank + dist) % k
            src = (self.rank - dist) % k
            tag = barrier_tag(epoch * 64 + round_idx)
            self._send_raw(dst, tag, b"")
            self._recv_raw(src, tag)
            dist <<= 1
            round_idx += 1

    # -- async dispatch ----------------------------------------------------------

    def _dispatch_send(self, fn: Callable[[], Optional[bytes]]) -> Request:
        """Run a send closure on the per-worker sender thread, in order —
        inline over mailbox links, whose puts never block."""
        if self._inline_sends:
            return super()._dispatch_send(fn)
        with self._sender_lock:
            if self._send_queue is None:
                self._send_queue = queue.Queue()
                self._sender_thread = threading.Thread(
                    target=self._sender_loop,
                    daemon=True,
                    name=f"sender-{self.rank}",
                )
                self._sender_thread.start()
        # A send future's plain wait() is bounded like a receive, so a
        # wedged peer (full buffer, nothing draining) surfaces as an error.
        req = _FutureRequest(default_timeout=self._recv_timeout)
        self._send_queue.put((fn, req))
        return req

    def _sender_loop(self) -> None:
        assert self._send_queue is not None
        while True:
            item = self._send_queue.get()
            if item is None:
                return
            fn, req = item
            try:
                req._set(fn())
            except BaseException as exc:  # noqa: BLE001 - delivered via wait
                req._fail(exc)

    def _close_async(self) -> None:
        if self._send_queue is not None:
            self._send_queue.put(None)
            assert self._sender_thread is not None
            self._sender_thread.join(timeout=10.0)


class SubsetComm(_SocketComm):
    """A logical-rank view of one worker's mesh endpoint for one job.

    Every pool job runs on one: the sort service schedules a K'-worker
    job onto K' of a standing mesh's K workers, overlapping it with
    other jobs on the disjoint remainder, and a Session's full-mesh job
    is the view whose members are every rank.  Each member builds a
    ``SubsetComm`` over its base endpoint: logical rank ``i`` maps onto
    global rank ``members[i]``, the base's sockets, per-destination send
    locks, pacer, mailbox and async sender are shared (no new
    connections, no new threads — the base readers keep feeding the one
    mailbox, keyed by *global* source), and every inherited primitive —
    barriers, broadcast trees, the async sender — operates purely in
    logical coordinates.  A program written for a K'-node cluster
    therefore runs unmodified, and byte-identically to a dedicated
    K'-worker mesh.

    Isolation between overlapping jobs rests on three mechanisms:

    * per-job tag windows (:meth:`Comm.begin_job` with coordinator-unique
      sequence numbers) keep concurrent jobs' frames from ever aliasing,
      and beginning a job drops every buffered frame outside its windows
      (:func:`_purge_stale_frames`);
    * per-source mailbox closure means a worker death fails only the
      jobs whose subset contains the dead rank — neighbours never see it;
    * receives poll the job's abort flag (a coordinator
      ``("ctl", seq, ("abort", reason))`` frame, see
      :meth:`~repro.runtime.program.JobControl.abort_reason`) in short
      slices, so members of a job the coordinator already failed
      elsewhere — a peer's program error, a dead or silent worker —
      unblock promptly instead of waiting out the timeout.

    Workers run one job at a time, so the base endpoint is never used
    concurrently with a subset built over it.
    """

    _ABORT_POLL = 0.1

    def __init__(
        self,
        base: _SocketComm,
        members: Sequence[int],
        epoch: Optional[int] = None,
    ) -> None:
        members = list(members)
        if len(set(members)) != len(members):
            raise CommError(f"duplicate ranks in subset {members}")
        if base.rank not in members:
            raise CommError(
                f"rank {base.rank} is not a member of subset {members}"
            )
        for g in members:
            if g != base.rank and g not in base._conns:
                raise CommError(
                    f"subset member {g} is not a mesh peer of rank "
                    f"{base.rank} (mesh size {base.size})"
                )
            # Membership-epoch guard: a job planned at epoch E must never
            # talk to a peer whose link was (re)established after E — the
            # rank was recycled by a replacement worker the job's plan
            # knows nothing about.  Reported as a comm error, so the
            # coordinator retries on the current membership.
            if (
                epoch is not None
                and g != base.rank
                and base.peer_epochs.get(g, 0) > epoch
            ):
                raise CommError(
                    f"subset member {g} rejoined at membership epoch "
                    f"{base.peer_epochs[g]}, newer than the job's planning "
                    f"epoch {epoch} (recycled rank)"
                )
        super().__init__(
            members.index(base.rank),
            len(members),
            {
                i: base._conns[g]
                for i, g in enumerate(members)
                if g != base.rank
            },
            base.multicast_mode,
            base._pacer,
            base._recv_timeout,
            base.chunk_bytes,
            base.record_relays,
        )
        self.members = members
        self.epoch = epoch
        #: Set once the job failed here: its sends still queued on the
        #: base's sender are then dropped, not sent ahead of the next
        #: job's (a peer they wait behind may be stopped for good).
        self.failed = False
        self._base = base
        # Share the base's lock objects (the base's sender may still be
        # draining an earlier job's send to the same peer socket) and
        # its mailbox; raw receives translate logical -> global.
        self._send_locks = {
            i: base._send_locks[g]
            for i, g in enumerate(members)
            if g != base.rank
        }
        self._mailbox = base._mailbox

    def _begin_job_raw(self, job_seq: int) -> None:
        super()._begin_job_raw(job_seq)
        # A worker runs one job at a time, so only the job starting now
        # can have sent here early: anything else buffered is a finished
        # job's late frame, and nothing will ever receive it.
        _purge_stale_frames(self._mailbox, job_seq)

    def _dispatch_send(self, fn: Callable[[], Optional[bytes]]) -> Request:
        """On the base endpoint's sender, which outlives the job."""
        return self._base._dispatch_send(
            lambda: None if self.failed else fn()
        )

    def _mail_key(self, src: int, tag: int) -> Tuple[int, int]:
        return (self.members[src], tag)

    def _rank_of(self, src: int) -> int:
        return self.members.index(src)

    def _ready(self, keys, timeout: Optional[float]):
        """In ``_ABORT_POLL`` slices, the job's abort flag checked after
        each that came back empty: every receive of a subset job —
        blocking, polled or the event loop's arrival wait — comes through
        here, and a frame, or the closed source of a dead peer, wins over
        the abort that peer's death also set off."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                float("inf") if deadline is None else deadline - time.monotonic()
            )
            ready = self._mailbox.wait_any(
                keys, max(0.0, min(self._ABORT_POLL, remaining))
            )
            if ready:
                return ready
            control = self.job_control
            reason = None if control is None else control.abort_reason()
            if reason is not None:
                raise WorkerFailure(
                    -1, self._stage, f"job aborted by coordinator: {reason}"
                )
            if remaining <= self._ABORT_POLL:
                return ready


def _purge_stale_frames(mailbox: Mailbox, job_seq: int) -> int:
    """Drop every buffered frame outside ``job_seq``'s tag windows.

    A failed (or aborted) job can leave undelivered frames in the
    worker's mailbox, and a peer may still be sending it that job's
    queued frames after it has moved on; the worker outlives the job, so
    they must be reclaimed.  Covers all three namespaces a job receives
    in: shifted user tags, broadcast inner tags, and barrier rounds.
    """
    window = job_seq % _JOB_TAG_WINDOWS

    def stale(src: int, tag: int) -> bool:
        if tag >= _BARRIER_NS:
            epoch = (tag - _BARRIER_NS) // 64
            return epoch // _JOB_BARRIER_EPOCH_STRIDE != window
        if tag >= _BCAST_NS:
            return (tag - _BCAST_NS) // JOB_TAG_STRIDE != window
        return tag // JOB_TAG_STRIDE != window

    return mailbox.purge(stale)


def _build_mesh(
    k: int,
) -> Dict[Tuple[int, int], Tuple[socket.socket, socket.socket]]:
    """Full mesh: one socketpair per unordered node pair."""
    return {
        (i, j): socket.socketpair()
        for i in range(k)
        for j in range(i + 1, k)
    }


def _mesh_endpoints(
    pairs: Dict[Tuple[int, int], Tuple[socket.socket, socket.socket]],
    rank: int,
) -> Tuple[Dict[int, socket.socket], List]:
    """Rank's own peer sockets plus every inherited fd it must close."""
    conns: Dict[int, socket.socket] = {}
    extra_close: List = []
    for (i, j), (si, sj) in pairs.items():
        if rank == i:
            conns[j] = si
            extra_close.append(sj)
        elif rank == j:
            conns[i] = sj
            extra_close.append(si)
        else:
            extra_close.extend((si, sj))
    return conns, extra_close


def make_socket_comm(
    rank: int,
    size: int,
    conns: Dict[int, socket.socket],
    multicast_mode: MulticastMode,
    rate_bytes_per_s: Optional[float],
    socket_timeout: float,
    chunk_bytes: int,
    record_relays: bool,
) -> _SocketComm:
    """Build a ready :class:`_SocketComm` over an established peer mesh.

    Shared by the forked AF_UNIX workers here and the TCP worker agents in
    :mod:`repro.runtime.tcp` — the mesh transport differs, the endpoint
    machinery (send bounds, pacing, reader threads) is identical.
    """
    # A wedged peer must raise in the blocked worker, with a traceback
    # naming the stuck send, while the reader threads keep blocking.
    for s in conns.values():
        bound_sends(s, socket_timeout)
    pacer = (
        TokenBucket(rate_bytes_per_s) if rate_bytes_per_s is not None else None
    )
    comm = _SocketComm(
        rank,
        size,
        conns,
        multicast_mode,
        pacer,
        socket_timeout,
        chunk_bytes,
        record_relays,
    )
    comm._start_readers()
    return comm


class _CtrlReader:
    """Owns the coordinator channel's receive side on a daemon thread.

    Frames are demultiplexed by type: ``("job", ...)`` / ``("stop",)`` /
    channel-EOF land on the inbox queue the control loop pops, while
    mid-job ``("ctl", seq, payload)`` frames are delivered straight into
    the job's :class:`JobControl` — so the program never has to stop
    working to receive a speculation directive.  That control is made
    here, as the job frame is queued, not when the job starts: an abort
    right behind the frame (a peer already failed the job) must not find
    the job unstarted and be dropped.  Elastic-pool
    ``("roster", info)`` membership updates likewise bypass the inbox
    into the ``on_roster`` callback: they may arrive at any time, idle
    or mid-job, and must never end the control loop.
    """

    _EOF = ("__eof__",)

    def __init__(
        self,
        recv_msg: Callable[[], Tuple],
        on_roster: Optional[Callable[[Dict], None]] = None,
    ) -> None:
        self._recv_msg = recv_msg
        self.inbox: "queue.SimpleQueue[Tuple]" = queue.SimpleQueue()
        self.job_control: Optional[JobControl] = None
        self.on_roster = on_roster
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name="pool-ctrl-reader"
        )
        self._thread.start()

    def _loop(self) -> None:
        while True:
            try:
                msg = self._recv_msg()
            except (EOFError, OSError, TransportError):
                self.inbox.put(self._EOF)
                return
            if msg[0] == "ctl":
                control = self.job_control
                if control is not None and msg[1] == control.job_seq:
                    control.deliver(msg[2])
                continue
            if msg[0] == "roster":
                callback = self.on_roster
                if callback is not None:
                    try:
                        callback(msg[1])
                    except Exception:  # pragma: no cover - advisory frame
                        pass
                continue
            if msg[0] == "job":
                self.job_control = JobControl(msg[1])
            self.inbox.put(msg)
            if msg[0] != "job":
                return  # "stop" (or anything unknown) ends the loop


class _Heartbeater:
    """Emits ``("hb", rank, job_seq, stage)`` frames while ``job`` is
    set: one thread for the worker's whole life.  ``job`` is cleared
    under ``send_lock`` with the final report, so no beat trails it."""

    def __init__(
        self,
        rank: int,
        send_msg: Callable[[Tuple], None],
        send_lock: threading.Lock,
        interval: float,
    ) -> None:
        self.job: Optional[Tuple[int, Comm]] = None
        self._rank = rank
        self._send_msg = send_msg
        self._send_lock = send_lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, daemon=True, name=f"heartbeat-{rank}"
        )
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            with self._send_lock:
                if self.job is None:
                    continue
                job_seq, comm = self.job
                try:
                    self._send_msg(("hb", self._rank, job_seq, comm.stage))
                except (OSError, ValueError, TransportError):
                    return  # coordinator gone; the control loop will notice

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10.0)


class WorkerDrain:
    """Signal-safe graceful-shutdown flag for a pool worker.

    ``repro worker`` arms one of these on SIGTERM: :meth:`trigger` (safe
    to call from a signal handler — only an ``Event.set`` and a
    ``Queue.put``) both sets the flag the control loop checks between
    jobs and drops a sentinel on the control inbox so an *idle* worker
    wakes from its blocking ``inbox.get`` immediately.  A busy worker
    finishes its in-flight job, reports the result, and only then exits
    — a mid-shuffle kill would instead cascade ``WorkerFailure`` across
    the whole subset.
    """

    _SENTINEL = ("__drain__",)

    def __init__(self) -> None:
        self._event = threading.Event()
        self._inbox: Optional["queue.SimpleQueue[Tuple]"] = None

    @property
    def requested(self) -> bool:
        return self._event.is_set()

    def trigger(self) -> None:
        self._event.set()
        inbox = self._inbox
        if inbox is not None:
            inbox.put(self._SENTINEL)


def serve_pool_jobs(
    comm: _SocketComm,
    rank: int,
    recv_msg: Callable[[], Tuple],
    send_msg: Callable[[Tuple], None],
    heartbeat_interval: Optional[float] = None,
    drain: Optional[WorkerDrain] = None,
) -> None:
    """The pool worker control loop, over any coordinator transport.

    Each ``("job", seq, builder, payload, members, epoch)`` message
    builds a :class:`SubsetComm` view over ``comm`` for the job's global
    ``members`` — logical ranks ``0..len(members)-1``; a full-mesh job's
    view names every rank — rebinds it to the job's tag window and
    traffic log (:meth:`Comm.begin_job`), builds the node program from
    the shipped ``(builder, payload)``, runs it, and reports the per-job
    result / stage times / traffic back through ``send_msg``.  The other
    workers of the mesh stay free to run a different job concurrently.

    A worker outlives a failed job: it reports the failure and waits
    for the next job or the coordinator's ``stop``.  The failed job's
    sends still queued on ``comm``'s sender are dropped, its late frames
    are reclaimed when the next job begins (per-job tag windows make
    this exact), and its surviving members unwind on the coordinator's
    abort directive, which the view's receives poll.  The coordinator
    retries a failed job on a fresh sequence number, so nothing ever
    aliases; whether it re-forms the mesh first is its own choice (a
    Session does, the sort service never does).

    While a job runs, the worker's one heartbeat thread reports its
    current stage every ``heartbeat_interval`` seconds (``None``
    disables) — the driver's liveness detector and the speculation
    policy both feed on these.  A reader thread owns ``recv_msg`` for the
    whole loop, routing mid-job ``("ctl", seq, payload)`` frames into the
    job comm's :class:`JobControl`.  Both threads start once, with the
    loop, never per job.  The final ok/error report clears the
    heartbeater's job under the send lock, so the report is always the
    channel's last frame for the job.

    Failures are reported typed: a :class:`CommError` (peer death, comm
    timeout — including the cascade EOFs every survivor sees when one
    worker crashes) reports as ``("comm_error", rank, seq, tb)``, any
    other exception — a genuine program bug — as ``("error", ...)``.

    ``recv_msg`` must raise ``EOFError`` / ``OSError`` /
    :class:`TransportError` once the coordinator is gone; any non-``job``
    message (``("stop",)``) also ends the loop, as does a
    :class:`WorkerDrain` trigger once the in-flight job (if any) has
    reported.  Shared by the forked AF_UNIX pool workers here
    (transport: a duplex pipe), the TCP worker agents in
    :mod:`repro.runtime.tcp` (transport: framed pickles on the
    rendezvous connection) and the worker threads of
    :class:`~repro.runtime.inproc.InprocMesh` (transport: objects passed
    by reference).
    """
    send_lock = threading.Lock()

    def on_roster(info: Dict) -> None:
        # Membership grew: track the new mesh size so later subsets can
        # name the joined rank.  The peer link itself arrives via the
        # worker's mesh-growth acceptor (add_peer), not this frame.
        new_size = info.get("size")
        if isinstance(new_size, int) and new_size > comm.size:
            comm.size = new_size

    reader = _CtrlReader(recv_msg, on_roster=on_roster)
    if drain is not None:
        drain._inbox = reader.inbox
    heartbeater = (
        _Heartbeater(rank, send_msg, send_lock, heartbeat_interval)
        if heartbeat_interval
        else None
    )

    def report(msg: Tuple) -> None:
        with send_lock:
            if heartbeater is not None:
                heartbeater.job = None
            send_msg(msg)

    try:
        while True:
            msg = reader.inbox.get()
            if msg[0] != "job":
                return  # "stop", drain sentinel, or coordinator EOF
            _, job_seq, builder, payload, members, epoch = msg
            traffic = TrafficLog()
            job_comm: Optional[SubsetComm] = None
            try:
                # A member that rejoined an instant ago may still be mid-
                # integration on this endpoint: wait briefly for its link.
                # A malformed subset raises CommError straight into the
                # typed report below — reported, never fatal here.
                comm.wait_for_peers(members)
                job_comm = SubsetComm(comm, members, epoch=epoch)
                job_comm.begin_job(job_seq, traffic)
                job_comm.job_control = reader.job_control
                if heartbeater is not None:
                    heartbeater.job = (job_seq, job_comm)
                program = builder(job_comm, payload)
                result = program.run()
                report((
                    "ok",
                    rank,
                    job_seq,
                    result,
                    program.stopwatch.times(),
                    traffic.records,
                    list(program.STAGES),
                ))
            except BaseException as exc:  # noqa: BLE001 - reported to coordinator
                if job_comm is not None:
                    job_comm.failed = True
                # A CommError is infrastructure — a peer died, an abort
                # landed, a comm wait expired; anything else is a program
                # bug.
                kind = "comm_error" if isinstance(exc, CommError) else "error"
                try:
                    report((kind, rank, job_seq, traceback.format_exc()))
                except (OSError, ValueError, TransportError):
                    return
                if isinstance(exc, SystemExit):
                    # Drain escalation (second SIGTERM) or an explicit
                    # in-program exit: the coordinator has its error
                    # report; now really exit, with the honest nonzero
                    # status.
                    raise
            if drain is not None and drain.requested:
                return
    finally:
        if heartbeater is not None:
            heartbeater.stop()


def _pool_worker_main(
    rank: int,
    size: int,
    conns: Dict[int, socket.socket],
    extra_close: List,
    ctrl_conn,
    cluster: "ProcessCluster",
) -> None:
    """Pool worker entry point (forked child): :func:`serve_pool_jobs`
    over the duplex control pipe, after the one-time mesh/comm setup
    from the ``cluster`` configuration inherited through the fork."""
    from repro.kvpairs.spill import SpillDir, install_spill_cleanup_handler

    # Spill hygiene: a terminated pool worker must still remove its
    # per-job spill dirs (SIGTERM -> SystemExit -> atexit hooks), and a
    # fresh pool (e.g. re-forked after an injected SIGKILL) reaps any
    # spill dirs a crashed predecessor left behind.
    install_spill_cleanup_handler()
    SpillDir.sweep_stale()
    # Drop inherited duplicates of other endpoints' fds.  Without this a
    # dead peer's channel never reaches EOF (our own inherited copy of its
    # socket end keeps it open), so failures would only surface via the
    # receive timeout instead of an immediate reader-thread EOF.
    for obj in extra_close:
        try:
            obj.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
    comm: Optional[_SocketComm] = None
    try:
        comm = make_socket_comm(
            rank,
            size,
            conns,
            cluster.multicast_mode,
            cluster.rate_bytes_per_s,
            cluster.timeout,
            cluster.chunk_bytes,
            cluster.record_relays,
        )
        serve_pool_jobs(
            comm,
            rank,
            ctrl_conn.recv,
            ctrl_conn.send,
            heartbeat_interval=cluster.heartbeat_interval,
        )
    finally:
        if comm is not None:
            comm._close_async()
        try:
            ctrl_conn.close()
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
        for s in conns.values():
            try:
                s.close()
            except OSError:
                pass


class ProcessCluster:
    """K worker processes over an AF_UNIX socket mesh.

    Args:
        size: number of workers (the paper's ``K``).
        multicast_mode: linear or binomial-tree application multicast.
        rate_bytes_per_s: per-worker egress throttle; ``12.5e6`` reproduces
            the paper's 100 Mbps setting. ``None`` disables pacing.
        timeout: overall run timeout in seconds (workers are killed past it);
            also bounds how long any single receive may wait.
        chunk_bytes: maximum raw-frame size for one user payload chunk.
        record_relays: additionally log every physical broadcast hop (kind
            ``"relay"``) to the traffic log.
        heartbeat_interval: how often pool workers report their current
            stage to the driver (seconds); feeds failure detection and
            map speculation.  ``None`` disables heartbeats.
        failure_timeout: a pool worker silent for this long mid-job is
            declared dead with a typed
            :class:`~repro.runtime.errors.WorkerFailure` — no waiting
            for the job timeout or the EOF cascade.
    """

    def __init__(
        self,
        size: int,
        multicast_mode: MulticastMode = MulticastMode.TREE,
        rate_bytes_per_s: Optional[float] = None,
        timeout: float = 300.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        record_relays: bool = False,
        heartbeat_interval: Optional[float] = 0.5,
        failure_timeout: float = 30.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if os.name != "posix":  # pragma: no cover - linux-only environment
            raise RuntimeError("ProcessCluster requires a POSIX fork platform")
        self.size = size
        self.multicast_mode = multicast_mode
        self.rate_bytes_per_s = rate_bytes_per_s
        self.timeout = timeout
        self.chunk_bytes = chunk_bytes
        self.record_relays = record_relays
        self.heartbeat_interval = heartbeat_interval
        self.failure_timeout = failure_timeout

    def run(self, factory: ProgramFactory) -> ClusterResult:
        """Fork workers, run the program once, gather results and traffic
        — a one-job :class:`~repro.runtime.pool.WorkerPool`.

        Workers inherit ``factory`` through ``fork`` (it is parked in a
        module-level registry the children see a copy of; only its token
        crosses the control pipe), so it may close over arbitrary
        in-memory state without pickling.

        Raises:
            RuntimeError: if any worker fails or the run times out; the
                worker's traceback text is included.
        """
        token = next(_factory_tokens)
        _FORK_FACTORIES[token] = factory
        try:
            with self.create_pool() as pool:
                return pool.run_job(
                    PreparedJob(
                        builder=_build_inherited,
                        payloads=[token] * self.size,
                        finalize=lambda result: result,
                    ),
                    last=True,
                )
        finally:
            del _FORK_FACTORIES[token]

    def create_pool(self) -> WorkerPool:
        """A persistent worker pool over this cluster configuration.

        The pool forks the K-worker socket mesh once (lazily, on the
        first job) and runs many jobs on it: the per-job cost drops to
        one (builder, payload) pickle per worker plus the job itself.
        Any worker error, worker death, or job timeout fails that job
        and tears the workers down; the next job transparently re-forks
        a clean mesh.  :class:`repro.session.Session` is the
        driver-facing API over it.
        """
        return WorkerPool(ForkMesh(self), self)


#: Program factories of in-flight :meth:`ProcessCluster.run` calls, by
#: token; forked workers inherit the entry present at fork time.
_FORK_FACTORIES: Dict[int, ProgramFactory] = {}
_factory_tokens = itertools.count()


def _build_inherited(comm: Comm, token: int) -> NodeProgram:
    return _FORK_FACTORIES[token](comm)


class ForkMesh:
    """The fork transport: K worker processes over one ``socketpair``
    mesh, each behind a duplex pipe as its control channel.

    Only answers how the workers come to exist (:meth:`form`) and go
    away (:meth:`teardown`); everything after is
    :class:`~repro.runtime.pool.WorkerPool`.  There is no listener —
    a dead forked worker is replaced by re-forming the whole mesh.
    """

    listener = None

    def __init__(self, cluster: ProcessCluster) -> None:
        self._cluster = cluster
        self._ctx = multiprocessing.get_context("fork")
        self.procs: List = []

    def form(self, size: int) -> Dict[int, Any]:
        """Fork ``size`` workers running :func:`_pool_worker_main`;
        returns the parent ends of their control pipes by rank."""
        pairs = _build_mesh(size)
        ctrl_conns: List = []
        procs: List = []
        try:
            for rank in range(size):
                conns, extra_close = _mesh_endpoints(pairs, rank)
                # Earlier workers' parent-side control ends are inherited
                # too; the child drops those copies.
                extra_close.extend(ctrl_conns)
                parent_conn, child_conn = self._ctx.Pipe(duplex=True)
                extra_close.append(parent_conn)
                proc = self._ctx.Process(
                    target=_pool_worker_main,
                    args=(
                        rank,
                        size,
                        conns,
                        extra_close,
                        child_conn,
                        self._cluster,
                    ),
                    name=f"pool-worker-{rank}",
                    daemon=True,
                )
                proc.start()
                child_conn.close()
                ctrl_conns.append(parent_conn)
                procs.append(proc)
        finally:
            # The pool no longer needs the mesh fds (workers hold theirs).
            for si, sj in pairs.values():
                si.close()
                sj.close()
        self.procs = procs
        return dict(enumerate(ctrl_conns))

    def teardown(self) -> None:
        """Reap the workers (the pool already sent ``stop`` and closed
        their control pipes); must never hang.  Each escalation step
        gives the whole mesh one shared window, not one per worker:
        after a failed job every survivor may be wedged on a dead peer.
        """
        for escalate in ("terminate", "kill", None):
            deadline = time.monotonic() + 5.0
            for proc in self.procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            alive = [proc for proc in self.procs if proc.is_alive()]
            if not alive or escalate is None:
                break
            for proc in alive:
                # SIGTERM stays pending on a stopped (SIGSTOP) worker;
                # only SIGKILL reaps it.
                getattr(proc, escalate)()
        self.procs = []
