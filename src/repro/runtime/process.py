"""The fork transport (``proc://K``): real parallel execution.

Architecture (the paper's Fig. 8, coordinator + K workers):

* the parent process is the coordinator: :class:`ForkMesh` creates a full
  mesh of ``socketpair`` channels and forks K worker processes, and the
  shared :class:`~repro.runtime.pool.WorkerPool` reactor dispatches jobs
  and collects results, stage timings, and traffic logs over one
  ``socketpair`` control channel per worker, in control-codec frames
  whose arrays travel out of band (see :mod:`repro.runtime.transport`);
* each worker runs the same :class:`~repro.runtime.program.NodeProgram` the
  threaded backend runs, over one :class:`Comm` per job built on the
  worker's :class:`MeshEndpoint`, whose peer links are framed socket I/O;
* an optional sender-side token bucket throttles every worker's NIC,
  reproducing the paper's 100 Mbps ``tc`` configuration;
* barriers are dissemination barriers over the same mesh (O(K log K) empty
  frames), so no central coordinator round-trip sits on the timed path.

The data plane is zero-copy on both sides of every socket: sends hand the
framing header plus the caller's buffer parts to vectored ``sendmsg``
(no concatenation), and each inbound frame lands in one arena from the
process's slab pool (:mod:`repro.utils.slabs`) via ``recv_into`` —
receives with ``copy=False`` return memoryview slices of that arena all
the way up to the program.

Each worker's endpoint runs one *reader thread per peer socket* that
demultiplexes inbound frames into a tagged mailbox.  That is what makes
the non-blocking API deadlock-free: sockets are always drained regardless
of which receives the program has posted or waited, so a peer's send can
never stall forever on a full kernel buffer.  Blocking receives, lazy
``irecv`` requests, and barrier frames all pop from the same mailbox.
``isend`` / root-side ``ibcast`` closures run on a single per-worker
sender thread (preserving per-channel FIFO order); a per-link lock keeps
frames from interleaving when the program thread (barriers, blocking
broadcasts) sends concurrently with the sender thread.

``repro.connect("proc://K")`` builds the cluster whose pool forks these
workers; its ``run(factory)`` workers inherit the factory through
``fork``.
"""

from __future__ import annotations

import multiprocessing
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
    Request,
    _CompletedRequest,
    _FutureRequest,
)
from repro.runtime.mailbox import Mailbox, MailboxLink
from repro.runtime.program import JobControl
from repro.runtime.ratelimit import TokenBucket
from repro.runtime.traffic import TrafficLog
from repro.runtime.transport import (
    Channel,
    TransportError,
    bound_sends,
    recv_frame,
    send_frame,
)
from repro.utils.slabs import job_window


class SocketLink:
    """A peer link over a stream socket: each frame is one vectored
    write (header + parts in one ``sendmsg``), paced, under the link's
    lock — the program thread (blocking sends, barriers) and the
    endpoint's sender never interleave frames on it."""

    __slots__ = ("sock", "pacer", "lock")

    def __init__(
        self, sock: socket.socket, pacer: Optional[TokenBucket]
    ) -> None:
        self.sock = sock
        self.pacer = pacer
        self.lock = threading.Lock()

    def send(self, tag: int, payload: BufferParts) -> None:
        with self.lock:
            send_frame(self.sock, tag, payload, pacer=self.pacer)


#: What a worker runs under: the cluster settings every transport hands
#: its workers, by the keys the TCP welcome carries them under.
WORKER_SETTINGS = (
    "rate_bytes_per_s",
    "timeout",
    "record_relays",
    "heartbeat_interval",
)


class MeshEndpoint:
    """One worker's place in the mesh, for the worker's whole life.

    Not a :class:`~repro.runtime.api.Comm`: every job builds its own
    ``Comm`` over this endpoint (see :func:`serve_pool_jobs`), which
    takes the links of its members and receives from the one mailbox.
    The endpoint holds what outlives jobs:

    * the peer links by global rank — a :class:`SocketLink` (forked
      workers, TCP agents; one reader thread per socket feeds the
      mailbox, keyed by global source) or a
      :class:`~repro.runtime.mailbox.MailboxLink` (worker threads of one
      process: a send is a put into the peer's mailbox, so ``mailbox`` is
      passed in, shared with the peers' links);
    * the membership epoch each link was born in (:meth:`add_peer`);
    * the one async sender every job posts on (:meth:`post`).

    Every backend builds it with this constructor; ``links`` holds
    sockets or ``MailboxLink`` objects (a TCP agent starts with none and
    adds each as it is linked), and ``settings`` maps every name in
    :data:`WORKER_SETTINGS` to the cluster's value.
    """

    def __init__(
        self,
        rank: int,
        links: Dict[int, Union[socket.socket, MailboxLink]],
        settings: Dict[str, Any],
        mailbox: Optional[Mailbox] = None,
    ) -> None:
        self.rank = rank
        self.recv_timeout = settings["timeout"]
        self.record_relays = settings["record_relays"]
        self.heartbeat_interval = settings["heartbeat_interval"]
        rate_bytes_per_s = settings["rate_bytes_per_s"]
        self.mailbox = Mailbox() if mailbox is None else mailbox
        self.links: Dict[int, Union[SocketLink, MailboxLink]] = {}
        #: Membership epoch at which each peer link was established; 0
        #: for the initial mesh.  A job compares these against its
        #: planning epoch, so a job dispatched before a rank was recycled
        #: can never talk to the replacement worker.
        self.peer_epochs: Dict[int, int] = {}
        self._pacer = (
            None if rate_bytes_per_s is None else TokenBucket(rate_bytes_per_s)
        )
        # Mailbox puts never block: sends over them run inline.
        self._inline_sends = any(
            isinstance(link, MailboxLink) for link in links.values()
        )
        self._send_queue: Optional["queue.Queue"] = None
        self._sender_thread: Optional[threading.Thread] = None
        self._sender_lock = threading.Lock()
        for peer, link in links.items():
            self.add_peer(peer, link)

    def add_peer(
        self,
        peer: int,
        link: Union[socket.socket, MailboxLink],
        epoch: int = 0,
    ) -> None:
        """Integrate a peer's mesh link into this endpoint.

        Every link of a TCP agent arrives this way — the ones it dials
        and the ones its acceptor takes in, at mesh formation and when a
        replacement agent joins mid-service: the new socket replaces
        any dead link at ``peer``'s rank, the rank's mailbox source is
        reopened (the old incarnation's EOF closed it), a fresh reader
        thread starts, and the link is stamped with the membership
        ``epoch`` it was born in.  Safe while disjoint jobs run: a job's
        ``Comm`` takes its members' links at construction and never
        includes a dead rank.
        """
        sock = link if isinstance(link, socket.socket) else None
        if sock is not None:
            # A wedged peer must raise in the blocked sender, with a
            # traceback naming the stuck send, while the reader threads
            # keep blocking.
            if self.recv_timeout is not None:
                bound_sends(sock, self.recv_timeout)
            link = SocketLink(sock, self._pacer)
        old = self.links.get(peer)
        self.links[peer] = link
        self.peer_epochs[peer] = epoch
        self.mailbox.reopen_source(peer)
        if sock is None:
            return
        threading.Thread(
            target=self._reader_loop,
            args=(peer, link),
            daemon=True,
            name=f"reader-{self.rank}<-{peer}",
        ).start()
        if old is not None:
            try:
                old.sock.close()
            except OSError:  # pragma: no cover - already dead
                pass

    def _reader_loop(self, peer: int, link: SocketLink) -> None:
        while True:
            try:
                tag, payload = recv_frame(link.sock)
            except (OSError, TransportError) as exc:
                # Close the source only while this socket is still the
                # peer's current link: a replacement incarnation may have
                # been integrated (add_peer) before the old link's EOF
                # drained, and its fresh source must stay open.
                if self.links.get(peer) is link:
                    self.mailbox.close_source(peer, str(exc))
                return
            self.mailbox.put(peer, tag, payload)

    def wait_for_peers(
        self, peers: Sequence[int], timeout: float = 5.0
    ) -> List[int]:
        """Block until every listed rank has a mesh link, at most
        ``timeout`` seconds; returns the ranks still missing.

        Links an acceptor takes in land on its own thread: at mesh
        formation the higher ranks dial in while this one is still
        dialing, and a job can be dispatched the instant a rejoined
        member reported ready to the coordinator, a hair before *this*
        worker integrated that member's link.
        """
        deadline = time.monotonic() + timeout
        missing = [g for g in peers if g != self.rank and g not in self.links]
        while missing and time.monotonic() < deadline:
            time.sleep(0.01)
            missing = [g for g in missing if g not in self.links]
        return missing

    def post(self, fn: Callable[[], Optional[bytes]], stage: str) -> Request:
        """Run a send closure on the one sender thread, in post order —
        inline over mailbox links, whose puts never block.  The thread
        starts on first use and serves every later job."""
        if self._inline_sends:
            return _CompletedRequest(fn())
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
        req = _FutureRequest(self.recv_timeout, stage)
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

    def close(self) -> None:
        """Stop the sender (after what is queued) and close the socket
        links."""
        if self._send_queue is not None:
            self._send_queue.put(None)
            assert self._sender_thread is not None
            self._sender_thread.join(timeout=10.0)
        for link in self.links.values():
            if isinstance(link, SocketLink):
                try:
                    link.sock.close()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass


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
    ``("roster", info)`` membership news is dropped here: it may arrive
    at any time, idle or mid-job, and must never end the control loop
    (a joined peer's link arrives through
    :meth:`MeshEndpoint.add_peer`, not this frame).
    """

    _EOF = ("__eof__",)

    def __init__(self, recv_msg: Callable[[], Tuple]) -> None:
        self._recv_msg = recv_msg
        self.inbox: "queue.SimpleQueue[Tuple]" = queue.SimpleQueue()
        self.job_control: Optional[JobControl] = None
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
                continue
            if msg[0] == "job":
                self.job_control = JobControl(msg[1])
            self.inbox.put(msg)
            if msg[0] != "job":
                return  # "stop" (or anything unknown) ends the loop
            del msg  # the job is the control loop's now: hold none of it


class _Heartbeater:
    """Emits ``("hb", rank, job_seq, stage)`` frames while ``job`` (the
    running job's Comm) is set: one thread for the worker's whole life.
    ``job`` is cleared under ``send_lock`` with the final report, so no
    beat trails it."""

    def __init__(
        self,
        rank: int,
        send_msg: Callable[[Tuple], None],
        send_lock: threading.Lock,
        interval: float,
    ) -> None:
        self.job: Optional[Comm] = None
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
                comm = self.job
                if comm is None:
                    continue
                try:
                    self._send_msg(
                        ("hb", self._rank, comm.job_seq, comm.stage)
                    )
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
    endpoint: MeshEndpoint,
    recv_msg: Callable[[], Tuple],
    send_msg: Callable[[Tuple], None],
    drain: Optional[WorkerDrain] = None,
) -> None:
    """The pool worker control loop, over any coordinator transport.

    Each ``("job", seq, builder, payload, members, epoch)`` message
    starts the job by building its :class:`~repro.runtime.api.Comm` over
    ``endpoint`` for the job's global ``members`` — logical ranks
    ``0..len(members)-1``; a full-mesh job names every rank — with the
    job's tag window, traffic log and :class:`JobControl`, builds the
    node program from the shipped ``(builder, payload)``, runs it, and
    reports the per-job result / stage times / traffic back through
    ``send_msg``.  The other workers of the mesh stay free to run a
    different job concurrently.

    A worker outlives a failed job: it reports the failure and waits
    for the next job or the coordinator's ``stop``.  The failed job's
    sends still queued on the endpoint's sender are dropped, its late
    frames are reclaimed when the next job's ``Comm`` is built (per-job
    tag windows make this exact), and its surviving members unwind on
    the coordinator's abort directive, which their receives poll.  The
    coordinator retries a failed job on a fresh sequence number, so
    nothing ever aliases; whether it re-forms the mesh first is its own
    choice (a Session does, the sort service never does).

    While a job runs, the worker's one heartbeat thread reports its
    current stage every ``endpoint.heartbeat_interval`` seconds (``None``
    disables) — the driver's liveness detector and the speculation
    policy both feed on these.  A reader thread owns ``recv_msg`` for the
    whole loop, routing mid-job ``("ctl", seq, payload)`` frames into the
    job's :class:`JobControl`.  Both threads start once, with the loop,
    never per job.  The final ok/error report clears the heartbeater's
    job under the send lock, so the report is always the channel's last
    frame for the job.

    Failures are reported typed: a :class:`CommError` (peer death, comm
    timeout — including the cascade EOFs every survivor sees when one
    worker crashes) reports as ``("comm_error", rank, seq, tb)``, any
    other exception — a genuine program bug — as ``("error", ...)``.

    ``recv_msg`` must raise ``EOFError`` / ``OSError`` /
    :class:`TransportError` once the coordinator is gone; any non-``job``
    message (``("stop",)``) also ends the loop, as does a
    :class:`WorkerDrain` trigger once the in-flight job (if any) has
    reported.  Shared by the forked AF_UNIX pool workers here and the TCP
    worker agents in :mod:`repro.runtime.tcp` (transport: a
    :class:`~repro.runtime.transport.Channel` — control-codec frames on
    a ``socketpair`` end or the rendezvous connection) and the worker
    threads of :class:`~repro.runtime.inproc.InprocMesh` (transport:
    objects passed by reference).
    """
    rank = endpoint.rank
    send_lock = threading.Lock()
    reader = _CtrlReader(recv_msg)
    if drain is not None:
        drain._inbox = reader.inbox
    interval = endpoint.heartbeat_interval
    heartbeater = (
        _Heartbeater(rank, send_msg, send_lock, interval) if interval else None
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
            job_window(job_seq, builder)
            traffic = TrafficLog()
            comm: Optional[Comm] = None
            try:
                # A member that rejoined an instant ago may still be mid-
                # integration on this endpoint: wait briefly for its link.
                # A malformed member list raises CommError straight into
                # the typed report below — reported, never fatal here.
                endpoint.wait_for_peers(members)
                comm = Comm(
                    endpoint,
                    members,
                    job_seq,
                    traffic,
                    epoch=epoch,
                    control=reader.job_control,
                )
                if heartbeater is not None:
                    heartbeater.job = comm
                program = builder(comm, payload)
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
                if comm is not None:
                    comm.failed = True
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
            # Reported: hold nothing of the job while waiting for the
            # next; its buffers go back to the slab pool.
            msg = builder = payload = comm = program = result = None
            if drain is not None and drain.requested:
                return
    finally:
        if heartbeater is not None:
            heartbeater.stop()


def _pool_worker_main(
    rank: int,
    conns: Dict[int, socket.socket],
    extra_close: List,
    ctrl_sock: socket.socket,
    settings: Dict[str, Any],
) -> None:
    """Pool worker entry point (forked child): :func:`serve_pool_jobs`
    over its end of the control ``socketpair``, after the one-time
    mesh endpoint setup from the worker ``settings`` inherited through
    the fork."""
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
    endpoint = MeshEndpoint(rank, conns, settings)
    try:
        chan = Channel(ctrl_sock, settings["timeout"], pool_end=False)
        serve_pool_jobs(endpoint, chan.recv, chan.send)
    finally:
        endpoint.close()
        ctrl_sock.close()


class ForkMesh:
    """The fork transport: K worker processes over one ``socketpair``
    mesh, each behind one more ``socketpair`` as its control
    :class:`~repro.runtime.transport.Channel` — the framing and codec
    TCP workers and the service port speak too.

    Only answers how the workers come to exist (:meth:`form`) and go
    away (:meth:`teardown`); everything after is
    :class:`~repro.runtime.pool.WorkerPool`.  There is no listener —
    a dead forked worker is replaced by re-forming the whole mesh.
    """

    listener = None

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._ctx = multiprocessing.get_context("fork")
        self.procs: List = []

    def form(self, size: int) -> Dict[int, Channel]:
        """Fork ``size`` workers running :func:`_pool_worker_main`;
        returns the pool ends of their control channels by rank."""
        pairs = _build_mesh(size)
        settings = self._cluster.worker_settings()
        chans: List[Channel] = []
        procs: List = []
        try:
            for rank in range(size):
                conns, extra_close = _mesh_endpoints(pairs, rank)
                # Earlier workers' pool-side control ends are inherited
                # too; the child drops those copies.
                extra_close.extend(chans)
                pool_end, worker_end = socket.socketpair()
                extra_close.append(pool_end)
                proc = self._ctx.Process(
                    target=_pool_worker_main,
                    args=(
                        rank,
                        conns,
                        extra_close,
                        worker_end,
                        settings,
                    ),
                    name=f"pool-worker-{rank}",
                    daemon=True,
                )
                proc.start()
                worker_end.close()
                chans.append(Channel(pool_end, self._cluster.timeout))
                procs.append(proc)
        finally:
            # The pool no longer needs the mesh fds (workers hold theirs).
            for si, sj in pairs.values():
                si.close()
                sj.close()
        self.procs = procs
        return dict(enumerate(chans))

    def teardown(self, busy: Sequence[int] = ()) -> None:
        """Reap the workers (the pool already sent ``stop`` and closed
        their control channels); must never hang.  Each escalation step
        gives the whole mesh one shared window, not one per worker:
        after a failed job every survivor may be wedged on a dead peer.
        A ``busy`` rank gets no window before its ``terminate``: it is
        still in a job that has already failed.
        """
        for rank in busy:
            self.procs[rank].terminate()
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
