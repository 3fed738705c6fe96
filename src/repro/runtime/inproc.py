"""Threaded in-process cluster backend: the pool's in-memory transport.

Runs one OS thread per node.  This backend exists for *functional*
fidelity — end-to-end correctness tests, deterministic byte accounting,
and the Fig. 1 / Fig. 2 load measurements — not wall-clock performance
(the GIL serializes compute).  Real parallel timing comes from
:class:`repro.runtime.process.ProcessCluster` and the closed-form model
(:mod:`repro.sim`).

:class:`InprocMesh` is a :class:`~repro.runtime.pool.WorkerPool`
transport beside :class:`~repro.runtime.process.ForkMesh` and
:class:`~repro.runtime.tcp.Rendezvous`, so dispatch, heartbeats,
speculation, abort, typed :class:`~repro.runtime.errors.WorkerFailure`
and retry are the one pool's here too.  Each worker thread runs the
shared :func:`~repro.runtime.process.serve_pool_jobs` loop over a
:class:`~repro.runtime.process.MeshEndpoint` built with the one
constructor every backend uses: its peer links are
:class:`~repro.runtime.mailbox.MailboxLink` objects — a send puts the
frame straight into the peer's mailbox by reference, the mailboxes made
here and passed in — behind a control
channel that passes objects by reference too, so closures and results
are never pickled.  Mailbox puts never block, so ``isend`` completes
inline — a TREE interior receive's relay included — and no sender
thread starts.  An injected ``crash`` kills only its worker thread (see
:mod:`repro.testing.faults`).
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.runtime.api import DEFAULT_CHUNK_BYTES, MulticastMode
from repro.runtime.mailbox import Mailbox, MailboxLink
from repro.runtime.pool import WorkerPool
from repro.runtime.process import MeshEndpoint, serve_pool_jobs
from repro.runtime.program import ClusterResult, PreparedJob, ProgramFactory
from repro.testing import faults


class ThreadCluster:
    """A K-node cluster of threads in this process.

    Args:
        size: number of nodes (the paper's ``K``).
        multicast_mode: linear or binomial-tree application multicast.
        recv_timeout: per-receive timeout in seconds; ``None`` disables it.
            Tests use a finite timeout so protocol bugs fail fast instead of
            deadlocking the suite.  The pool's job deadline is this plus
            30 s for compute (``None``: no deadline).
        chunk_bytes: maximum raw-frame size for one user payload chunk.
        record_relays: additionally log every physical broadcast hop (kind
            ``"relay"``) to the traffic log.

    The pool's liveness settings are
    :class:`~repro.runtime.process.ProcessCluster`'s defaults.
    """

    heartbeat_interval: Optional[float] = 0.5
    failure_timeout = 30.0

    def __init__(
        self,
        size: int,
        multicast_mode: MulticastMode = MulticastMode.LINEAR,
        recv_timeout: Optional[float] = 60.0,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        record_relays: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        self.size = size
        self.multicast_mode = multicast_mode
        self.recv_timeout = recv_timeout
        self.chunk_bytes = chunk_bytes
        self.record_relays = record_relays
        #: The pool's job deadline.
        self.timeout = (
            float("inf") if recv_timeout is None else recv_timeout + 30.0
        )

    def run(self, factory: ProgramFactory) -> ClusterResult:
        """Run one program instance per node; gather results, timings and
        traffic — a one-job :class:`~repro.runtime.pool.WorkerPool`.
        Threads share memory, so the factory closure is handed over as-is.

        Raises:
            RuntimeError: if any node program fails (a
                :class:`~repro.runtime.errors.WorkerFailure` when a worker
                died); the worker's traceback text is included.
        """
        with self.create_pool() as pool:
            return pool.run_job(
                PreparedJob(
                    builder=lambda comm, _payload: factory(comm),
                    payloads=[None] * self.size,
                    finalize=lambda result: result,
                ),
                last=True,
            )

    def create_pool(self) -> WorkerPool:
        """A persistent worker pool over this cluster configuration.

        The pool starts K worker threads on the first job and runs many
        jobs on them; a failed job tears them down and the next job
        starts a fresh mesh.  :class:`repro.session.Session` is the
        driver-facing API over it.
        """
        return WorkerPool(InprocMesh(self), self)


class _Channel:
    """One worker thread's control channel, both ends; objects pass by
    reference.

    Pool to worker is a queue.  Worker to pool is a deque plus one byte a
    message on a socketpair, whose pool end is what the pool's selector
    waits on.  Either end closing is EOF at the other, as on a pipe.
    """

    _EOF = ("__eof__",)

    def __init__(self) -> None:
        self._inbox: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self._outbox: "deque[Any]" = deque()
        self._bell, self._ring = socket.socketpair()

    # -- the pool's end -----------------------------------------------------

    def send(self, msg: Any) -> None:
        self._inbox.put(msg)

    def recv(self) -> Any:
        if not self._bell.recv(1):
            raise EOFError("worker thread is gone")
        return self._outbox.popleft()

    def fileno(self) -> int:
        return self._bell.fileno()

    def close(self) -> None:
        self._bell.close()
        self._inbox.put(self._EOF)

    # -- the worker's end ---------------------------------------------------

    def take(self) -> Any:
        msg = self._inbox.get()
        if msg is self._EOF:
            raise EOFError("the pool closed the control channel")
        return msg

    def put(self, msg: Any) -> None:
        self._outbox.append(msg)
        self._ring.send(b"x")  # OSError once either end is closed

    def hang_up(self) -> None:
        self._ring.close()


class InprocMesh:
    """The in-memory transport: K worker threads over shared mailboxes,
    each behind a :class:`_Channel`.

    Only answers how the workers come to exist (:meth:`form`) and go
    away (:meth:`teardown`); everything after is
    :class:`~repro.runtime.pool.WorkerPool`.  There is no listener — a
    dead worker thread is replaced by re-forming the whole mesh.
    """

    listener = None

    def __init__(self, cluster: ThreadCluster) -> None:
        self._cluster = cluster
        self._threads: List[threading.Thread] = []

    def form(self, size: int) -> Dict[int, _Channel]:
        """Start ``size`` worker threads; returns their channels by rank."""
        cl = self._cluster
        mailboxes = [Mailbox() for _ in range(size)]
        endpoints = [
            MeshEndpoint(
                rank,
                {
                    peer: MailboxLink(mailboxes[peer], rank)
                    for peer in range(size)
                    if peer != rank
                },
                cl.multicast_mode,
                None,
                cl.recv_timeout,
                cl.chunk_bytes,
                cl.record_relays,
                mailbox=mailboxes[rank],
            )
            for rank in range(size)
        ]
        chans = {rank: _Channel() for rank in range(size)}
        self._threads = [
            threading.Thread(
                target=self._serve,
                args=(endpoint, chans[endpoint.rank]),
                daemon=True,
                name=f"inproc-worker-{endpoint.rank}",
            )
            for endpoint in endpoints
        ]
        for thread in self._threads:
            thread.start()
        return chans

    def _serve(self, endpoint: MeshEndpoint, chan: _Channel) -> None:
        """One worker thread: the pool worker loop, then what a process's
        exit tells the rest of the pool."""

        def leave() -> None:
            # EOF on the control channel, then on every peer link.
            chan.hang_up()
            for link in endpoint.links.values():
                link.mailbox.close_source(
                    endpoint.rank, "worker thread exited"
                )

        def die() -> None:
            leave()  # before the unwind: no report can follow
            raise SystemExit(faults.CRASH_EXIT_CODE)

        faults.this_thread.die = die
        try:
            serve_pool_jobs(
                endpoint,
                chan.take,
                chan.put,
                heartbeat_interval=self._cluster.heartbeat_interval,
            )
        finally:
            leave()

    def teardown(self) -> None:
        """Join the worker threads (the pool already sent ``stop`` and
        closed their channels) within one shared window; a thread still
        wedged in compute past it is abandoned — it is a daemon, and
        its mesh is never used again."""
        deadline = time.monotonic() + 5.0
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        self._threads = []
