"""Threaded in-process cluster backend.

Runs one OS thread per node with lock-protected mailboxes for tagged
point-to-point delivery.  This backend exists for *functional* fidelity —
end-to-end correctness tests, deterministic byte accounting, and the Fig. 1 /
Fig. 2 load measurements — not wall-clock performance (the GIL serializes
compute).  Real parallel timing comes from
:class:`repro.runtime.process.ProcessCluster` and the simulator.

Non-blocking primitives are cheap here: mailbox puts never block, so
``isend`` completes inline — a TREE interior receive's relay included —
and ``irecv`` / ``ibcast`` receives are lazy mailbox pops (no helper
threads).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.runtime.api import (
    BufferParts,
    CommError,
    DEFAULT_CHUNK_BYTES,
    MulticastMode,
)
from repro.runtime.mailbox import Mailbox, MailboxClosed, MailboxComm
from repro.runtime.program import (
    ClusterResult,
    PreparedJob,
    ProgramFactory,
    assemble_cluster_result,
)
from repro.runtime.traffic import TrafficLog
from repro.utils import copytrack


class _ThreadComm(MailboxComm):
    """Comm endpoint backed by shared-memory mailboxes."""

    def __init__(
        self,
        rank: int,
        size: int,
        mailboxes: List[Mailbox],
        barrier: threading.Barrier,
        traffic: TrafficLog,
        multicast_mode: MulticastMode,
        recv_timeout: Optional[float],
        chunk_bytes: int,
        record_relays: bool,
    ) -> None:
        super().__init__(
            rank,
            size,
            traffic=traffic,
            multicast_mode=multicast_mode,
            chunk_bytes=chunk_bytes,
            record_relays=record_relays,
        )
        self._mailboxes = mailboxes
        self._mailbox = mailboxes[rank]
        self._barrier = barrier
        self._recv_timeout = recv_timeout

    def _send_raw(self, dst: int, tag: int, payload: BufferParts) -> None:
        # Mailboxes hold one buffer per frame.  Immutable single parts are
        # shared by reference (true zero-copy between threads); multi-part
        # frames are materialized once here — the producer-side copy this
        # backend charges instead of a kernel crossing.  *Mutable* buffers
        # (bytearrays, writable views such as an encoder's XOR arena) are
        # copied too: a completed blocking send must not alias caller
        # memory, because the caller is free to reuse its arena afterwards.
        if not isinstance(payload, (bytes, bytearray, memoryview)):
            parts = [p for p in payload if len(p)]
            if len(parts) == 1:
                payload = parts[0]
            else:
                payload = b"".join(parts)
                copytrack.count_copy(len(payload), "inproc.send.join")
        if isinstance(payload, bytearray) or (
            isinstance(payload, memoryview) and not payload.readonly
        ):
            copytrack.count_copy(len(payload), "inproc.send.own")
            payload = bytes(payload)
        try:
            self._mailboxes[dst].put(self.rank, tag, payload)
        except MailboxClosed as exc:
            raise CommError(str(exc)) from exc

    def _barrier_raw(self) -> None:
        try:
            self._barrier.wait(timeout=self._recv_timeout)
        except threading.BrokenBarrierError as exc:
            raise CommError("barrier broken (a peer failed)") from exc


class ThreadCluster:
    """A K-node cluster of threads sharing one traffic log.

    Args:
        size: number of nodes (the paper's ``K``).
        multicast_mode: linear or binomial-tree application multicast.
        recv_timeout: per-receive timeout in seconds; ``None`` disables it.
            Tests use a finite timeout so protocol bugs fail fast instead of
            deadlocking the suite.
        chunk_bytes: maximum raw-frame size for one user payload chunk.
        record_relays: additionally log every physical broadcast hop (kind
            ``"relay"``) to the traffic log.
    """

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

    def run(self, factory: ProgramFactory) -> ClusterResult:
        """Run one program instance per node; gather results and timings
        — a one-job :class:`_ThreadPool` (threads share memory, so the
        factory closure is handed over as-is).

        Any exception in any node thread is re-raised in the caller (the
        first one chronologically), after closing all mailboxes so the
        remaining threads unblock and exit.
        """
        with self.create_pool() as pool:
            return pool.run_job(
                PreparedJob(
                    builder=lambda comm, _payload: factory(comm),
                    payloads=[None] * self.size,
                    finalize=lambda result: result,
                )
            )

    def create_pool(self) -> "_ThreadPool":
        """A persistent worker pool over this cluster configuration.

        See :class:`_ThreadPool`; :class:`repro.session.Session` is the
        driver-facing API over it.
        """
        return _ThreadPool(self)


class _ThreadPool:
    """K persistent node threads running a per-rank job control loop.

    The threads are the long-lived part of the pool; the communication
    fabric (mailboxes + barrier + per-job traffic log) is rebuilt per job
    — mailboxes are cheap in-process objects, and a failed job's closed
    mailboxes / broken barrier must never leak into the next job.  A job
    failure therefore unblocks every peer (barrier abort + mailbox
    closure) while the pool itself survives to run the session's next
    job.  :meth:`ThreadCluster.run` is this pool running one job.

    Deliberately *not* a :class:`~repro.runtime.pool.WorkerPool`
    transport: no sockets, no liveness, no pickling, exceptions handed
    over by reference — the shared reactor would branch on its caller.
    """

    _STOP = ("stop",)

    def __init__(self, cluster: ThreadCluster) -> None:
        self._cluster = cluster
        self.size = cluster.size
        self._queues: List["queue.Queue"] = []
        self._results: "queue.Queue" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._job_seq = 0

    def _ensure_started(self) -> None:
        if self._threads:
            return
        self._queues = [queue.Queue() for _ in range(self.size)]
        self._threads = [
            threading.Thread(
                target=self._worker,
                args=(rank, self._queues[rank]),
                daemon=True,
                name=f"pool-node-{rank}",
            )
            for rank in range(self.size)
        ]
        for t in self._threads:
            t.start()

    def _worker(self, rank: int, jobs: "queue.Queue") -> None:
        cl = self._cluster
        while True:
            msg = jobs.get()
            if msg[0] != "job":
                return  # "stop"
            _, seq, builder, payload, mailboxes, barrier, traffic = msg
            comm: Optional[_ThreadComm] = None
            try:
                comm = _ThreadComm(
                    rank,
                    self.size,
                    mailboxes,
                    barrier,
                    traffic,
                    cl.multicast_mode,
                    cl.recv_timeout,
                    cl.chunk_bytes,
                    cl.record_relays,
                )
                comm.begin_job(seq, traffic)
                program = builder(comm, payload)
                result = program.run()
                self._results.put(
                    (
                        "ok",
                        rank,
                        seq,
                        result,
                        program.stopwatch.times(),
                        list(program.STAGES),
                    )
                )
            except BaseException as exc:  # noqa: BLE001 - reported below
                barrier.abort()
                for mb in mailboxes:
                    mb.close()
                self._results.put(("error", rank, seq, exc))
            finally:
                if comm is not None:
                    comm._close_async()

    def run_job(self, prepared: PreparedJob) -> ClusterResult:
        """Run one prepared job on the pool's threads; gather the result.

        Raises:
            RuntimeError: if any node program fails (first failure
                chronologically); the pool survives and the next job
                runs on fresh mailboxes.
        """
        k = self.size
        prepared.check_size(k)
        self._ensure_started()
        seq = self._job_seq
        self._job_seq += 1
        mailboxes = [Mailbox() for _ in range(k)]
        barrier = threading.Barrier(k)
        traffic = TrafficLog()
        for rank in range(k):
            self._queues[rank].put(
                (
                    "job",
                    seq,
                    prepared.builder,
                    prepared.payloads[rank],
                    mailboxes,
                    barrier,
                    traffic,
                )
            )
        results: List[Any] = [None] * k
        times: List[Dict[str, float]] = [dict() for _ in range(k)]
        stages: List[str] = []
        errors: List[Tuple[int, BaseException]] = []
        # Workers always report: their own receives are bounded by the
        # cluster's recv_timeout, so the margin only covers compute.
        timeout = (
            None
            if self._cluster.recv_timeout is None
            else self._cluster.recv_timeout + 30.0
        )
        collected = 0
        while collected < k:
            try:
                msg = self._results.get(timeout=timeout)
            except queue.Empty:
                # Wedged compute: poison the job so stragglers unblock,
                # abandon the (daemon) threads, and restart next job.
                barrier.abort()
                for mb in mailboxes:
                    mb.close()
                self._threads = []
                raise RuntimeError(
                    f"thread pool job {seq} timed out"
                ) from None
            if msg[2] != seq:
                continue  # stale report from an abandoned earlier job
            collected += 1
            if msg[0] == "ok":
                _, rank, _, result, sw_times, prog_stages = msg
                results[rank] = result
                times[rank] = sw_times
                if prog_stages and not stages:
                    stages = prog_stages
            else:
                errors.append((msg[1], msg[3]))
        if errors:
            rank, exc = errors[0]
            raise RuntimeError(f"node {rank} failed: {exc!r}") from exc
        return assemble_cluster_result(results, times, traffic, stages)

    def close(self) -> None:
        """Stop the worker threads (idempotent)."""
        for q in self._queues:
            q.put(self._STOP)
        for t in self._threads:
            t.join(timeout=10.0)
        self._threads = []
        self._queues = []

    def __enter__(self) -> "_ThreadPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
