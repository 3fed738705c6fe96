"""SubsetComm: logical-rank views over one shared socket mesh.

Builds a real K=4 socketpair mesh *in process* (four ``_SocketComm``
endpoints with live reader threads, one per rank, driven by worker
threads) and exercises the service runtime's isolation mechanisms
directly:

* two subset jobs on disjoint member sets run concurrently over the one
  mesh and each sees only its own frames (per-job tag windows);
* logical ranks map onto arbitrary (even unsorted) global member lists;
* an ``("abort", reason)`` control delivery unblocks a pending receive
  promptly instead of waiting out the receive timeout;
* beginning a job drops every buffered frame outside its tag windows
  (``_purge_stale_frames``), including a finished job's late arrivals;
* views send on their endpoint's one async sender, and a failed job's
  queued sends are dropped;
* the constructor rejects malformed subsets.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.runtime.api import JOB_TAG_STRIDE, MulticastMode
from repro.runtime.errors import CommError, WorkerFailure
from repro.runtime.process import (
    SubsetComm,
    _purge_stale_frames,
    make_socket_comm,
)
from repro.runtime.program import JobControl

K = 4


@pytest.fixture()
def mesh():
    """Four in-process ``_SocketComm`` endpoints over a socketpair mesh."""
    pairs = {
        (i, j): socket.socketpair()
        for i in range(K)
        for j in range(i + 1, K)
    }
    conns_for = {r: {} for r in range(K)}
    for (i, j), (si, sj) in pairs.items():
        conns_for[i][j] = si
        conns_for[j][i] = sj
    comms = [
        make_socket_comm(
            rank=r,
            size=K,
            conns=conns_for[r],
            multicast_mode=MulticastMode.TREE,
            rate_bytes_per_s=None,
            socket_timeout=30.0,
            chunk_bytes=1 << 20,
            record_relays=False,
        )
        for r in range(K)
    ]
    yield comms
    for comm in comms:
        comm._close_async()
    for si, sj in pairs.values():
        for s in (si, sj):
            try:
                s.close()
            except OSError:
                pass


def _run_members(comms, members, job_seq, body, errors):
    """One thread per subset member running ``body(subset_comm)``."""

    def worker(global_rank):
        try:
            sub = SubsetComm(comms[global_rank], members)
            sub.begin_job(job_seq, None)
            try:
                body(sub)
            finally:
                sub._close_async()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            errors.append((global_rank, exc))

    threads = [
        threading.Thread(target=worker, args=(g,), daemon=True)
        for g in members
    ]
    for t in threads:
        t.start()
    return threads


class TestConcurrentSubsets:
    def test_disjoint_jobs_share_one_mesh(self, mesh):
        """Jobs on {0, 2} and {1, 3} overlap without cross-talk."""
        results = {}
        errors = []
        lock = threading.Lock()

        def make_body(label):
            def body(sub):
                # Logical all-to-all: every member sends its label-tagged
                # payload to the other, then a barrier.
                peer = 1 - sub.rank
                payload = f"{label}:{sub.rank}".encode()
                sub.send(peer, tag=7, payload=payload)
                got = bytes(sub.recv(peer, tag=7))
                sub.barrier()
                with lock:
                    results[(label, sub.rank)] = got

            return body

        threads = _run_members(mesh, [0, 2], 5, make_body("even"), errors)
        threads += _run_members(mesh, [1, 3], 6, make_body("odd"), errors)
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert results == {
            ("even", 0): b"even:1",
            ("even", 1): b"even:0",
            ("odd", 0): b"odd:1",
            ("odd", 1): b"odd:0",
        }

    def test_logical_ranks_follow_member_order(self, mesh):
        """members=[3, 1]: logical 0 is global 3, logical 1 is global 1."""
        seen = {}
        errors = []

        def body(sub):
            if sub.rank == 0:
                sub.send(1, tag=2, payload=b"from-global-3")
            else:
                seen["payload"] = bytes(sub.recv(0, tag=2))
                seen["global"] = sub.members[sub.rank]

        threads = _run_members(mesh, [3, 1], 9, body, errors)
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert seen == {"payload": b"from-global-3", "global": 1}

    def test_bcast_within_subset(self, mesh):
        got = {}
        errors = []
        lock = threading.Lock()

        def body(sub):
            out = sub.bcast([0, 1, 2], root=0, tag=3, payload=(
                b"coded" if sub.rank == 0 else None
            ))
            with lock:
                got[sub.rank] = bytes(out)

        threads = _run_members(mesh, [0, 1, 3], 11, body, errors)
        for t in threads:
            t.join(timeout=30.0)
        assert not errors, errors
        assert got == {0: b"coded", 1: b"coded", 2: b"coded"}


class TestAbort:
    def test_abort_unblocks_pending_recv_promptly(self, mesh):
        sub = SubsetComm(mesh[0], [0, 1])
        sub.begin_job(3, None)
        control = JobControl(3)
        sub.job_control = control
        try:
            start = time.monotonic()

            def later():
                time.sleep(0.3)
                control.deliver(("abort", "neighbour died"))

            threading.Thread(target=later, daemon=True).start()
            # Nobody ever sends: only the abort poll can end this recv
            # before the 30 s backend timeout.
            with pytest.raises(WorkerFailure) as exc_info:
                sub.recv(1, tag=1)
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, f"abort took {elapsed:.1f}s to land"
            assert "neighbour died" in str(exc_info.value)
        finally:
            sub.job_control = None
            sub._close_async()


def _await_frame(comm, src, job_seq, tag):
    """Block until ``comm``'s mailbox holds a frame of ``job_seq``'s
    user ``tag`` from ``src`` — without beginning a job on ``comm``."""
    key = (src, job_seq * JOB_TAG_STRIDE + tag)
    assert comm._mailbox.wait_any({key}, 10.0) == [key]


class TestPurge:
    def test_purge_reclaims_only_the_dead_jobs_frames(self, mesh):
        # Worker 1 sends rank 0 one frame in job 5's window and one in
        # job 6's window; purging for job 6 must leave job 6 intact.
        sender5 = SubsetComm(mesh[1], [0, 1])
        sender5.begin_job(5, None)
        sender5.send(0, tag=4, payload=b"stale")
        sender6 = SubsetComm(mesh[1], [0, 1])
        sender6.begin_job(6, None)
        sender6.send(0, tag=4, payload=b"live")
        # The marker is sent *last*: rank 0's single reader thread
        # delivers frames from rank 1 in order, so once the marker is
        # buffered both earlier frames are already in the mailbox.
        sender6.send(0, tag=5, payload=b"marker")
        _await_frame(mesh[0], 1, 6, 5)

        assert _purge_stale_frames(mesh[0]._mailbox, 6) == 1

        receiver = SubsetComm(mesh[0], [0, 1])
        receiver.begin_job(6, None)
        assert bytes(receiver.recv(1, tag=5)) == b"marker"
        assert bytes(receiver.recv(1, tag=4)) == b"live"

    def test_a_late_frame_is_dropped_when_the_next_job_begins(self, mesh):
        # Rank 0 ran job 5 and moved on; only then does rank 1's
        # still-queued job-5 frame land.  Beginning job 6 must drop it
        # and keep the job-6 frame rank 1 has already sent.
        receiver5 = SubsetComm(mesh[0], [0, 1])
        receiver5.begin_job(5, None)
        late = SubsetComm(mesh[1], [0, 1])
        late.begin_job(5, None)
        late.send(0, tag=4, payload=b"late")
        early = SubsetComm(mesh[1], [0, 1])
        early.begin_job(6, None)
        early.send(0, tag=4, payload=b"early")
        _await_frame(mesh[0], 1, 6, 4)

        receiver6 = SubsetComm(mesh[0], [0, 1])
        receiver6.begin_job(6, None)
        assert not receiver5.irecv(1, tag=4).test()  # job 5's is gone
        assert bytes(receiver6.recv(1, tag=4)) == b"early"
        assert not mesh[0]._mailbox._queues

    def test_a_failed_jobs_queued_sends_are_dropped(self, mesh):
        # The view posts on its endpoint's one sender (no thread per
        # job); once its job failed, what it still has queued there is
        # dropped instead of going out ahead of the next job's sends.
        sender = SubsetComm(mesh[1], [0, 1])
        sender.begin_job(7, None)
        sender.failed = True
        sender.isend(0, tag=4, payload=b"dropped").wait()
        nxt = SubsetComm(mesh[1], [0, 1])
        nxt.begin_job(8, None)
        nxt.isend(0, tag=4, payload=b"sent").wait()
        assert sender._sender_thread is None and nxt._sender_thread is None
        assert mesh[1]._sender_thread.is_alive()
        receiver = SubsetComm(mesh[0], [0, 1])
        receiver.begin_job(8, None)
        assert bytes(receiver.recv(1, tag=4)) == b"sent"
        assert not mesh[0]._mailbox._queues


class TestValidation:
    def test_duplicate_members_rejected(self, mesh):
        with pytest.raises(CommError):
            SubsetComm(mesh[0], [0, 0, 1])

    def test_base_rank_must_be_member(self, mesh):
        with pytest.raises(CommError):
            SubsetComm(mesh[0], [1, 2])

    def test_members_must_be_mesh_peers(self, mesh):
        with pytest.raises(CommError):
            SubsetComm(mesh[0], [0, K + 3])
