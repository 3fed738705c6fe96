"""One Comm per job: logical-rank communicators over one shared mesh.

Builds a real K=4 socketpair mesh *in process* (four ``MeshEndpoint``
objects with live reader threads, one per rank, driven by worker
threads) and exercises the pool runtime's isolation mechanisms
directly:

* two jobs on disjoint member sets run concurrently over the one mesh
  and each sees only its own frames (per-job tag windows);
* logical ranks map onto arbitrary (even unsorted) global member lists;
* an ``("abort", reason)`` control delivery unblocks a pending receive
  promptly instead of waiting out the receive timeout;
* building a job's Comm drops every buffered frame outside its tag
  windows (``_purge_stale_frames``), including a finished job's late
  arrivals;
* jobs send on their endpoint's one async sender, and a failed job's
  queued sends are dropped;
* a send to a dead peer fails typed, posted or blocking;
* the constructor rejects malformed member lists;
* a standing pool's jobs allocate no endpoint state;
* a worker holds nothing of a job once it has reported it.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro import Session, TeraSortSpec
from repro.cluster import connect
from repro.kvpairs.teragen import teragen
from repro.runtime.api import (
    JOB_TAG_STRIDE,
    Comm,
    MulticastMode,
    _purge_stale_frames,
)
from repro.runtime.errors import CommError, RuntimeTimeoutError, WorkerFailure
from repro.runtime.mailbox import Mailbox
from repro.runtime.process import MeshEndpoint
from repro.runtime.program import JobControl
from repro.runtime.traffic import TrafficLog

K = 4


def _endpoint(rank, links):
    return MeshEndpoint(
        rank,
        links,
        dict(
            multicast_mode=MulticastMode.TREE,
            rate_bytes_per_s=None,
            timeout=30.0,
            record_relays=False,
            heartbeat_interval=None,
        ),
    )


@pytest.fixture()
def mesh():
    """Four in-process ``MeshEndpoint`` objects over a socketpair mesh."""
    pairs = {
        (i, j): socket.socketpair()
        for i in range(K)
        for j in range(i + 1, K)
    }
    conns_for = {r: {} for r in range(K)}
    for (i, j), (si, sj) in pairs.items():
        conns_for[i][j] = si
        conns_for[j][i] = sj
    endpoints = [_endpoint(r, conns_for[r]) for r in range(K)]
    yield endpoints
    for endpoint in endpoints:
        endpoint.close()


def _run_members(endpoints, members, job_seq, body, errors):
    """One thread per member running ``body(comm)`` on the job's Comm."""

    def worker(global_rank):
        try:
            body(Comm(endpoints[global_rank], members, job_seq, None))
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
        control = JobControl(3)
        sub = Comm(mesh[0], [0, 1], 3, None, control=control)
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


def _await_frame(endpoint, src, job_seq, tag):
    """Block until ``endpoint``'s mailbox holds a frame of ``job_seq``'s
    user ``tag`` from ``src`` — without starting a job there."""
    key = (src, job_seq * JOB_TAG_STRIDE + tag)
    assert endpoint.mailbox.wait_any({key}, 10.0) == [key]


class TestPurge:
    def test_purge_reclaims_only_the_dead_jobs_frames(self, mesh):
        # Worker 1 sends rank 0 one frame in job 5's window and one in
        # job 6's window; purging for job 6 must leave job 6 intact.
        sender5 = Comm(mesh[1], [0, 1], 5, None)
        sender5.send(0, tag=4, payload=b"stale")
        sender6 = Comm(mesh[1], [0, 1], 6, None)
        sender6.send(0, tag=4, payload=b"live")
        # The marker is sent *last*: rank 0's single reader thread
        # delivers frames from rank 1 in order, so once the marker is
        # buffered both earlier frames are already in the mailbox.
        sender6.send(0, tag=5, payload=b"marker")
        _await_frame(mesh[0], 1, 6, 5)

        assert _purge_stale_frames(mesh[0].mailbox, 6) == 1

        receiver = Comm(mesh[0], [0, 1], 6, None)
        assert bytes(receiver.recv(1, tag=5)) == b"marker"
        assert bytes(receiver.recv(1, tag=4)) == b"live"

    def test_a_late_frame_is_dropped_when_the_next_job_begins(self, mesh):
        # Rank 0 ran job 5 and moved on; only then does rank 1's
        # still-queued job-5 frame land.  Beginning job 6 must drop it
        # and keep the job-6 frame rank 1 has already sent.
        receiver5 = Comm(mesh[0], [0, 1], 5, None)
        late = Comm(mesh[1], [0, 1], 5, None)
        late.send(0, tag=4, payload=b"late")
        early = Comm(mesh[1], [0, 1], 6, None)
        early.send(0, tag=4, payload=b"early")
        _await_frame(mesh[0], 1, 6, 4)

        receiver6 = Comm(mesh[0], [0, 1], 6, None)
        assert not receiver5.irecv(1, tag=4).test()  # job 5's is gone
        assert bytes(receiver6.recv(1, tag=4)) == b"early"
        assert not mesh[0].mailbox._queues

    def test_a_failed_jobs_queued_sends_are_dropped(self, mesh):
        # A job posts on its endpoint's one sender (no thread per
        # job); once its job failed, what it still has queued there is
        # dropped instead of going out ahead of the next job's sends.
        sender = Comm(mesh[1], [0, 1], 7, None)
        sender.failed = True
        sender.isend(0, tag=4, payload=b"dropped").wait()
        nxt = Comm(mesh[1], [0, 1], 8, None)
        nxt.isend(0, tag=4, payload=b"sent").wait()
        assert [t.name for t in threading.enumerate()].count("sender-1") == 1
        receiver = Comm(mesh[0], [0, 1], 8, None)
        assert bytes(receiver.recv(1, tag=4)) == b"sent"
        assert not mesh[0].mailbox._queues


class TestSendFailures:
    """A send to a dead peer is a ``WorkerFailure`` naming it, whether it
    was posted or blocking, before or after the job's first ``isend``."""

    @pytest.fixture()
    def pair(self):
        mine, theirs = socket.socketpair()
        endpoint = _endpoint(0, {1: mine})
        yield endpoint, theirs
        theirs.close()
        endpoint.close()

    def test_posted_and_later_blocking_sends_keep_their_type(self, pair):
        endpoint, theirs = pair
        comm = Comm(endpoint, [0, 1], 1, None)
        theirs.close()
        with pytest.raises(WorkerFailure) as posted:
            comm.isend(1, 4, b"x").wait()
        with pytest.raises(WorkerFailure) as blocking:
            comm.send(1, 5, b"y")
        assert posted.value.rank == blocking.value.rank == 1

    def test_an_expired_send_wait_names_its_stage_and_seconds(self, pair):
        endpoint, theirs = pair
        comm = Comm(endpoint, [0, 1], 1, None)
        comm.set_stage("shuffle")
        # Nobody drains ``theirs``: the sender blocks on a full buffer.
        req = comm.isend(1, 4, bytes(8 << 20))
        with pytest.raises(RuntimeTimeoutError) as expired:
            req.wait(0.2)
        assert (expired.value.stage, expired.value.seconds) == ("shuffle", 0.2)
        theirs.close()  # the blocked write now fails: typed, as above
        with pytest.raises(WorkerFailure):
            req.wait()


class TestValidation:
    def test_duplicate_members_rejected(self, mesh):
        with pytest.raises(CommError):
            Comm(mesh[0], [0, 0, 1], 1, None)

    def test_base_rank_must_be_member(self, mesh):
        with pytest.raises(CommError):
            Comm(mesh[0], [1, 2], 1, None)

    def test_members_must_be_mesh_peers(self, mesh):
        with pytest.raises(CommError):
            Comm(mesh[0], [0, K + 3], 1, None)


def test_pool_jobs_allocate_no_endpoint_state(monkeypatch):
    """A job's Comm is built over its worker's standing endpoint: no
    mailbox and no traffic log of its own — one log per worker per job,
    plus the driver's merge."""
    spec = TeraSortSpec(data=teragen(2000, seed=5))
    made = []
    for cls in (Mailbox, TrafficLog):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            made.append(_name)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    with Session(connect(f"inproc://{K}", timeout=30)) as session:
        session.submit(spec).result()  # forms the mesh
        made.clear()
        for _ in range(10):
            session.submit(spec).result()
    assert (made.count("Mailbox"), made.count("TrafficLog")) == (0, 50)


def test_a_reported_job_is_not_kept_alive_by_its_worker():
    """Once a worker has reported, it holds none of the job — not the
    result, the program or the payload — while it waits for the next
    (so their buffers go back to the slab pool, not into the next job)."""
    import queue
    import weakref

    from repro.runtime.process import serve_pool_jobs
    from repro.utils.timer import Stopwatch

    class Obj:
        pass

    class Program:
        STAGES = ()

        def __init__(self):
            self.stopwatch = Stopwatch()

        def run(self):
            result = Obj()
            refs["result"] = weakref.ref(result)
            return result

    def builder(comm, payload):
        program = Program()
        refs["program"] = weakref.ref(program)
        return program

    refs = {}
    payload = Obj()
    refs["payload"] = weakref.ref(payload)
    inbox, reports = queue.SimpleQueue(), queue.SimpleQueue()
    endpoint = _endpoint(0, {})
    worker = threading.Thread(
        target=serve_pool_jobs,
        args=(endpoint, inbox.get, lambda msg: reports.put(msg[:3])),
        daemon=True,
    )
    worker.start()
    inbox.put(("job", 7, builder, payload, [0], 0))
    del payload
    try:
        assert reports.get(timeout=10) == ("ok", 0, 7)
        deadline = time.monotonic() + 5.0
        while any(ref() is not None for ref in refs.values()):
            assert time.monotonic() < deadline, {
                name: ref() for name, ref in refs.items()
            }
            time.sleep(0.01)
    finally:
        inbox.put(("stop",))
        worker.join(timeout=10)
        endpoint.close()
    assert not worker.is_alive()
