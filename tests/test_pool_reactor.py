"""The WorkerPool reactor on its own: fake channels, no workers.

Every channel here is an in-memory queue with a pipe for readiness (no
sockets, no processes), and the transport just hands a set of them out —
so each policy of the one driver-side reactor is pinned down
deterministically: failure classification inside the grace window, which
entry point re-forms the mesh after a failed job, the job deadline,
epoch fencing, who gets speculation directives, and the
closed-descriptor race that used to kill the reactor thread.
"""

from __future__ import annotations

import collections
import os
import threading
import time
import types
from contextlib import contextmanager

import pytest

from repro.runtime.errors import WorkerFailure
from repro.runtime.pool import WorkerPool
from repro.runtime.program import PreparedJob


class FakeChannel:
    """A pool control channel whose worker side is the test."""

    def __init__(self, reply=None):
        self._r, self._w = os.pipe()
        self._inbox = collections.deque()
        self.sent = []  # every frame the pool sent, in order
        self.fail_sends = False
        self.closed = False
        #: ``reply(job frame)`` -> the worker's report, fed at dispatch.
        self.reply = reply

    # -- the worker's side --------------------------------------------------

    def feed(self, msg):
        self._inbox.append(msg)
        os.write(self._w, b"x")

    def die(self):
        """The worker is gone: EOF once the frames it sent are read."""
        os.close(self._w)
        self._w = None

    def ctl(self, kind):
        """Payloads of the ``("ctl", seq, (kind, ...))`` frames received."""
        return [m[2] for m in self.sent if m[0] == "ctl" and m[2][0] == kind]

    # -- the channel interface ----------------------------------------------

    def send(self, obj):
        if self.closed or self.fail_sends:
            raise OSError("fake channel is down")
        self.sent.append(obj)
        if obj[0] == "job" and self.reply is not None:
            self.feed(self.reply(obj))

    def recv(self):
        if self.closed or not os.read(self._r, 1):
            raise EOFError
        return self._inbox.popleft()

    def fileno(self):
        return -1 if self.closed else self._r

    def close(self):
        if not self.closed:
            self.closed = True
            os.close(self._r)
            if self._w is not None:
                os.close(self._w)


class FakeTransport:
    listener = None

    def __init__(self, reply=None):
        self.chans = {}
        self.forms = 0
        self.reply = reply

    def form(self, size):
        self.forms += 1
        self.chans = {rank: FakeChannel(self.reply) for rank in range(size)}
        return dict(self.chans)

    def teardown(self, busy=()):
        pass


def make_pool(size, reply=None, **config):
    """A pool over ``size`` fake channels, formed and stepped by the
    test itself (or by :func:`stepped`).  ``reply`` answers every job
    frame at dispatch (see :class:`FakeChannel`)."""
    settings = dict(
        size=size, timeout=30.0, failure_timeout=30.0, heartbeat_interval=0.01
    )
    settings.update(config)
    transport = FakeTransport(reply)
    pool = WorkerPool(
        transport, types.SimpleNamespace(**settings), name="FakePool"
    )
    pool._form()
    return pool, transport.chans


@contextmanager
def stepped(pool):
    """Step ``pool`` on a thread of its own until the block exits — the
    shape of a job queue's driver, without the queue."""
    stop = threading.Event()

    def loop():
        while not stop.is_set():
            pool._step(pool._POLL)

    thread = threading.Thread(target=loop, daemon=True, name="pool-stepper")
    thread.start()
    try:
        yield thread
    finally:
        stop.set()
        pool.wake()
        thread.join(5.0)


def prepared(k, speculation=None):
    """A job whose payload for each member is its logical rank."""
    return PreparedJob(
        builder=None,
        payloads=list(range(k)),
        finalize=lambda result: result,
        speculation=speculation,
    )


def ok(g, seq):
    return ("ok", g, seq, f"result-{g}", {"s": 0.0}, [], ["s"])


def test_program_error_in_grace_window_dominates_an_earlier_infra_failure():
    pool, chans = make_pool(3)
    with pool:
        job = pool.submit([0, 1, 2], prepared(3))
        chans[0].feed(("comm_error", 0, job.seq, "peer connection lost"))
        pool._step(0.0)
        # The first failure opens the grace window and aborts survivors,
        # but does not finish the job: the root cause may still arrive.
        assert not job.done.is_set()
        assert chans[1].ctl("abort") and chans[2].ctl("abort")
        assert not chans[0].ctl("abort")  # it already reported
        chans[1].feed(("error", 1, job.seq, "Traceback: boom in map"))
        chans[2].feed(("comm_error", 2, job.seq, "aborted"))
        pool._step(0.0)
        assert job.done.is_set()
        assert isinstance(job.error, RuntimeError)
        assert not isinstance(job.error, WorkerFailure)  # never retried
        assert "boom in map" in str(job.error)
        assert "peer connection lost" in str(job.error)  # nothing dropped
        assert pool.idle_workers() == [0, 1, 2]


def test_a_dead_member_takes_the_blame_from_its_survivors_echo():
    # A survivor's "peer connection lost" report can reach the reactor
    # before the dead worker's EOF does; the death is still the
    # WorkerFailure's rank, and a second death ranks after the first.
    pool, chans = make_pool(4)
    with pool:
        job = pool.submit([0, 1, 2, 3], prepared(4))
        chans[0].feed(("comm_error", 0, job.seq, "peer connection lost"))
        pool._step(0.0)
        chans[1].die()
        chans[2].die()
        pool._step(0.0)
        pool._step(0.0)
        chans[3].feed(("comm_error", 3, job.seq, "peer connection lost"))
        pool._step(0.0)
        assert job.done.is_set()
        assert isinstance(job.error, WorkerFailure)
        assert [f[0] for f in job.infra_failures] == [1, 2, 0, 3]
        assert job.error.rank == 1


def test_a_failed_run_job_re_forms_the_mesh_for_the_next():
    """``run_job`` — a Session's entry point — is the policy that
    re-forms: it tears the mesh down after a failed job, and the next
    ``run_job`` forms it again through the transport."""

    def reply(frame):
        _, seq, _, rank = frame[:4]
        if seq > 0:
            return ok(rank, seq)
        if rank == 0:
            return ("error", 0, seq, "Traceback: boom in map")
        return ("comm_error", rank, seq, "job aborted by coordinator")

    pool, _ = make_pool(2, reply=reply)
    with pool:
        with pytest.raises(RuntimeError, match="boom in map") as failed:
            pool.run_job(prepared(2))
        assert not isinstance(failed.value, WorkerFailure)
        assert pool._transport.forms == 1
        assert pool.live_workers() == 0  # torn down
        result = pool.run_job(prepared(2))
        assert pool._transport.forms == 2
        assert result.results == ["result-0", "result-1"]


def test_a_failed_submit_job_never_re_forms():
    """``submit`` — the sort service's entry point — never re-forms:
    a failed job leaves the mesh formed once, every channel open and no
    ``stop`` sent, and its members are idle as soon as they report."""
    pool, chans = make_pool(3)
    with pool:
        job = pool.submit([0, 1], prepared(2))
        chans[0].feed(("error", 0, job.seq, "Traceback: boom in map"))
        pool._step(0.0)
        assert chans[1].ctl("abort")
        assert pool.idle_workers() == [0, 2]
        chans[1].feed(("comm_error", 1, job.seq, "job aborted"))
        pool._step(0.0)
        assert job.done.is_set()
        assert isinstance(job.error, RuntimeError)
        assert pool._transport.forms == 1
        assert pool.idle_workers() == [0, 1, 2]
        for chan in chans.values():
            assert not chan.closed
            assert ("stop",) not in chan.sent


def test_deadline_expiry_aborts_survivors_and_fails_typed():
    pool, chans = make_pool(3, timeout=0.01)
    with pool:
        job = pool.submit([0, 1, 2], prepared(3))
        chans[0].feed(ok(0, job.seq))
        time.sleep(0.02)
        pool._step(0.0)
        assert job.done.is_set()
        assert isinstance(job.error, WorkerFailure)
        assert job.error.rank == -1
        assert "timed out" in str(job.error)
        assert "[1, 2] pending" in str(job.error)
        for g in (1, 2):
            assert chans[g].ctl("abort") == [("abort", "job deadline expired")]
        assert not chans[0].ctl("abort")
        # The late members stay busy until they actually report ...
        assert pool.idle_workers() == [0]
        chans[1].feed(("comm_error", 1, job.seq, "aborted"))
        pool._step(0.0)
        # ... and their stale-sequence report frees them, nothing else.
        assert pool.idle_workers() == [0, 1]


def test_report_from_a_newer_membership_epoch_is_dropped():
    pool, chans = make_pool(2)
    with pool:
        job = pool.submit([0, 1], prepared(2))
        # Rank 1 was recycled after the job was planned: whatever its
        # new incarnation says about this sequence number is not ours.
        pool._rank_epoch[1] = job.epoch + 1
        chans[0].feed(ok(0, job.seq))
        chans[1].feed(("hb", 1, job.seq, "reduce"))
        chans[1].feed(ok(1, job.seq))
        pool._step(0.0)
        pool._step(0.0)
        assert not job.done.is_set()
        assert job.pending == {1}
        assert job.monitor.stage_of(1) == "init"  # heartbeat fenced too
        # ... so the old incarnation's silence still fails the job.
        job.monitor.failure_timeout = 0.0
        pool._step(0.0)
        assert job.done.is_set()
        assert isinstance(job.error, WorkerFailure)
        assert job.error.rank == 1


def test_speculation_directives_reach_only_pending_members():
    pool, chans = make_pool(4)
    policy = {"stage": "map", "min_wait": 0.0, "wait_factor": 1.0}
    with pool:
        job = pool.submit([0, 1, 2, 3], prepared(4, speculation=policy))
        chans[0].feed(("hb", 0, job.seq, "shuffle"))
        chans[1].feed(("hb", 1, job.seq, "shuffle"))
        chans[2].feed(ok(2, job.seq))  # finished: no longer pending
        chans[3].feed(("hb", 3, job.seq, "map"))  # the straggler
        pool._step(0.0)
        time.sleep(0.005)  # past max(min_wait, median map time)
        pool._step(0.0)
        directive = ("speculate", 3, 0)
        for g in (0, 1, 3):
            assert chans[g].ctl("speculate") == [directive]
        assert not chans[2].ctl("speculate")
        pool._step(0.0)  # decided once, not re-sent every tick
        assert chans[0].ctl("speculate") == [directive]


def test_dispatch_failure_from_another_thread_does_not_kill_the_reactor():
    """The closed-descriptor race: ``submit`` (this thread) finds a dead
    member and closes its channel while the reactor thread is inside
    ``select``.  The channel is unregistered before it is closed, under
    the lock, so the wait survives; the job fails typed and the pool
    runs the next one."""
    pool, chans = make_pool(3)
    with pool, stepped(pool) as reactor:
        time.sleep(0.02)  # let the reactor park in select
        chans[0].fail_sends = True
        job = pool.submit([0, 1], prepared(2))
        assert chans[0].closed
        assert chans[1].ctl("abort")
        chans[1].feed(("comm_error", 1, job.seq, "aborted"))
        assert job.done.wait(5.0)
        assert isinstance(job.error, WorkerFailure)
        assert job.error.rank == 0
        assert "dispatch" in str(job.error)
        assert reactor.is_alive()
        assert pool.live_workers() == 2

        nxt = pool.submit([1, 2], prepared(2))
        chans[1].feed(ok(1, nxt.seq))
        chans[2].feed(ok(2, nxt.seq))
        assert nxt.done.wait(5.0)
        assert nxt.error is None
        assert nxt.cluster_result.results == ["result-1", "result-2"]


def test_channel_closed_behind_the_reactors_back_fails_typed_not_fatal():
    """A member's channel closed by another thread while the reactor is
    selecting: the selector must not choke on the dead descriptor (the
    old per-iteration selector raised ``ValueError: Invalid file
    descriptor: -1`` and took the reactor thread with it).  The member
    is declared dead by liveness, naming its rank, and the next job
    runs."""
    pool, chans = make_pool(3, failure_timeout=0.05)
    with pool, stepped(pool) as reactor:
        job = pool.submit([1, 2], prepared(2))
        chans[1].feed(ok(1, job.seq))
        time.sleep(0.02)  # the reactor is parked in select on all three
        closer = threading.Thread(target=chans[2].close)
        closer.start()
        closer.join(5.0)
        assert job.done.wait(5.0)
        assert isinstance(job.error, WorkerFailure)
        assert job.error.rank == 1  # logical rank of global member 2
        assert "heartbeat" in str(job.error)
        assert reactor.is_alive()

        nxt = pool.submit([0, 1], prepared(2))
        chans[0].feed(ok(0, nxt.seq))
        chans[1].feed(ok(1, nxt.seq))
        assert nxt.done.wait(5.0)
        assert nxt.error is None
