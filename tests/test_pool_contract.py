"""The worker-pool contract, once, for every way a job reaches workers.

Four lanes run the same assertions: ``inproc://``, ``proc://`` and
``tcp://`` behind a :class:`Session` (the one job queue, FIFO, over the
shared :class:`~repro.runtime.pool.WorkerPool` reactor and the thread,
fork and TCP transports), and the sort service (the same queue under
fair share, never re-forming, jobs on a 3-worker subset of a 5-worker
mesh).

The contract:

* a clean job returns bytes identical to a dedicated in-process run;
* a program error is a plain ``RuntimeError`` carrying the traceback
  text, fails in seconds, and is **never retried**, whatever the retry
  budget;
* a worker death is a typed ``WorkerFailure(rank, stage)`` on the failed
  attempt, and the retry is byte-identical;
* a retry storm exhausts the budget and fails only that job;
* a silent (SIGSTOPped) worker is declared dead after
  ``failure_timeout``, not after the job timeout;
* a report carrying a stale job sequence number is ignored;
* after every one of those failures the same pool serves the next job.

An injected crash on the thread lane kills one worker thread the way
SIGKILL kills a worker process (see :mod:`repro.testing.faults`), so
every cell runs there except the silence cell: a thread cannot be
stopped.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core.cmr import MapReduceJob
from repro.kvpairs.teragen import teragen
from repro.runtime.errors import WorkerFailure
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.tcp import TcpCluster, run_worker
from repro.service import SortService
from repro.session import (
    CodedTeraSortSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")
K = 3
LANES = ["inproc", "proc", "tcp", "service"]
#: Tight liveness settings so death/silence cells finish in seconds.
LIVENESS = dict(heartbeat_interval=0.1, failure_timeout=1.5)


class FailingJob(MapReduceJob):
    """Module-level (picklable) job whose map raises on one file."""

    name = "failing"

    def map_file(self, file_id, payload):
        if file_id == 0:
            raise RuntimeError("intentional map failure")
        return {0: 1}

    def reduce(self, q, values):
        return len(values)


BAD_SPEC = MapReduceSpec(
    job=FailingJob(), files=["x"] * K, redundancy=1, scheme="uncoded"
)


@pytest.fixture
def no_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    return monkeypatch


class _Agents:
    """``run_worker`` processes pinned to ranks (so a test can signal
    "the worker at rank r"), optionally kept alive by a restart loop —
    a Session over TCP needs every slot to rejoin after a failed job."""

    def __init__(self, address, ranks, respawn):
        self._address = address
        self.procs = {rank: self._spawn(rank) for rank in ranks}
        self._stop = threading.Event()
        self._thread = None
        if respawn:
            self._thread = threading.Thread(target=self._loop, daemon=True)
            self._thread.start()

    def _spawn(self, rank):
        proc = _CTX.Process(
            target=run_worker,
            kwargs=dict(join=self._address, rank=rank, quiet=True,
                        connect_timeout=60.0, handshake_timeout=60.0),
            daemon=True,
        )
        proc.start()
        return proc

    def _loop(self):
        while not self._stop.wait(0.1):
            for rank, proc in self.procs.items():
                if not proc.is_alive():
                    self.procs[rank] = self._spawn(rank)

    def halt(self):
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10)

    def reap(self):
        self.halt()
        for proc in self.procs.values():
            proc.join(5)
            if proc.is_alive():
                proc.kill()
                proc.join()


class _Lane:
    """One way of getting jobs onto a pool; see :func:`open_lane`."""

    def __init__(self, name, submit, pool, pid_of, backend):
        self.name = name
        self.submit = submit  # spec -> JobHandle
        self.pool = pool  # () -> the live pool object
        self.pid_of = pid_of  # rank -> worker pid
        self.backend = backend  # name the pool stamps on failures

    def outcome(self, handle, timeout=60.0):
        """``(result, error, attempts)`` of a finished job."""
        assert handle.wait(timeout), "job never finished"
        try:
            return handle.result(), None, handle.attempts
        except RuntimeError as error:
            assert handle.exception() is error  # both faces agree
            return None, error, handle.attempts

    def run(self, spec):
        return self.outcome(self.submit(spec))

    def inject_stale_report(self):
        """Feed the pool a final report for a job it is not running."""
        pool = self.pool()
        with pool._lock:
            pool._handle(0, ("ok", 0, 10 ** 6, "bogus", {}, [], []))


@contextmanager
def open_lane(name, max_retries=0, **liveness):
    if name in ("inproc", "proc"):
        cluster = (
            ThreadCluster(K, recv_timeout=60)
            if name == "inproc"
            else ProcessCluster(K, timeout=60, **liveness)
        )
        with Session(cluster, max_retries, retry_backoff=0.05) as session:
            yield _Lane(
                name,
                session.submit,
                lambda: session._pool,
                lambda rank: session._pool._transport.procs[rank].pid,
                type(cluster).__name__,
            )
        return
    mesh = K if name == "tcp" else K + 2  # the service keeps spares
    with TcpCluster(
        mesh, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60, **liveness
    ) as cluster:
        agents = _Agents(cluster.address, range(mesh), respawn=name == "tcp")
        try:
            if name == "tcp":
                with Session(
                    cluster, max_retries, retry_backoff=0.2
                ) as session:
                    yield _Lane(
                        name,
                        session.submit,
                        lambda: session._pool,
                        lambda rank: agents.procs[rank].pid,
                        "TcpCluster",
                    )
                    agents.halt()
            else:
                with SortService(
                    cluster, max_retries=max_retries, retry_backoff=0.05
                ) as service:
                    service.start()
                    yield _Lane(
                        name,
                        lambda spec: service.submit(spec, workers=K),
                        lambda: service._pool,
                        lambda rank: agents.procs[rank].pid,
                        "SortService",
                    )
        finally:
            agents.reap()


def _reference(data):
    with Session(ThreadCluster(K, recv_timeout=60)) as session:
        run = session.submit(TeraSortSpec(data=data)).result(timeout=60)
    return [p.to_bytes() for p in run.partitions]


def _assert_sorts(lane, data, reference):
    run, error, _ = lane.run(TeraSortSpec(data=data))
    assert error is None, error
    assert [p.to_bytes() for p in run.partitions] == reference


@pytest.mark.parametrize("name", LANES)
def test_clean_job_and_stale_report_ignored(name, no_plan):
    data = teragen(1500, seed=61)
    reference = _reference(data)
    with open_lane(name) as lane:
        _assert_sorts(lane, data, reference)  # brings the pool up
        lane.inject_stale_report()
        _assert_sorts(lane, data, reference)
        _assert_sorts(lane, data, reference)


@pytest.mark.parametrize("name", LANES)
def test_program_error_is_runtime_error_never_retried(name, no_plan):
    data = teragen(1500, seed=62)
    reference = _reference(data)
    with open_lane(name, max_retries=2) as lane:
        # All three queued up front: the failure must fail only its own
        # handle, with its neighbours on either side untouched.
        before = lane.submit(TeraSortSpec(data=data))
        bad = lane.submit(BAD_SPEC)
        after = lane.submit(TeraSortSpec(data=data))
        lane.outcome(before)
        started = time.monotonic()
        _, error, attempts = lane.outcome(bad)
        # The failing worker outlives its error: its peers, alive but
        # blocked on it, unwind on the coordinator's abort — not at the
        # 60 s receive timeout.
        assert time.monotonic() - started < 5.0
        assert isinstance(error, RuntimeError)
        assert not isinstance(error, WorkerFailure)
        assert "intentional map failure" in str(error)
        assert len(attempts) == 1  # the one attempt that ran
        for handle in (before, after):
            run, error, _ = lane.outcome(handle)
            assert error is None, error
            assert [p.to_bytes() for p in run.partitions] == reference


@pytest.mark.parametrize("name", LANES)
def test_worker_death_is_typed_and_retry_is_byte_identical(name, no_plan):
    data = teragen(1500, seed=63)
    reference = _reference(data)
    # Rank 1 dies entering shuffle on the first attempt only; the others
    # are held at the shuffle's door a moment so the death is what the
    # driver sees first, not a survivor's cascade report.
    no_plan.setenv(
        ENV_VAR,
        "stage.crash,rank=1,stage=shuffle,job_lt=1;"
        "stage.delay,stage=shuffle,secs=0.3,job_lt=1",
    )
    with open_lane(name, max_retries=2, **LIVENESS) as lane:
        run, error, attempts = lane.run(TeraSortSpec(data=data))
        assert error is None, error
        assert [p.to_bytes() for p in run.partitions] == reference
        assert len(attempts) == 2
        first, second = attempts
        assert isinstance(first.error, WorkerFailure)
        assert first.error.rank == 1
        assert first.error.stage in ("init", "map", "pack", "shuffle")
        assert lane.backend in str(first.error)
        assert second.error is None


@pytest.mark.parametrize("name", ["inproc", "proc", "tcp"])
def test_peer_death_mid_event_loop_surfaces_from_the_arrival_wait(name, no_plan):
    data = teragen(1500, seed=66)
    # Rank 1 dies before it has multicast anything, with its peers already
    # asleep in the event loop on receives that include its packets: what
    # wakes them is the mailbox closing that source under the arrival wait
    # — a typed failure naming rank 1, long before the 60 s receive bound.
    no_plan.setenv(ENV_VAR, "stage.crash,rank=1,stage=encode,job_lt=1")
    with open_lane(name, **LIVENESS) as lane:
        started = time.monotonic()
        _, error, _ = lane.run(CodedTeraSortSpec(data=data, redundancy=2))
        elapsed = time.monotonic() - started
        assert isinstance(error, WorkerFailure)
        text = str(error)
        assert "worker 1 failed in stage 'shuffle': peer connection lost" in text
        assert "closed with a posted receive" in text
        assert elapsed < 20.0
        _assert_sorts(lane, data, _reference(data))


@pytest.mark.parametrize("name", LANES)
def test_retry_storm_fails_one_job_then_pool_serves_the_next(name, no_plan):
    data = teragen(1500, seed=64)
    reference = _reference(data)
    # Pool sequence numbers 0 and 1 (the job and its one retry) crash;
    # sequence 2 is past the gate.  Respawned TCP workers inherit the
    # plan, so it must expire by sequence, not by editing the environment.
    no_plan.setenv(ENV_VAR, "stage.crash,rank=1,stage=map,job_lt=2")
    with open_lane(name, max_retries=1, **LIVENESS) as lane:
        _, error, attempts = lane.run(TeraSortSpec(data=data))
        assert isinstance(error, WorkerFailure)
        assert len(attempts) == 2
        assert all(isinstance(a.error, WorkerFailure) for a in attempts)
        _assert_sorts(lane, data, reference)


@pytest.mark.parametrize("name", [
    pytest.param("inproc", marks=pytest.mark.skip(
        reason="a thread cannot be stopped"
    )),
    *LANES[1:],
])
def test_silent_worker_fails_at_failure_timeout(name, no_plan):
    data = teragen(1500, seed=65)
    reference = _reference(data)
    with open_lane(name, **LIVENESS) as lane:
        _assert_sorts(lane, data, reference)  # pool up and healthy
        victim = lane.pid_of(2)
        os.kill(victim, signal.SIGSTOP)
        try:
            started = time.monotonic()
            _, error, _ = lane.run(TeraSortSpec(data=data))
            elapsed = time.monotonic() - started
        finally:
            try:
                # Dead, not resumed: its peers are blocked on it, and a
                # TCP slot only respawns once its process is gone.
                os.kill(victim, signal.SIGKILL)
            except ProcessLookupError:
                pass  # the fork transport's teardown already reaped it
        assert isinstance(error, WorkerFailure)
        assert error.rank == 2
        assert "heartbeat" in str(error)
        assert elapsed < 20.0  # failure_timeout, not the 60 s job timeout
        _assert_sorts(lane, data, reference)
