"""The one job queue's retry rule, and closing it inside a backoff.

Both entry points hold a retry back for ``retry_delay`` after a typed
``WorkerFailure``; what ``close()`` does inside that backoff is each
entry point's own promise:

* a :class:`Session` drains — ``close()`` returns only after the retry
  ran, and the handle holds the byte-identical result and both attempts;
* the sort service abandons — ``close()`` settles the handle
  ``failed`` / ``shutdown`` at once, no retry reaches the closed pool,
  its stats count the job failed and no longer queued, and no
  ``pool-`` / ``service-`` thread outlives it.

The pool's whole-job deadline is a ``WorkerFailure`` too, but one the
queue never retries.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

import repro
from repro.kvpairs.teragen import teragen
from repro.runtime.errors import JobDeadlineExpired, WorkerFailure
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.tcp import TcpCluster, run_worker
from repro.service import SortService
from repro.session import Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")
#: Rank 1 dies entering map on pool sequence 0 only: the first attempt
#: fails typed, the retry (a fresh sequence number) runs clean.
CRASH = "stage.crash,rank=1,stage=map,job_lt=1"
BACKOFF = 1.0


def _reference(data, k):
    with Session(ThreadCluster(k, recv_timeout=60)) as session:
        run = session.submit(TeraSortSpec(data=data)).result(timeout=60)
    return [p.to_bytes() for p in run.partitions]


def _wait_for_backoff(handle, timeout=30.0):
    """Block until the first attempt has failed and the retry is held."""
    deadline = time.monotonic() + timeout
    while not handle.attempts:
        assert time.monotonic() < deadline, "first attempt never ended"
        time.sleep(0.01)
    assert isinstance(handle.attempts[0].error, WorkerFailure)
    assert handle.state == "queued" and not handle.done()


def test_session_close_in_backoff_runs_the_retry_first(monkeypatch):
    data = teragen(1200, seed=71)
    reference = _reference(data, 3)
    monkeypatch.setenv(ENV_VAR, CRASH)
    session = Session(
        repro.connect("inproc://3", recv_timeout=60),
        max_retries=1,
        retry_backoff=BACKOFF,
    )
    handle = session.submit(TeraSortSpec(data=data))
    _wait_for_backoff(handle)
    session.close()
    assert handle.done()
    assert [p.to_bytes() for p in handle.result().partitions] == reference
    assert len(handle.attempts) == 2
    assert handle.attempts[1].error is None


def _spawn_workers(address, n):
    procs = [
        _CTX.Process(
            target=run_worker,
            kwargs=dict(join=address, quiet=True,
                        connect_timeout=60.0, handshake_timeout=60.0),
            daemon=True,
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    return procs


def test_service_close_in_backoff_settles_shutdown_and_never_retries(
    monkeypatch,
):
    monkeypatch.setenv(ENV_VAR, CRASH)
    data = teragen(1200, seed=72)
    # Three workers for a 2-wide job: after the crash two still live,
    # enough for the retry to be held rather than failed outright.
    with TcpCluster(
        3, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60,
        heartbeat_interval=0.1, failure_timeout=1.5,
    ) as cluster:
        procs = _spawn_workers(cluster.address, 3)
        try:
            service = SortService(
                cluster, max_retries=1, retry_backoff=BACKOFF
            )
            service.start()
            handle = service.submit(TeraSortSpec(data=data), workers=2)
            _wait_for_backoff(handle)
            started = time.monotonic()
            service.close()
            assert time.monotonic() - started < 1.0
            assert handle.done()
            assert (handle.state, handle.error[0]) == ("failed", "shutdown")
            with pytest.raises(RuntimeError, match="shut down"):
                handle.result()
            time.sleep(BACKOFF)  # past the retry's not-before time
            assert len(handle.attempts) == 1  # no retry fired
            stats = service.stats()
            assert (stats.jobs_queued, stats.jobs_running) == (0, 0)
            assert stats.jobs_failed == 1
            lingering = [
                t.name for t in threading.enumerate()
                if t.name.startswith(("service-", "pool-")) and t.is_alive()
            ]
            assert lingering == []
        finally:
            for p in procs:
                p.join(15.0)
                if p.is_alive():
                    p.kill()
                    p.join()


def test_a_job_past_the_pool_deadline_is_not_retried(monkeypatch):
    # Rank 0 sleeps well past the pool's 1 s whole-job deadline.
    monkeypatch.setenv(ENV_VAR, "stage.delay,rank=0,stage=map,secs=2.5")
    with Session(
        ProcessCluster(2, timeout=1.0), max_retries=2, retry_backoff=0.0
    ) as session:
        handle = session.submit(TeraSortSpec(data=teragen(400, seed=73)))
        error = handle.exception(timeout=60)
    assert isinstance(error, JobDeadlineExpired) and error.rank == -1
    assert "timed out" in str(error)
    assert len(handle.attempts) == 1


def test_a_failed_attempt_settles_before_the_pool_is_torn_down(monkeypatch):
    # Rank 0 sleeps 5 s into map on the first job only; the pool's 1 s
    # deadline fails it.  Tearing the pool down waits for that worker, so
    # the handle must settle first, and the next job still runs clean.
    timeout = 1.0
    data = teragen(400, seed=74)
    reference = _reference(data, 2)
    monkeypatch.setenv(ENV_VAR, "stage.delay,rank=0,stage=map,secs=5,job_lt=1")
    with Session(ProcessCluster(2, timeout=timeout)) as session:
        started = time.monotonic()
        handle = session.submit(TeraSortSpec(data=data))
        error = handle.exception(timeout=60)
        settled = time.monotonic() - started
        assert isinstance(error, JobDeadlineExpired)
        assert settled < timeout + 0.5, settled
        assert handle.attempts[0].duration < timeout + 0.5
        rerun = session.submit(TeraSortSpec(data=data)).result(timeout=60)
    assert [p.to_bytes() for p in rerun.partitions] == reference
