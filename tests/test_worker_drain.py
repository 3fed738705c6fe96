"""Graceful worker drain: SIGTERM finishes the in-flight job first.

The service deployment mode rolls workers by sending SIGTERM; a
mid-shuffle kill would cascade ``WorkerFailure`` across the whole subset
and force a retry, so ``repro worker`` instead *drains*: the first
SIGTERM lets an in-flight job finish and report before the agent exits
(exit code 0, not 143), and an idle worker exits promptly.  Verified
against real ``run_worker`` processes with a ``$REPRO_FAULT_PLAN``
map-stage delay holding the job open across the signal.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.cluster import connect
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.tcp import run_worker
from repro.session import Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")
K = 2


@pytest.fixture
def no_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    return monkeypatch


def _spawn_workers(address, n):
    procs = [
        _CTX.Process(
            target=run_worker,
            kwargs=dict(
                join=address, quiet=True,
                connect_timeout=60.0, handshake_timeout=60.0,
            ),
            daemon=True,
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    return procs


def _reap(procs, timeout=15.0):
    for p in procs:
        p.join(timeout)
        if p.is_alive():  # pragma: no cover - defensive cleanup
            p.terminate()
            p.join()


def test_sigterm_mid_job_finishes_then_exits(no_plan):
    """SIGTERM lands while both workers sit in a delayed map stage: the
    job must still complete (byte-correct), and both workers must exit
    cleanly with code 0 ("drained"), not die with 143."""
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=1.5,job_lt=1")
    data = teragen(1500, seed=81)
    with connect(
        "tcp://127.0.0.1:0", size=K, timeout=60, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, K)
        try:
            with Session(cluster) as session:
                handle = session.submit(TeraSortSpec(data=data))
                # Give dispatch time to reach the workers' delayed map
                # stage, then signal both mid-job.
                time.sleep(0.6)
                for p in procs:
                    os.kill(p.pid, signal.SIGTERM)
                run = handle.result(timeout=60)
            validate_sorted_permutation(data, run.partitions)
            _reap(procs)
            assert [p.exitcode for p in procs] == [0, 0]
        finally:
            _reap(procs)


def test_sigterm_idle_worker_exits_promptly(no_plan):
    """An idle worker (no in-flight job) drains immediately on SIGTERM."""
    data = teragen(800, seed=82)
    with connect(
        "tcp://127.0.0.1:0", size=K, timeout=60, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, K)
        try:
            # Run one job to completion so both workers are provably
            # connected and back to their idle control loop.
            with Session(cluster) as session:
                run = session.submit(TeraSortSpec(data=data)).result(
                    timeout=60
                )
                validate_sorted_permutation(data, run.partitions)
                start = time.monotonic()
                for p in procs:
                    os.kill(p.pid, signal.SIGTERM)
                _reap(procs)
                elapsed = time.monotonic() - start
            assert [p.exitcode for p in procs] == [0, 0]
            assert elapsed < 10.0, f"idle drain took {elapsed:.1f}s"
        finally:
            _reap(procs)


def test_second_sigterm_kills_immediately(no_plan):
    """Escalation: a second SIGTERM during a drain exits now (143)."""
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=8,job_lt=1")
    data = teragen(800, seed=83)
    with connect(
        "tcp://127.0.0.1:0", size=K, timeout=60, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, K)
        try:
            with Session(cluster, max_retries=0) as session:
                handle = session.submit(TeraSortSpec(data=data))
                time.sleep(0.6)
                victim = procs[0]
                os.kill(victim.pid, signal.SIGTERM)  # drain (job held open)
                time.sleep(0.3)
                os.kill(victim.pid, signal.SIGTERM)  # serious: exit now
                victim.join(10)
                assert victim.exitcode is not None
                assert victim.exitcode != 0
                # The killed worker fails the job; the session survives.
                assert handle.exception(timeout=60) is not None
        finally:
            _reap(procs, timeout=5.0)
