"""The TCP transport: byte-identity with ``proc://`` + failures.

The acceptance bar for the third transport: every job kind (TeraSort,
CodedTeraSort, coded MapReduce), submitted through a ``Session`` over a
localhost ``tcp://`` cluster, must produce byte-identical outputs and
identical traffic digests to the same jobs on ``proc://`` — at both
(K, r) = (4, 1) and (6, 2) — and a worker killed mid-job must fail only that job's
handle while the session survives (and serves again once replacement
workers rejoin the rendezvous).

Workers run as real separate processes (fork) executing
:func:`~repro.runtime.tcp.run_worker`, dialing the coordinator over real
TCP on 127.0.0.1 with ephemeral ports (xdist-safe: nothing shares a
fixed port or path).
"""

from __future__ import annotations

import multiprocessing
import time

import pytest

from repro.cluster import connect
from repro.core.cmr import MapReduceJob
from repro.core.jobs import WordCountJob
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.tcp import run_worker
from repro.session import (
    CodedTeraSortSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)
from repro.utils.subsets import binomial

_CTX = multiprocessing.get_context("fork")


def _spawn_workers(address: str, n: int, **worker_kwargs):
    procs = [
        _CTX.Process(
            target=run_worker,
            kwargs=dict(
                join=address,
                quiet=True,
                connect_timeout=30.0,
                handshake_timeout=30.0,
                **worker_kwargs,
            ),
            daemon=True,
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    return procs


def _reap(procs, timeout: float = 15.0) -> None:
    for p in procs:
        p.join(timeout)
        if p.is_alive():  # pragma: no cover - defensive cleanup
            p.terminate()
            p.join()


def _traffic_summary(traffic):
    """Order-independent digest of a per-job traffic log."""
    return sorted(
        (r.stage, r.kind, r.src, r.dsts, r.payload_bytes)
        for r in traffic.records
        if r.kind != "relay"
    )


def _corpus(k: int, r: int):
    n = 2 * binomial(k, r)
    return [f"alpha beta gamma file{i % 3} beta" for i in range(n)]


class SlowMapJob(MapReduceJob):
    """Module-level (picklable) job whose map is slow enough to kill into."""

    name = "slowmap"

    def map_file(self, file_id, payload):
        time.sleep(8.0)
        return {0: 1}

    def reduce(self, q, values):
        return len(values)


@pytest.mark.parametrize("k,r", [(4, 1), (6, 2)])
def test_tcp_session_byte_identical_to_process_cluster(k, r, out_of_band):
    """All three job kinds: TCP == process backend, bytes and traffic."""
    data = teragen(3000, seed=21)
    corpus = _corpus(k, r)

    def submit_all(session):
        h = [
            session.submit(TeraSortSpec(data=data)),
            session.submit(CodedTeraSortSpec(data=data, redundancy=r)),
            session.submit(
                MapReduceSpec(
                    job=WordCountJob(),
                    files=corpus,
                    redundancy=r,
                    scheme="coded",
                )
            ),
        ]
        return [handle.result() for handle in h]

    with connect(
        "tcp://127.0.0.1:0", size=k, timeout=120, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, k)
        try:
            with Session(cluster) as session:
                tcp_runs = submit_all(session)
        finally:
            _reap(procs)
    with Session(connect(f"proc://{k}", timeout=120)) as session:
        ref_runs = submit_all(session)

    for tcp_run, ref_run in zip(tcp_runs[:2], ref_runs[:2]):
        validate_sorted_permutation(data, tcp_run.partitions)
        assert [p.to_bytes() for p in tcp_run.partitions] == [
            p.to_bytes() for p in ref_run.partitions
        ]
        # Both backends' control channels carried the partitions out of
        # band: each arrived as a view of its receive arena.
        for run in (tcp_run, ref_run):
            assert all(out_of_band(p.array) for p in run.partitions)
    assert tcp_runs[2].outputs == ref_runs[2].outputs
    for tcp_run, ref_run in zip(tcp_runs, ref_runs):
        assert _traffic_summary(tcp_run.traffic) == _traffic_summary(
            ref_run.traffic
        )
    # Every worker served every job of the session and exited cleanly.
    assert all(p.exitcode == 0 for p in procs)


def test_killed_worker_fails_only_its_jobs_handle():
    """SIGKILL one worker mid-job: that handle errors, the session
    survives, and fresh workers serve the next job after rejoining."""
    k = 3
    data = teragen(1500, seed=22)
    files = ["x"] * binomial(k, 1)
    with connect(
        "tcp://127.0.0.1:0", size=k, timeout=60, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, k)
        replacements = []
        try:
            with Session(cluster) as session:
                ok_before = session.submit(TeraSortSpec(data=data))
                validate_sorted_permutation(
                    data, ok_before.result().partitions
                )

                doomed = session.submit(
                    MapReduceSpec(
                        job=SlowMapJob(), files=files, redundancy=1,
                        scheme="uncoded",
                    )
                )
                time.sleep(1.0)  # let the job reach its slow map stage
                procs[0].kill()

                err = doomed.exception(timeout=45.0)
                assert isinstance(err, RuntimeError)
                assert "worker" in str(err)
                # The earlier job's handle is untouched by the failure.
                assert ok_before.exception() is None

                # Replacement workers rejoin the standing rendezvous and
                # the same session serves the next job.
                replacements = _spawn_workers(cluster.address, k)
                try:
                    ok_after = session.submit(TeraSortSpec(data=data))
                    validate_sorted_permutation(
                        data, ok_after.result().partitions
                    )
                finally:
                    pass  # reaped after the session closes the pool
        finally:
            _reap(procs)
            _reap(replacements)


def test_workers_persist_across_jobs_and_stop_cleanly():
    """One mesh serves back-to-back jobs; close() stops workers with rc 0."""
    k = 4
    data = teragen(1200, seed=23)
    with connect(
        "tcp://127.0.0.1:0", size=k, timeout=60, connect_timeout=60,
    ) as cluster:
        procs = _spawn_workers(cluster.address, k)
        try:
            with Session(cluster) as session:
                runs = [
                    session.submit(TeraSortSpec(data=data)).result()
                    for _ in range(3)
                ]
            first = [p.to_bytes() for p in runs[0].partitions]
            for run in runs[1:]:
                assert [p.to_bytes() for p in run.partitions] == first
        finally:
            _reap(procs)
    assert [p.exitcode for p in procs] == [0] * k
