"""End-to-end sort service: concurrent subset jobs on one real TCP mesh.

The acceptance criteria for the service PR, verified against genuine
``run_worker`` processes and a live :class:`SortService` daemon:

* two jobs submitted by concurrent clients run on *disjoint* worker
  subsets of one mesh with overlapping execution intervals, and each
  output is byte-identical to the same spec run solo on a dedicated
  in-process cluster;
* a worker crash inside one subset retries only that subset's job —
  the neighbouring job completes untouched on its own subset;
* admission control rejects over-quota submissions with a typed
  ``ServiceRejected`` over the control port, and per-tenant stats
  (including queue-wait percentiles) survive the wire.
"""

from __future__ import annotations

import multiprocessing
import pickle
import socket
import threading
import time

import pytest

from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.inproc import ThreadCluster
from repro.runtime.tcp import TcpCluster, parse_address, run_worker
from repro.runtime.transport import FRAME_HEADER, send_frame
from repro.service import (
    ServiceClient,
    ServiceRejected,
    SortService,
    TenantQuota,
)
from repro.session import Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")


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
        if p.is_alive():
            p.terminate()
            p.join()


def _solo_partitions(spec, k):
    """Reference partitions for ``spec`` on a dedicated k-worker cluster."""
    with Session(ThreadCluster(k, recv_timeout=60.0)) as session:
        run = session.submit(spec).result(timeout=60)
    return [p.to_bytes() for p in run.partitions]


def _wait_state(client, job_id, state, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rows = client.status(job_id)
        if rows and rows[0]["state"] == state:
            return rows[0]
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} never reached {state!r}: {client.status(job_id)}"
    )


def test_two_jobs_overlap_on_disjoint_subsets_byte_identical(no_plan):
    """K=4 mesh, two 2-worker sorts: disjoint subsets, overlapping
    execution, outputs byte-identical to dedicated solo runs."""
    data_a = teragen(1200, seed=91)
    data_b = teragen(1200, seed=92)
    spec_a = TeraSortSpec(data=data_a)
    spec_b = TeraSortSpec(data=data_b)
    ref_a = _solo_partitions(TeraSortSpec(data=data_a), 2)
    ref_b = _solo_partitions(TeraSortSpec(data=data_b), 2)

    # Hold both jobs' map stages open so their intervals provably overlap.
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=0.8,job_lt=2")
    with TcpCluster(
        4, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 4)
        try:
            with SortService(cluster) as service:
                service.start()
                client = ServiceClient(service.control_address)
                handle_a = client.submit(spec_a, tenant="alice", workers=2)
                handle_b = client.submit(spec_b, tenant="bob", workers=2)
                run_a = handle_a.result(timeout=120)
                run_b = handle_b.result(timeout=120)

                validate_sorted_permutation(data_a, run_a.partitions)
                validate_sorted_permutation(data_b, run_b.partitions)
                assert [p.to_bytes() for p in run_a.partitions] == ref_a
                assert [p.to_bytes() for p in run_b.partitions] == ref_b

                row_a = client.status(handle_a.job_id)[0]
                row_b = client.status(handle_b.job_id)[0]
                assert row_a["state"] == "done"
                assert row_b["state"] == "done"
                # Disjoint subsets of the one mesh...
                used_a = set(row_a["workers_used"])
                used_b = set(row_b["workers_used"])
                assert len(used_a) == len(used_b) == 2
                assert not (used_a & used_b)
                # ... and genuinely concurrent execution intervals.
                overlap = min(
                    row_a["finished_at"], row_b["finished_at"]
                ) - max(row_a["started_at"], row_b["started_at"])
                assert overlap > 0, (row_a, row_b)

                stats = client.stats()
                assert stats.jobs_done == 2
                assert stats.tenants["alice"].jobs_done == 1
                assert stats.tenants["bob"].jobs_done == 1
        finally:
            _reap(procs)


def test_worker_crash_retries_only_its_subset(no_plan):
    """K=6 mesh, two 3-worker sorts; a worker in job B's subset crashes
    mid-map.  A completes untouched on attempt 1; B retries on the
    survivors and still matches its solo output byte for byte."""
    data_a = teragen(1200, seed=93)
    data_b = teragen(1200, seed=94)
    ref_a = _solo_partitions(TeraSortSpec(data=data_a), 3)
    ref_b = _solo_partitions(TeraSortSpec(data=data_b), 3)

    # Pool seq 1 is job B (dispatched second); its logical rank 1
    # crashes entering map.  The retry is a fresh pool seq, unmatched.
    no_plan.setenv(ENV_VAR, "stage.crash,rank=1,stage=map,job=1")
    with TcpCluster(
        6, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60,
        heartbeat_interval=0.1, failure_timeout=15.0,
    ) as cluster:
        procs = _spawn_workers(cluster.address, 6)
        try:
            with SortService(cluster, max_retries=2) as service:
                service.start()
                client = ServiceClient(service.control_address)
                handle_a = client.submit(TeraSortSpec(data=data_a),
                                         tenant="alice", workers=3)
                handle_b = client.submit(TeraSortSpec(data=data_b),
                                         tenant="bob", workers=3)
                run_a = handle_a.result(timeout=120)
                run_b = handle_b.result(timeout=120)

                assert [p.to_bytes() for p in run_a.partitions] == ref_a
                assert [p.to_bytes() for p in run_b.partitions] == ref_b

                row_a = client.status(handle_a.job_id)[0]
                row_b = client.status(handle_b.job_id)[0]
                # The crash touched only B: one clean attempt for A, a
                # retry recorded for B.
                assert row_a["attempts"] == 1
                assert row_b["attempts"] == 2
                stats = client.stats()
                assert stats.jobs_done == 2
                assert stats.jobs_failed == 0
                # The dead worker shrank capacity; the service carried on.
                assert stats.workers_live == 5
        finally:
            _reap(procs)


def test_quota_rejection_stats_and_shutdown(no_plan):
    """Per-tenant quotas reject a third concurrent submission with a
    typed kind over the wire; stats and shutdown round-trip too."""
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=1.5,job_lt=1")
    data = teragen(800, seed=95)
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            service = SortService(
                cluster,
                default_quota=TenantQuota(max_concurrent=1, max_queued=1),
            )
            with service:
                service.start()
                client = ServiceClient(service.control_address)
                first = client.submit(TeraSortSpec(data=data), workers=2)
                # The delay plan holds job 1 in map; once it is running,
                # the tenant's next job queues and the one after that
                # must bounce off max_queued=1.
                _wait_state(client, first.job_id, "running")
                second = client.submit(TeraSortSpec(data=data), workers=2)
                with pytest.raises(ServiceRejected) as exc_info:
                    client.submit(TeraSortSpec(data=data), workers=2)
                assert exc_info.value.kind == "quota_exceeded"

                assert first.result(timeout=120) is not None
                assert second.result(timeout=120) is not None
                stats = client.stats()
                assert stats.jobs_done == 2
                assert stats.jobs_rejected == 1
                assert stats.tenants["default"].jobs_rejected == 1
                # The second job waited on the first: its queue delay is
                # in the percentile window.
                assert stats.queue_wait_p95 is not None
                assert stats.queue_wait_p95 > 0.5

                client.shutdown()
                deadline = time.monotonic() + 15.0
                while not service.closed and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert service.closed
        finally:
            _reap(procs)


def test_close_settles_a_running_job_for_its_long_polling_client(no_plan):
    """A closing service completes its running jobs' records: the pool
    fails them without a completion callback, so ``close()`` itself must
    — otherwise a client blocked in ``result`` waits out its whole poll
    on a record that stays ``running`` forever."""
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=20,job_lt=1")
    data = teragen(800, seed=97)
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            service = SortService(cluster)
            service.start()
            client = ServiceClient(service.control_address)
            handle = client.submit(TeraSortSpec(data=data), workers=2)
            _wait_state(client, handle.job_id, "running")
            outcome = []

            def poll():
                try:
                    outcome.append(handle.result(timeout=2))
                except BaseException as exc:  # noqa: BLE001
                    outcome.append(exc)

            poller = threading.Thread(target=poll)
            poller.start()
            time.sleep(0.2)  # the long poll is parked on the record
            started = time.monotonic()
            service.close()
            elapsed = time.monotonic() - started
            poller.join(5.0)
            assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
            assert len(outcome) == 1
            assert isinstance(outcome[0], RuntimeError)
            assert not isinstance(outcome[0], TimeoutError)
            assert "shut down" in str(outcome[0])
            row = service.describe_jobs(handle.job_id)[0]
            assert (row["state"], row["error"][0]) == ("failed", "shutdown")
            assert service.stats().jobs_failed == 1  # counted once
        finally:
            # Held in a 20 s map delay: SIGTERM would start a graceful
            # drain that finishes the job first, so do not wait it out.
            for p in procs:
                p.kill()
            _reap(procs)


def test_close_on_an_idle_service_is_prompt_and_leaves_no_threads(no_plan):
    """``close()`` must not sit out a join on a thread stuck in
    ``accept()`` (a closed listener does not wake it; a shut-down one
    does): an idle service with live workers closes in well under a
    second and none of its threads — accept loop, dispatcher, pool
    reactor — survives it."""
    data = teragen(800, seed=96)
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            service = SortService(cluster)
            service.start()
            client = ServiceClient(service.control_address)
            assert client.submit(
                TeraSortSpec(data=data), workers=2
            ).result(timeout=60) is not None

            started = time.monotonic()
            service.close()
            elapsed = time.monotonic() - started
            assert elapsed < 1.0, f"close() took {elapsed:.2f}s"
            assert service.closed
            lingering = [
                t.name for t in threading.enumerate()
                if t.name.startswith(("service-", "pool-")) and t.is_alive()
            ]
            assert lingering == []
            # The cluster spec came through untouched: mesh growth is
            # the service pool's own state.
            assert cluster.size == 2
        finally:
            _reap(procs)


def test_close_wakes_the_request_thread_of_an_idle_client(no_plan):
    """A client that connected and never sent its request holds a
    ``service-conn`` thread in a read bounded only by the request
    timeout; ``close()`` wakes and joins it rather than leaving it."""
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            service = SortService(cluster)
            service.start()
            idle = socket.create_connection(
                parse_address(service.control_address)
            )
            try:
                deadline = time.monotonic() + 10.0
                while not any(
                    t.name == "service-conn" for t in threading.enumerate()
                ):
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
                started = time.monotonic()
                service.close()
                assert time.monotonic() - started < 1.0
                assert not [
                    t.name for t in threading.enumerate()
                    if t.name.startswith("service-") and t.is_alive()
                ]
            finally:
                idle.close()
        finally:
            _reap(procs)


def test_hostile_control_frames_are_dropped_and_the_daemon_serves_on(
    no_plan, out_of_band
):
    """The control port reads each request with a cap and the codec: a
    frame announcing more than ``MAX_REQUEST_BYTES`` is dropped on its
    header, a pre-codec (bare pickle) frame and random bytes are dropped
    as undecodable — each connection closed without a reply — and the
    next real client is served, its result's partitions out of band."""
    data = teragen(800, seed=97)
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            with SortService(cluster) as service:
                service.start()
                address = parse_address(service.control_address)
                for frame in (
                    FRAME_HEADER.pack(17, 1 << 40),
                    None,
                    FRAME_HEADER.pack(17, 64) + bytes(range(64)),
                ):
                    hostile = socket.create_connection(address, timeout=10)
                    if frame is None:
                        send_frame(hostile, 17, pickle.dumps((2, ("stats",))))
                    else:
                        hostile.sendall(frame)
                    assert hostile.recv(1) == b""  # dropped, no reply
                    hostile.close()
                client = ServiceClient(service.control_address)
                run = client.submit(
                    TeraSortSpec(data=data), workers=2
                ).result(timeout=60)
                assert b"".join(p.to_bytes() for p in run.partitions) == (
                    b"".join(_solo_partitions(TeraSortSpec(data=data), 2))
                )
                assert all(out_of_band(p.array) for p in run.partitions)
        finally:
            _reap(procs)


def test_input_bytes_is_the_advisory_quota_estimate(tmp_path):
    """``spec.input_bytes`` (what the daemon charges byte quotas with):
    the sort specs size their source, MapReduce sizes bytes-like and
    descriptor files, and shapes nobody can size count 0."""
    from repro.core.jobs import WordCountJob
    from repro.kvpairs.datasource import FileSource, TeragenSource
    from repro.kvpairs.records import RECORD_BYTES
    from repro.kvpairs.teragen import teragen_to_file
    from repro.session import CodedTeraSortSpec, MapReduceSpec

    data = teragen(700, seed=5)
    assert TeraSortSpec(data=data).input_bytes == 700 * RECORD_BYTES
    path = str(tmp_path / "in.bin")
    teragen_to_file(path, 300, seed=5)
    assert (
        CodedTeraSortSpec(input=FileSource(path), redundancy=2).input_bytes
        == 300 * RECORD_BYTES
    )
    files = [b"abc", bytearray(b"defgh"), memoryview(b"ij"),
             TeragenSource(40), data, "opaque text", {"opaque": 1}, None]
    assert (
        MapReduceSpec(job=WordCountJob(), files=files).input_bytes
        == 3 + 5 + 2 + 40 * RECORD_BYTES + data.nbytes
    )
    assert MapReduceSpec(job=WordCountJob(), files=["a", "b"]).input_bytes == 0


def test_cli_submit_relays_the_daemons_validation_text(no_plan, capsys):
    """`repro submit` without ``--workers`` cannot know K: the daemon
    validates against its mesh and answers with a typed rejection
    (``kind == "invalid"``) carrying the spec's own message (the wire
    half of ``tests/test_option_matrix.py``); the same shared flags then
    run a job with options `submit` could not set."""
    from repro.cli import main
    from repro.session import CodedTeraSortSpec

    with pytest.raises(ValueError) as expected:
        CodedTeraSortSpec(data=teragen(100), redundancy=2).validate(2)
    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            with SortService(cluster) as service:
                service.start()
                connect = ["submit", "--connect", service.control_address]
                assert main(connect + ["-n", "100", "-r", "2"]) == 3
                assert (
                    capsys.readouterr().err
                    == f"rejected (invalid): {expected.value}\n"
                )
                with pytest.raises(ServiceRejected) as rejected:
                    ServiceClient(service.control_address).submit(
                        CodedTeraSortSpec(data=teragen(100), redundancy=2)
                    )
                assert rejected.value.kind == "invalid"
                assert str(rejected.value) == str(expected.value)
                rc = main(connect + [
                    "-n", "600", "--algorithm", "terasort", "--overlap",
                    "--memory-budget", "32768",
                ])
                assert rc == 0
                assert "600 records" in capsys.readouterr().out
                stats = ServiceClient(service.control_address).stats()
                assert (stats.jobs_rejected, stats.jobs_done) == (2, 1)
        finally:
            _reap(procs)
