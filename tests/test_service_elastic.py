"""Elastic service pools end-to-end: mid-flight rejoin, mesh regrowth,
and shrink-to-fit scheduling on real TCP meshes.

The acceptance criteria for the elastic PR, verified against genuine
``run_worker`` processes and a live :class:`SortService`:

* a replacement worker completes the rendezvous handshake while a job
  is in flight on a disjoint subset — the job is undisturbed and a
  later job spans the joined rank, both byte-identical to solo runs;
* SIGKILLing workers shrinks ``workers_live``; respawned replacements
  recycle the dead ranks, the mesh relinks, and full-width jobs run
  byte-identically again — all observable via ``repro status --json``;
* a joiner requesting a live rank is rejected with a typed reason
  naming the membership epoch, and a peer hello carrying a stale mesh
  nonce (what a worker from a pre-restart pool generation would send)
  is dropped without disturbing the mesh;
* with ``shrink_to_fit`` on, a queued K=4 sort re-plans onto 2 free
  workers (``replanned_k`` reported on the handle) while a coded job
  whose geometry cannot shrink waits for the mesh to regrow and then
  runs at full width.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.kvpairs.teragen import teragen
from repro.runtime.inproc import ThreadCluster
from repro.runtime.tcp import (
    _MAGIC,
    _PEER_HELLO,
    _TAG_PEER,
    TcpCluster,
    TcpHandshakeError,
    run_worker,
)
from repro.runtime.transport import send_frame
from repro.service import ServiceClient, SortService
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")
_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    with Session(ThreadCluster(k, recv_timeout=60.0)) as session:
        run = session.submit(spec).result(timeout=60)
    return [p.to_bytes() for p in run.partitions]


def _wait_stats(client, predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = client.stats()
        if predicate(stats):
            return stats
        time.sleep(0.1)
    raise AssertionError(f"stats never converged: {client.stats()}")


def test_worker_joins_mid_flight_and_grows_the_mesh(no_plan):
    """K=3 mesh; while a 2-worker sort is held in map, a 4th worker
    joins (mesh growth).  The in-flight job is untouched and a coded
    job then spans all 4 ranks — both byte-identical to solo runs."""
    data_a = teragen(1200, seed=101)
    data_b = teragen(1200, seed=102)
    ref_a = _solo_partitions(TeraSortSpec(data=data_a), 2)
    ref_b = _solo_partitions(
        CodedTeraSortSpec(data=data_b, redundancy=2), 4
    )

    # Hold job 0's map open so the join provably overlaps it.
    no_plan.setenv(ENV_VAR, "stage.delay,stage=map,secs=1.0,job_lt=1")
    with TcpCluster(
        3, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 3)
        try:
            with SortService(cluster) as service:
                service.start()
                client = ServiceClient(service.control_address)
                handle_a = client.submit(
                    TeraSortSpec(data=data_a), tenant="alice", workers=2
                )
                # The rendezvous listener stays open: one more worker
                # dials in while job A is still mapping.
                procs += _spawn_workers(cluster.address, 1)
                stats = _wait_stats(
                    client, lambda s: s.workers_live == 4
                )
                assert stats.workers_joined == 1
                assert stats.membership_epoch >= 1

                run_a = handle_a.result(timeout=120)
                assert [p.to_bytes() for p in run_a.partitions] == ref_a

                handle_b = client.submit(
                    CodedTeraSortSpec(data=data_b, redundancy=2),
                    tenant="bob",
                    workers=4,
                )
                run_b = handle_b.result(timeout=120)
                assert [p.to_bytes() for p in run_b.partitions] == ref_b
                assert handle_b.replanned_k is None
                row_b = client.status(handle_b.job_id)[0]
                # The joined rank (3) really took part.
                assert sorted(row_b["workers_used"]) == [0, 1, 2, 3]
                # The mesh grew in the pool, not in the caller's spec.
                assert service._pool.size == 4
                assert cluster.size == 3
        finally:
            _reap(procs)


def test_sigkill_two_rejoin_recycles_ranks_and_status_json(no_plan):
    """K=4 mesh: SIGKILL 2 workers, respawn replacements.  The dead
    ranks are recycled, full-width sorts are byte-identical before and
    after, and ``repro status --json`` reports the regrowth."""
    data = teragen(1200, seed=103)
    spec = TeraSortSpec(data=data)
    ref = _solo_partitions(TeraSortSpec(data=data), 4)

    with TcpCluster(
        4, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 4)
        try:
            with SortService(cluster) as service:
                service.start()
                client = ServiceClient(service.control_address)
                run = client.submit(spec, workers=4).result(timeout=120)
                assert [p.to_bytes() for p in run.partitions] == ref

                for p in procs[:2]:
                    os.kill(p.pid, signal.SIGKILL)
                _wait_stats(client, lambda s: s.workers_live == 2)

                procs += _spawn_workers(cluster.address, 2)
                stats = _wait_stats(
                    client, lambda s: s.workers_live == 4
                )
                assert stats.workers_joined == 2
                # 2 deaths + 2 joins, each a membership change.
                assert stats.membership_epoch >= 4

                run = client.submit(spec, workers=4).result(timeout=120)
                assert [p.to_bytes() for p in run.partitions] == ref

                env = dict(os.environ)
                env["PYTHONPATH"] = (
                    os.path.join(_REPO, "src")
                    + os.pathsep + env.get("PYTHONPATH", "")
                )
                out = subprocess.run(
                    [sys.executable, "-m", "repro", "status", "--json",
                     "--connect", service.control_address],
                    env=env, capture_output=True, text=True, timeout=60,
                )
                assert out.returncode == 0, out.stderr
                payload = json.loads(out.stdout)
                assert payload["stats"]["workers_live"] == 4
                assert payload["stats"]["workers_joined"] == 2
                assert payload["stats"]["membership_epoch"] >= 4
        finally:
            _reap(procs)


def test_duplicate_rank_and_stale_nonce_rejected(no_plan):
    """A joiner asking for a live rank bounces with a typed reason
    naming the membership epoch, and a peer hello with a wrong mesh
    nonce — what a worker of a pre-restart pool generation would send,
    the nonce being minted per generation — is dropped.  The standing
    mesh serves jobs undisturbed after both."""
    data = teragen(800, seed=104)
    ref = _solo_partitions(TeraSortSpec(data=data), 2)

    with TcpCluster(
        2, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 2)
        try:
            with SortService(cluster) as service:
                service.start()
                client = ServiceClient(service.control_address)

                # Rank 0 is live: a replacement naming it is rejected.
                with pytest.raises(TcpHandshakeError) as exc_info:
                    run_worker(
                        join=cluster.address, rank=0, quiet=True,
                        connect_timeout=15.0, handshake_timeout=15.0,
                    )
                assert "duplicate rank" in str(exc_info.value)
                assert "membership epoch" in str(exc_info.value)

                # A stale-generation dialer: right magic and rank, wrong
                # nonce.  The worker's join acceptor closes it without
                # touching the live links.
                pool = service._pool
                stale_nonce = (pool._transport.nonce ^ 1) & (2 ** 64 - 1)
                host, port = pool._transport.addrs[0]
                sock = socket.create_connection((host, port), timeout=10)
                try:
                    sock.settimeout(10.0)
                    send_frame(
                        sock,
                        _TAG_PEER,
                        _PEER_HELLO.pack(_MAGIC, stale_nonce, 1, 7),
                    )
                    assert sock.recv(1) == b""  # peer closed: rejected
                finally:
                    sock.close()

                run = client.submit(
                    TeraSortSpec(data=data), workers=2
                ).result(timeout=120)
                assert [p.to_bytes() for p in run.partitions] == ref
                stats = client.stats()
                assert stats.workers_live == 2
                assert stats.workers_joined == 0
        finally:
            _reap(procs)


def test_shrink_to_fit_replans_while_coded_waits_for_regrowth(no_plan):
    """K=4 mesh down to 2 live workers: with ``shrink_to_fit`` on, a
    4-wide uncoded sort re-plans onto the 2 survivors (``replanned_k``
    on the handle), while a coded job whose geometry cannot shrink at
    all (r=3 needs K'=4) waits and runs at full width once the mesh
    regrows."""
    data_u = teragen(1200, seed=105)
    data_c = teragen(1200, seed=106)
    ref_u2 = _solo_partitions(TeraSortSpec(data=data_u), 2)
    ref_c4 = _solo_partitions(
        CodedTeraSortSpec(data=data_c, redundancy=3), 4
    )

    with TcpCluster(
        4, "tcp://127.0.0.1:0", timeout=60, connect_timeout=60
    ) as cluster:
        procs = _spawn_workers(cluster.address, 4)
        try:
            with SortService(cluster, shrink_to_fit=True) as service:
                service.start()
                client = ServiceClient(service.control_address)
                for p in procs[:2]:
                    os.kill(p.pid, signal.SIGKILL)
                _wait_stats(client, lambda s: s.workers_live == 2)

                handle_u = client.submit(
                    TeraSortSpec(data=data_u), tenant="alice", workers=4
                )
                run_u = handle_u.result(timeout=120)
                assert handle_u.replanned_k == 2
                assert [p.to_bytes() for p in run_u.partitions] == ref_u2
                row_u = client.status(handle_u.job_id)[0]
                assert row_u["replanned_k"] == 2
                assert len(row_u["workers_used"]) == 2

                # r=3 needs K' >= 4: this one must wait, not shrink.
                handle_c = client.submit(
                    CodedTeraSortSpec(data=data_c, redundancy=3),
                    tenant="bob",
                    workers=4,
                )
                time.sleep(1.0)
                assert client.status(handle_c.job_id)[0]["state"] == "queued"

                procs += _spawn_workers(cluster.address, 2)
                _wait_stats(client, lambda s: s.workers_live == 4)
                run_c = handle_c.result(timeout=120)
                assert handle_c.replanned_k is None
                assert [p.to_bytes() for p in run_c.partitions] == ref_c4
        finally:
            _reap(procs)
