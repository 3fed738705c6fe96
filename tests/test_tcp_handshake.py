"""TCP rendezvous failure paths: clean errors, never hangs.

Covers the four required failure modes of the handshake: a wrong
protocol version, a duplicate rank request, a worker that dies
mid-handshake, and connect timeouts on both sides.  Every scenario must
surface a descriptive error within its configured timeout — a silent
hang is the failure being guarded against.

All sockets use ephemeral 127.0.0.1 ports (xdist-safe).
"""

from __future__ import annotations

import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.terasort import TeraSortSpec
from repro.kvpairs.teragen import teragen
from repro.runtime import tcp
from repro.runtime.tcp import (
    PROTOCOL_VERSION,
    TcpCluster,
    TcpClusterError,
    TcpHandshakeError,
    parse_address,
    run_worker,
)
from repro.runtime.transport import (
    FRAME_HEADER,
    recv_msg,
    send_frame,
    send_msg,
)


def _raw_client(address: str, version: int, rank: int) -> socket.socket:
    """Dial the rendezvous and send one HELLO frame, returning the socket."""
    host, port = parse_address(address)
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.settimeout(10.0)
    send_frame(
        sock, tcp._TAG_HELLO, tcp._HELLO.pack(tcp._MAGIC, version, rank)
    )
    return sock


class TestParseAddress:
    def test_accepts_scheme_and_bare_forms(self):
        assert parse_address("tcp://10.0.0.7:4000") == ("10.0.0.7", 4000)
        assert parse_address("localhost:0") == ("localhost", 0)
        assert parse_address("tcp://[::1]:4000") == ("::1", 4000)

    @pytest.mark.parametrize("bad", ["tcp://nohost", "1234", ":80", "h:x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError, match="tcp://HOST:PORT"):
            parse_address(bad)


class TestCoordinatorRejections:
    @pytest.mark.parametrize("version", [12, 4, PROTOCOL_VERSION - 1])
    def test_wrong_version_rejected_with_reason(self, version):
        """A mismatched protocol version gets a reject frame, and the
        rendezvous keeps serving valid workers afterwards.  Cases: a
        future version, an older one whose workers expect a list-shaped
        roster, and the previous one, whose workers send bare pickles
        after the hello where today's coordinator reads control-codec
        frames."""
        with TcpCluster(
            1, "tcp://127.0.0.1:0", connect_timeout=30, handshake_timeout=10
        ) as cluster:
            pool = cluster.create_pool()
            with ThreadPoolExecutor(1) as pool_exec:
                starting = pool_exec.submit(pool._form)
                bad = _raw_client(cluster.address, version, -1)
                msg = recv_msg(bad)
                bad.close()
                assert msg[0] == "reject"
                assert "version" in msg[1]
                # The rendezvous survived the bad client: a real worker
                # still completes the handshake.
                worker = threading.Thread(
                    target=run_worker,
                    kwargs=dict(join=cluster.address, quiet=True),
                    daemon=True,
                )
                worker.start()
                starting.result(timeout=30)
                worker_sockets = pool._chans
                assert len(worker_sockets) == 1
                pool.close()
                worker.join(timeout=15)
                assert not worker.is_alive()

    def test_oversized_hello_dropped_before_allocation(self):
        """A dialer announcing a frame far past the hello cap is dropped
        on the header alone — nothing of its size is allocated or read —
        and the rendezvous keeps serving valid workers."""
        with TcpCluster(
            1, "tcp://127.0.0.1:0", connect_timeout=30, handshake_timeout=10
        ) as cluster:
            pool = cluster.create_pool()
            with ThreadPoolExecutor(1) as pool_exec:
                starting = pool_exec.submit(pool._form)
                hostile = socket.create_connection(
                    parse_address(cluster.address), timeout=10.0
                )
                hostile.sendall(FRAME_HEADER.pack(tcp._TAG_HELLO, 1 << 62))
                assert hostile.recv(1) == b""  # dropped: EOF, no reply
                hostile.close()
                worker = threading.Thread(
                    target=run_worker,
                    kwargs=dict(join=cluster.address, quiet=True),
                    daemon=True,
                )
                worker.start()
                starting.result(timeout=30)
                assert len(pool._chans) == 1
                pool.close()
                worker.join(timeout=15)
                assert not worker.is_alive()

    def test_duplicate_rank_rejected_and_midhandshake_death_detected(self):
        """Second claimant of a rank is rejected with a reason; a worker
        dying after admission surfaces as a clean coordinator error."""
        with TcpCluster(
            2, "tcp://127.0.0.1:0", connect_timeout=30, handshake_timeout=5
        ) as cluster:
            pool = cluster.create_pool()
            with ThreadPoolExecutor(1) as pool_exec:
                starting = pool_exec.submit(pool._form)
                first = _raw_client(cluster.address, PROTOCOL_VERSION, 0)
                assert recv_msg(first)[0] == "welcome"

                dup = _raw_client(cluster.address, PROTOCOL_VERSION, 0)
                msg = recv_msg(dup)
                dup.close()
                assert msg[0] == "reject"
                assert "duplicate rank" in msg[1]

                # Kill the admitted rank-0 claimant mid-handshake, then
                # fill rank 1 so the coordinator reaches the next phase
                # and must notice the death — with a named rank, fast.
                first.close()
                second = _raw_client(cluster.address, PROTOCOL_VERSION, 1)
                assert recv_msg(second)[0] == "welcome"
                with pytest.raises(
                    TcpClusterError,
                    match="worker 0 died before announcing",
                ):
                    starting.result(timeout=30)
                second.close()

    def test_out_of_range_rank_rejected(self):
        with TcpCluster(
            2, "tcp://127.0.0.1:0", connect_timeout=2, handshake_timeout=5
        ) as cluster:
            pool = cluster.create_pool()
            with ThreadPoolExecutor(1) as pool_exec:
                starting = pool_exec.submit(pool._form)
                client = _raw_client(cluster.address, PROTOCOL_VERSION, 9)
                msg = recv_msg(client)
                client.close()
                assert msg[0] == "reject"
                assert "out of range" in msg[1]
                # No valid worker ever joins: the rendezvous gives up at
                # connect_timeout with the actionable message.
                with pytest.raises(TcpClusterError, match="timed out"):
                    starting.result(timeout=30)


class TestWorkerSideErrors:
    def test_higher_peer_that_never_dials_in_fails_at_handshake_timeout(self):
        """Rank 0 of a 2-mesh waits for rank 1 to dial in; a rank 1 that
        completes the rendezvous but never dials fails rank 0 within
        ``handshake_timeout``, naming the rank and the missing peer."""
        with TcpCluster(
            2, "tcp://127.0.0.1:0", connect_timeout=30, handshake_timeout=5
        ) as cluster:
            pool = cluster.create_pool()
            with ThreadPoolExecutor(2) as pool_exec:
                starting = pool_exec.submit(pool._form)
                worker = pool_exec.submit(
                    run_worker, cluster.address, rank=0, quiet=True,
                    handshake_timeout=1.0,
                )
                silent = _raw_client(cluster.address, PROTOCOL_VERSION, 1)
                assert recv_msg(silent)[0] == "welcome"
                send_msg(silent, ("listening", ("127.0.0.1", 9)))
                roster = recv_msg(silent)
                assert roster[0] == "roster"
                assert set(roster[1]["peers"]) == {0}  # rank 1 dials 0
                started = time.monotonic()
                with pytest.raises(
                    TcpClusterError,
                    match=r"rank 0: peers \[1\] did not dial in within 1\.0s",
                ):
                    worker.result(timeout=30)
                assert time.monotonic() - started < 5.0
                with pytest.raises(TcpClusterError, match="worker 0 died"):
                    starting.result(timeout=30)
                silent.close()

    def test_worker_raises_on_reject(self):
        """A rejected worker exits with the coordinator's reason."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        addr = f"127.0.0.1:{listener.getsockname()[1]}"

        def fake_coordinator():
            # The hello payload is a struct, not a codec frame: drain it raw.
            conn, _ = listener.accept()
            conn.settimeout(10.0)
            from repro.runtime.transport import recv_frame

            recv_frame(conn)
            send_msg(conn, ("reject", "protocol version mismatch: nope"))
            conn.close()

        server = threading.Thread(target=fake_coordinator, daemon=True)
        server.start()
        try:
            with pytest.raises(
                TcpHandshakeError, match="version mismatch: nope"
            ):
                run_worker(addr, quiet=True, connect_timeout=10,
                           handshake_timeout=10)
        finally:
            server.join(timeout=10)
            listener.close()

    def test_worker_connect_timeout_is_bounded(self):
        """Dialing a dead address errors out at connect_timeout, no hang."""
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead = f"tcp://127.0.0.1:{probe.getsockname()[1]}"
        probe.close()  # nothing listens here anymore
        with pytest.raises(TcpClusterError, match="could not connect"):
            run_worker(dead, quiet=True, connect_timeout=0.5)


def test_coordinator_times_out_waiting_for_workers():
    """A pool start with no workers fails with an actionable message."""
    data = teragen(200, seed=1)
    with TcpCluster(2, "tcp://127.0.0.1:0", connect_timeout=0.4) as cluster:
        pool = cluster.create_pool()
        with pytest.raises(
            TcpClusterError, match=r"0/2 joined.*repro worker --join"
        ):
            pool.run_job(TeraSortSpec(data).prepare(2))
