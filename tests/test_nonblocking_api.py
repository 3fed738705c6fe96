"""Tests for the non-blocking Comm API: isend/irecv/ibcast + chunking."""

from __future__ import annotations

import random

import pytest

from repro.cluster import connect
from repro.runtime.api import CommError, MulticastMode, wait_all
from repro.runtime.program import NodeProgram


def _clusters(size, **kwargs):
    """Both backends with test-friendly timeouts."""
    return [
        connect(f"inproc://{size}", timeout=30, **kwargs),
        connect(f"proc://{size}", timeout=60, **kwargs),
    ]


class _IPingPong(NodeProgram):
    STAGES = ["play"]

    def run(self):
        with self.stage("play"):
            other = 1 - self.rank
            if self.rank == 0:
                req = self.comm.isend(other, 5, b"ping")
                reply = self.comm.irecv(other, 6)
                req.wait()
                return reply.wait()
            msg = self.comm.irecv(other, 5).wait()
            self.comm.isend(other, 6, b"pong-" + msg).wait()
            return msg


class TestNonblockingUnicast:
    @pytest.mark.parametrize("cluster_idx", [0, 1])
    def test_iping_pong(self, cluster_idx):
        res = _clusters(2)[cluster_idx].run(_IPingPong)
        assert res.results[0] == b"pong-ping"
        assert res.results[1] == b"ping"

    @pytest.mark.parametrize("cluster_idx", [0, 1])
    def test_isend_traffic_matches_blocking_send(self, cluster_idx):
        res = _clusters(2)[cluster_idx].run(_IPingPong)
        assert res.traffic.message_count() == 2
        assert res.traffic.load_bytes() == len(b"ping") + len(b"pong-ping")

    def test_isend_validation_at_post_time(self):
        class Bad(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    try:
                        self.comm.isend(self.rank, 1, b"x")
                        return "no error"
                    except CommError:
                        return "ok"

        res = connect("inproc://2", timeout=10).run(Bad)
        assert res.results == ["ok", "ok"]


class _ChunkedExchange(NodeProgram):
    """Mixed small/large messages on one tag: order and bytes must hold."""

    STAGES = ["x"]

    PAYLOADS = [
        b"tiny",
        bytes(random.Random(1).randbytes(10_000)),
        b"",
        bytes(random.Random(2).randbytes(4097)),
        b"mid" * 100,
    ]

    def run(self):
        with self.stage("x"):
            other = 1 - self.rank
            if self.rank == 0:
                reqs = [
                    self.comm.isend(other, 9, p) for p in self.PAYLOADS
                ]
                wait_all(reqs)
                return None
            reqs = [self.comm.irecv(other, 9) for _ in self.PAYLOADS]
            return wait_all(reqs)


class TestChunkedTransfers:
    @pytest.mark.parametrize("cluster_idx", [0, 1])
    def test_roundtrip_across_chunk_boundary(self, cluster_idx):
        """chunk_bytes=1024 forces multi-frame transfers for big payloads."""
        cluster = _clusters(2, chunk_bytes=1024)[cluster_idx]
        res = cluster.run(_ChunkedExchange)
        assert res.results[1] == _ChunkedExchange.PAYLOADS

    def test_blocking_send_recv_also_chunked(self):
        payload = random.Random(3).randbytes(50_000)

        class Big(NodeProgram):
            STAGES = ["x"]

            def run(self):
                with self.stage("x"):
                    if self.rank == 0:
                        self.comm.send(1, 2, payload)
                        return None
                    return self.comm.recv(0, 2)

        res = connect("inproc://2", timeout=10, chunk_bytes=512).run(Big)
        assert res.results[1] == payload

    def test_chunking_invisible_to_traffic(self):
        cluster = connect("inproc://2", timeout=10, chunk_bytes=128)
        res = cluster.run(_ChunkedExchange)
        assert res.traffic.message_count() == len(_ChunkedExchange.PAYLOADS)
        assert res.traffic.load_bytes() == sum(
            len(p) for p in _ChunkedExchange.PAYLOADS
        )

    def test_invalid_chunk_bytes(self):
        # Comm validation runs in the node threads; the cluster wraps it.
        with pytest.raises(RuntimeError, match="chunk_bytes"):
            connect("inproc://2", chunk_bytes=0).run(_IPingPong)


class _ProbeProgression(NodeProgram):
    """``test()`` is False before the send and True after it."""

    STAGES = ["probe"]

    def run(self):
        with self.stage("probe"):
            if self.rank == 1:
                req = self.comm.irecv(0, 7)
                before = req.test()
                self.comm.barrier()  # releases node 0's send
                self.comm.barrier()  # node 0 sent before entering this one
                # Data frames precede node 0's barrier token on the same
                # channel, so they are demultiplexed by now.
                after = req.test()
                return before, after, req.wait()
            self.comm.barrier()
            self.comm.send(1, 7, b"payload")
            self.comm.barrier()
            return None


class TestRequestSemantics:
    @pytest.mark.parametrize("cluster_idx", [0, 1])
    def test_test_tracks_arrival(self, cluster_idx):
        res = _clusters(2)[cluster_idx].run(_ProbeProgression)
        before, after, payload = res.results[1]
        assert before is False
        assert after is True
        assert payload == b"payload"

    def test_wait_timeout_bounds_lazy_receive(self):
        """wait(timeout) on a never-sent message raises promptly, not after
        the backend's 60s default."""
        import time

        # Rank 1 idles at the barrier while rank 0 waits out its bound.
        class Program(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    if self.rank == 0:
                        req = self.comm.irecv(1, 3)
                        t0 = time.monotonic()
                        try:
                            req.wait(timeout=0.2)
                            elapsed = None
                        except CommError:
                            elapsed = time.monotonic() - t0
                        self.comm.barrier()
                        return elapsed
                    self.comm.barrier()
                    return None

        res = connect("inproc://2", timeout=60).run(Program)
        assert res.results[0] is not None
        assert res.results[0] < 5.0  # bounded by the 0.2s argument, not 60s

    def test_test_observes_peer_death(self):
        """A test()-polling receiver must see a dead peer as an error, not
        spin forever (process backend: EOF closes the source)."""
        import time

        class Poller(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    if self.rank == 1:
                        return None  # exits immediately, closing channels
                    req = self.comm.irecv(1, 4)  # never sent
                    deadline = time.monotonic() + 20.0
                    while time.monotonic() < deadline:
                        try:
                            if req.test():
                                return "completed?"
                        except CommError:
                            return "observed death"
                        time.sleep(0.01)
                    return "spun forever"

        res = connect("proc://2", timeout=40).run(Poller)
        assert res.results[0] == "observed death"


class _IBcastAllRoots(NodeProgram):
    """Every member roots one ibcast; all posted before any wait."""

    STAGES = ["talk"]

    def __init__(self, comm, group=None):
        super().__init__(comm)
        self.group = group or tuple(range(comm.size))

    def run(self):
        out = {}
        with self.stage("talk"):
            if self.rank not in self.group:
                return out
            reqs = {}
            for root in self.group:
                payload = (
                    f"msg-{root}".encode() if self.rank == root else None
                )
                reqs[root] = self.comm.ibcast(
                    self.group, root, tag=root, payload=payload
                )
            for root, req in reqs.items():
                out[root] = req.wait()
        return out


class TestIBcast:
    @pytest.mark.parametrize("mode", [MulticastMode.LINEAR, MulticastMode.TREE])
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_matches_bcast_contract_inproc(self, mode, size):
        res = connect(f"inproc://{size}", multicast_mode=mode, timeout=30).run(
            _IBcastAllRoots
        )
        expected = {r: f"msg-{r}".encode() for r in range(size)}
        assert all(got == expected for got in res.results)

    @pytest.mark.parametrize("mode", [MulticastMode.LINEAR, MulticastMode.TREE])
    def test_matches_bcast_contract_process(self, mode):
        res = connect("proc://4", multicast_mode=mode, timeout=60).run(
            _IBcastAllRoots
        )
        expected = {r: f"msg-{r}".encode() for r in range(4)}
        assert all(got == expected for got in res.results)

    @pytest.mark.parametrize("mode", [MulticastMode.LINEAR, MulticastMode.TREE])
    def test_subgroup_ibcast(self, mode):
        group = (0, 2, 3)

        def factory(comm):
            return _IBcastAllRoots(comm, group=group)

        cluster = connect("inproc://5", multicast_mode=mode, timeout=30)
        res = cluster.run(factory)
        expected = {r: f"msg-{r}".encode() for r in group}
        for rank, got in enumerate(res.results):
            assert got == (expected if rank in group else {})

    def test_ibcast_traffic_equals_bcast(self):
        loads = {}
        for mode in (MulticastMode.LINEAR, MulticastMode.TREE):
            res = connect("inproc://6", multicast_mode=mode, timeout=30).run(
                _IBcastAllRoots
            )
            loads[mode] = res.traffic.load_bytes()
        assert loads[MulticastMode.LINEAR] == loads[MulticastMode.TREE]

    def test_singleton_group(self):
        class Solo(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    return self.comm.ibcast(
                        (self.rank,), self.rank, 1, b"self"
                    ).wait()

        res = connect("inproc://3", timeout=10).run(Solo)
        assert all(r == b"self" for r in res.results)

    def test_tree_relay_outlives_recv_timeout(self):
        """An interior relay posted long before its packet is due must not
        trip the per-receive timeout (its wait is unbounded)."""
        import time

        class LateBcast(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    group = tuple(range(self.size))
                    if self.rank == 0:
                        time.sleep(1.0)  # > the receive bound below
                        return self.comm.ibcast(group, 0, 1, b"late").wait()
                    req = self.comm.ibcast(group, 0, 1)  # relay spawns now
                    time.sleep(1.2)  # wait only after the payload landed
                    return req.wait(0.3)

        res = connect(
            "inproc://4", multicast_mode=MulticastMode.TREE, timeout=30,
        ).run(LateBcast)
        assert all(r == b"late" for r in res.results)

    def test_root_without_payload_raises_at_post(self):
        class Bad(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    if self.rank == 0:
                        try:
                            self.comm.ibcast((0, 1), 0, 1, None)
                            return "no error"
                        except CommError:
                            return "ok"
                    # Peer must not wait for a broadcast that never starts.
                    return "ok"

        res = connect("inproc://2", timeout=10).run(Bad)
        assert res.results == ["ok", "ok"]
