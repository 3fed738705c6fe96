"""Tests for the non-blocking Comm API: isend/irecv/ibcast, and one
frame per message on every transport."""

from __future__ import annotations

import contextlib
import multiprocessing
import random

import numpy as np
import pytest

from repro.cluster import connect
from repro.runtime.api import CommError, wait_all
from repro.runtime.program import NodeProgram, PreparedJob
from repro.runtime.tcp import run_worker
from repro.utils import copytrack


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


#: Larger than the 1 MiB frames the runtime once cut a message into.
_BIG = 3 << 19


class _MixedExchange(NodeProgram):
    """Mixed small/large messages on one tag: order and bytes must hold."""

    STAGES = ["x"]

    PAYLOADS = [
        b"tiny",
        bytes(random.Random(1).randbytes(10_000)),
        b"",
        bytes(random.Random(2).randbytes(_BIG)),
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


#: What ``_OneFrame`` moves, by how: each above the old frame size.
_ONE_FRAME_PAYLOADS = {
    how: random.Random(seed).randbytes(_BIG)
    for seed, how in enumerate(("isend", "send", "ibcast"), start=4)
}


def _first_frame(comm, key):
    """The length of the first frame buffered under ``key``, once one is."""
    comm.wait_any((key,), 30)
    return len(comm._mailbox._queues[key][0])


def _addr(buf):
    return np.frombuffer(buf, np.uint8).ctypes.data


def _landed(how, first, got):
    """How one receive of ``_ONE_FRAME_PAYLOADS[how]`` arrived."""
    return how, {
        "equal": bytes(got) == _ONE_FRAME_PAYLOADS[how],
        "first_frame": first,
        # The payload is the frame: a view from its arena's first byte.
        "arena_view": isinstance(got, memoryview)
        and _addr(got) == _addr(got.obj),
    }


class _OneFrame(NodeProgram):
    """Four ranks: 0 -> 1 by ``isend`` / ``irecv``, 1 -> 0 by blocking
    ``send`` / ``recv``, and an ``ibcast`` from 0 over all four, which
    rank 2 (the binomial tree's interior member) relays to 3.  Every
    receive is ``copy=False``; each reports its first frame's length
    before taking it, and ``track`` counts this process's copies."""

    STAGES = ["x"]

    def __init__(self, comm, track):
        super().__init__(comm)
        self.track = track

    def run(self):
        comm, rank, landed = self.comm, self.rank, []
        scope = copytrack.track() if self.track else contextlib.nullcontext({})
        with self.stage("x"), scope as copies:
            if rank == 0:
                comm.isend(1, 1, _ONE_FRAME_PAYLOADS["isend"]).wait()
                first = _first_frame(comm, (comm.members[1], comm._user_tag(2)))
                got = comm.recv(1, 2, copy=False)
                landed.append(_landed("send", first, got))
            elif rank == 1:
                req = comm.irecv(0, 1, copy=False)
                first = _first_frame(comm, req.key)
                landed.append(_landed("isend", first, req.wait()))
                comm.send(0, 2, _ONE_FRAME_PAYLOADS["send"])
            payload = _ONE_FRAME_PAYLOADS["ibcast"] if rank == 0 else None
            req = comm.ibcast(range(4), 0, 3, payload, copy=False)
            if rank:
                first = _first_frame(comm, req.key)
                landed.append(_landed("ibcast", first, req.wait()))
                if req.forward is not None:
                    req.forward.wait()
            else:
                req.wait()
        return landed, sorted(s for s in copies if s.startswith("api.recv."))


def _one_frame_program(comm, track):
    return _OneFrame(comm, track)


def _run_one_frame(scheme):
    """``_OneFrame`` on a 4-worker ``scheme`` cluster, and the receive
    sites copytrack saw wherever the workers share the test's process."""
    url = "tcp://127.0.0.1:0" if scheme == "tcp" else f"{scheme}://4"
    track = scheme != "inproc"
    job = PreparedJob(
        builder=_one_frame_program, payloads=[track] * 4, finalize=lambda r: r
    )
    agents = []
    with connect(url, size=4, timeout=60) as cluster:
        if scheme == "tcp":
            ctx = multiprocessing.get_context("fork")
            agents = [
                ctx.Process(
                    target=run_worker,
                    kwargs=dict(join=cluster.address, quiet=True),
                    daemon=True,
                )
                for _ in range(4)
            ]
            for agent in agents:
                agent.start()
        try:
            with copytrack.track() as copies, cluster.create_pool() as pool:
                res = pool.run_job(job, last=True)
        finally:
            for agent in agents:
                agent.join(15.0)
                if agent.is_alive():  # pragma: no cover - defensive
                    agent.kill()
                    agent.join()
    here = sorted(s for s in copies if s.startswith("api.recv."))
    return res, here


class TestOneFrameTransfers:
    """A message is one frame on every transport, however large."""

    @pytest.mark.parametrize("cluster_idx", [0, 1])
    def test_mixed_sizes_roundtrip(self, cluster_idx):
        res = _clusters(2)[cluster_idx].run(_MixedExchange)
        assert res.results[1] == _MixedExchange.PAYLOADS
        assert res.traffic.message_count() == len(_MixedExchange.PAYLOADS)
        assert res.traffic.load_bytes() == sum(
            len(p) for p in _MixedExchange.PAYLOADS
        )

    @pytest.mark.parametrize("scheme", ["inproc", "proc", "tcp"])
    def test_large_payload_is_one_frame(self, scheme):
        res, here = _run_one_frame(scheme)
        whole = {"equal": True, "first_frame": _BIG, "arena_view": True}
        # Rank 2 relays the ibcast: rank 3 gets it as one frame too.
        assert [landed for landed, _ in res.results] == [
            [("send", whole)],
            [("isend", whole), ("ibcast", whole)],
            [("ibcast", whole)],
            [("ibcast", whole)],
        ]
        assert here == [] and all(sites == [] for _, sites in res.results)
        assert res.traffic.message_count() == len(_ONE_FRAME_PAYLOADS)
        assert res.traffic.load_bytes() == sum(
            len(p) for p in _ONE_FRAME_PAYLOADS.values()
        )

    def test_chunk_bytes_is_no_setting(self):
        with pytest.raises(TypeError, match="chunk_bytes"):
            connect("inproc://2", chunk_bytes=0)


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


class _BcastAllRoots(_IBcastAllRoots):
    """The same broadcasts through the blocking ``bcast``, root by root."""

    def run(self):
        with self.stage("talk"):
            if self.rank not in self.group:
                return {}
            return {
                root: self.comm.bcast(
                    self.group, root, tag=root,
                    payload=(
                        f"msg-{root}".encode() if self.rank == root else None
                    ),
                )
                for root in self.group
            }


#: The same contract on the tree (``ibcast``, all posted before any wait)
#: and on the chain (blocking ``bcast``), the reference it must match.
_CALLS = pytest.mark.parametrize(
    "program", [_IBcastAllRoots, _BcastAllRoots], ids=["ibcast", "bcast"]
)


class TestIBcast:
    @_CALLS
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_matches_bcast_contract_inproc(self, program, size):
        res = connect(f"inproc://{size}", timeout=30).run(program)
        expected = {r: f"msg-{r}".encode() for r in range(size)}
        assert all(got == expected for got in res.results)

    @_CALLS
    def test_matches_bcast_contract_process(self, program):
        res = connect("proc://4", timeout=60).run(program)
        expected = {r: f"msg-{r}".encode() for r in range(4)}
        assert all(got == expected for got in res.results)

    @_CALLS
    def test_subgroup_ibcast(self, program):
        group = (0, 2, 3)

        def factory(comm):
            return program(comm, group=group)

        cluster = connect("inproc://5", timeout=30)
        res = cluster.run(factory)
        expected = {r: f"msg-{r}".encode() for r in group}
        for rank, got in enumerate(res.results):
            assert got == (expected if rank in group else {})

    def test_ibcast_traffic_equals_bcast(self):
        """Each root's payload counted once in the load and once per
        receiver on the wire, whichever call moved it."""
        size = 6
        payloads = sum(len(f"msg-{r}".encode()) for r in range(size))
        counts = {}
        for program in (_IBcastAllRoots, _BcastAllRoots):
            res = connect(f"inproc://{size}", timeout=30).run(program)
            traffic = res.traffic
            counts[program] = (
                traffic.message_count(),
                traffic.load_bytes(),
                traffic.wire_bytes(),
            )
        assert counts[_IBcastAllRoots] == counts[_BcastAllRoots]
        assert counts[_BcastAllRoots] == (
            size, payloads, payloads * (size - 1)
        )

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

        res = connect("inproc://4", timeout=30).run(LateBcast)
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
