"""Tests for the threaded in-process backend."""

from __future__ import annotations

import pytest

from repro.runtime.inproc import ThreadCluster
from repro.runtime.mailbox import Mailbox, MailboxClosed
from repro.runtime.program import NodeProgram


def _get(mb, src, tag, timeout=1):
    """A blocking selective receive: wait for the key, then pop it."""
    if not mb.wait_any(((src, tag),), timeout):
        raise TimeoutError(f"recv timeout waiting for (src={src}, tag={tag})")
    return mb.pop((src, tag))


class TestMailbox:
    def test_fifo_per_key(self):
        mb = Mailbox()
        mb.put(0, 1, b"a")
        mb.put(0, 1, b"b")
        assert _get(mb, 0, 1) == b"a"
        assert _get(mb, 0, 1) == b"b"

    def test_selective_receive(self):
        mb = Mailbox()
        mb.put(0, 2, b"two")
        mb.put(0, 1, b"one")
        assert _get(mb, 0, 1) == b"one"
        assert _get(mb, 0, 2) == b"two"

    def test_timeout_answers_nothing(self):
        mb = Mailbox()
        assert mb.wait_any(((0, 1),), timeout=0.05) == []
        with pytest.raises(TimeoutError, match="timeout"):
            _get(mb, 0, 1, timeout=0.05)

    def test_closed_raises(self):
        mb = Mailbox()
        mb.close()
        with pytest.raises(MailboxClosed, match="closed"):
            _get(mb, 0, 1)
        with pytest.raises(MailboxClosed, match="closed"):
            mb.put(0, 1, b"x")

    def test_poll_is_nonblocking(self):
        mb = Mailbox()
        assert mb.wait_any(((0, 1),), 0) == []
        mb.put(0, 1, b"a")
        assert mb.wait_any(((0, 1),), 0) == [(0, 1)]
        assert mb.pop((0, 1)) == b"a"
        assert mb.wait_any(((0, 1),), 0) == []

    def test_wait_any_names_the_keys_that_arrived(self):
        mb = Mailbox()
        posted = {(0, 1): "a", (1, 1): "b", (2, 7): "c"}
        mb.put(1, 1, b"x")
        mb.put(3, 9, b"not awaited")
        assert mb.wait_any(posted, 1) == [(1, 1)]
        mb.put(2, 7, b"y")
        assert sorted(mb.wait_any(posted, 1)) == [(1, 1), (2, 7)]

    def test_source_closure_is_selective(self):
        mb = Mailbox()
        mb.put(2, 1, b"buffered")
        mb.close_source(2, "eof")
        # Buffered frames drain before closure surfaces.
        assert _get(mb, 2, 1) == b"buffered"
        with pytest.raises(MailboxClosed, match="source 2") as closed:
            _get(mb, 2, 1)
        assert closed.value.src == 2
        # Other sources are unaffected.
        mb.put(3, 1, b"alive")
        assert _get(mb, 3, 1) == b"alive"


class _PingPong(NodeProgram):
    STAGES = ["play"]

    def run(self):
        with self.stage("play"):
            other = 1 - self.rank
            if self.rank == 0:
                self.comm.send(other, 5, b"ping")
                return self.comm.recv(other, 6)
            msg = self.comm.recv(other, 5)
            self.comm.send(other, 6, b"pong-" + msg)
            return msg


class _Failing(NodeProgram):
    STAGES = ["boom"]

    def run(self):
        with self.stage("boom"):
            if self.rank == 1:
                raise ValueError("deliberate failure")
            # Other nodes block on a message that never comes.
            self.comm.recv(1, 7)


class _BarrierCounter(NodeProgram):
    STAGES = ["sync"]

    def run(self):
        import threading

        with self.stage("sync"):
            order = []
            for i in range(3):
                self.comm.barrier()
                order.append(i)
        return order


class TestThreadCluster:
    def test_ping_pong(self):
        res = ThreadCluster(2, recv_timeout=10).run(_PingPong)
        assert res.results[0] == b"pong-ping"
        assert res.results[1] == b"ping"

    def test_stage_times_collected(self):
        res = ThreadCluster(2, recv_timeout=10).run(_PingPong)
        assert res.stage_times.stages == ["play"]
        assert res.stage_times["play"] >= 0

    def test_traffic_collected(self):
        res = ThreadCluster(2, recv_timeout=10).run(_PingPong)
        assert res.traffic.message_count() == 2
        assert res.traffic.load_bytes() == len(b"ping") + len(b"pong-ping")

    def test_node_failure_propagates_with_rank(self):
        with pytest.raises(RuntimeError, match="node 1 failed"):
            ThreadCluster(3, recv_timeout=10).run(_Failing)

    def test_failure_unblocks_peers_quickly(self):
        """Peers blocked on recv must not wait out the full timeout."""
        import time

        start = time.monotonic()
        with pytest.raises(RuntimeError):
            ThreadCluster(4, recv_timeout=60).run(_Failing)
        assert time.monotonic() - start < 10

    def test_repeated_barriers(self):
        res = ThreadCluster(4, recv_timeout=10).run(_BarrierCounter)
        assert all(r == [0, 1, 2] for r in res.results)

    def test_single_node_cluster(self):
        class Solo(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    self.comm.barrier()
                    return self.rank

        res = ThreadCluster(1, recv_timeout=5).run(Solo)
        assert res.results == [0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            ThreadCluster(0)
