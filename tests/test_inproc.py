"""Tests for the threaded in-process backend."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.cluster import connect
from repro.kvpairs.teragen import teragen
from repro.runtime.errors import WorkerFailure
from repro.runtime.mailbox import Mailbox, MailboxClosed
from repro.runtime.pool import WorkerPool
from repro.runtime.program import NodeProgram
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.testing.faults import ENV_VAR


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
        res = connect("inproc://2", timeout=10).run(_PingPong)
        assert res.results[0] == b"pong-ping"
        assert res.results[1] == b"ping"

    def test_stage_times_collected(self):
        res = connect("inproc://2", timeout=10).run(_PingPong)
        assert res.stage_times.stages == ["play"]
        assert res.stage_times["play"] >= 0

    def test_traffic_collected(self):
        res = connect("inproc://2", timeout=10).run(_PingPong)
        assert res.traffic.message_count() == 2
        assert res.traffic.load_bytes() == len(b"ping") + len(b"pong-ping")

    def test_node_failure_propagates_with_rank(self):
        with pytest.raises(RuntimeError, match="worker 1"):
            connect("inproc://3", timeout=10).run(_Failing)

    def test_failure_unblocks_peers_quickly(self):
        """Peers blocked on recv must not wait out the full timeout."""
        import time

        start = time.monotonic()
        with pytest.raises(RuntimeError):
            connect("inproc://4", timeout=60).run(_Failing)
        assert time.monotonic() - start < 10

    def test_repeated_barriers(self):
        res = connect("inproc://4", timeout=10).run(_BarrierCounter)
        assert all(r == [0, 1, 2] for r in res.results)

    def test_single_node_cluster(self):
        class Solo(NodeProgram):
            STAGES = ["s"]

            def run(self):
                with self.stage("s"):
                    self.comm.barrier()
                    return self.rank

        res = connect("inproc://1", timeout=5).run(Solo)
        assert res.results == [0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            connect("inproc://0")


class TestThreadPool:
    """The thread backend is a ``WorkerPool`` transport like the others."""

    def test_create_pool_is_the_worker_pool(self):
        with connect("inproc://4").create_pool() as pool:
            assert isinstance(pool, WorkerPool)

    def test_crash_kills_one_thread_and_the_retry_is_byte_identical(
        self, monkeypatch
    ):
        # os._exit here would end the test process: on a worker thread a
        # crash is that worker's death, seen by the pool as a closed
        # control channel and retried like a killed process.
        monkeypatch.delenv(ENV_VAR, raising=False)
        data = teragen(1500, seed=71)
        with Session(connect("inproc://3", timeout=60)) as session:
            reference = session.run(TeraSortSpec(data=data)).partitions
        monkeypatch.setenv(
            ENV_VAR, "stage.crash,rank=1,stage=shuffle,job_lt=1"
        )
        with Session(
            connect("inproc://3", timeout=60), max_retries=1,
            retry_backoff=0.05,
        ) as session:
            handle = session.submit(TeraSortSpec(data=data))
            run = handle.result(timeout=60)
        assert [p.to_bytes() for p in run.partitions] == [
            p.to_bytes() for p in reference
        ]
        first, second = handle.attempts
        assert isinstance(first.error, WorkerFailure)
        assert first.error.rank == 1
        assert second.error is None

    def test_no_thread_starts_per_job(self, monkeypatch):
        # The mesh, each worker's control reader and its heartbeater start
        # once, with the pool; sends over mailbox links need no sender.
        data = teragen(2000, seed=72)
        specs = [TeraSortSpec(data=data), CodedTeraSortSpec(data, 2)]
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        with Session(connect("inproc://4", timeout=60)) as session:
            session.run(specs[1])  # warm-up: brings the pool up
            monkeypatch.setattr(threading.Thread, "start", recording_start)
            for i in range(50):
                session.run(specs[i % 2])
        assert started == []

    def test_no_beat_trails_its_jobs_report_under_stress(self, monkeypatch):
        # More worker threads than cores, a 1 ms beat, and a switch
        # interval short enough to preempt between any two bytecodes:
        # beats and reports share each channel, and a beat of a job must
        # never reach the pool after that job's report.
        data = teragen(2000, seed=73)
        seen = []
        handle = WorkerPool._handle

        def recording(pool, g, msg):
            seen.append((g, msg[0], msg[2]))
            handle(pool, g, msg)

        monkeypatch.setattr(WorkerPool, "_handle", recording)
        cluster = connect("inproc://4", timeout=30)
        cluster.heartbeat_interval = 0.001
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Session(cluster) as session:
                runs = [
                    session.run(CodedTeraSortSpec(data, 2)) for _ in range(20)
                ]
        finally:
            sys.setswitchinterval(interval)
        first = [p.to_bytes() for p in runs[0].partitions]
        assert all([p.to_bytes() for p in r.partitions] == first for r in runs)
        reported = set()
        for g, kind, seq in seen:
            if kind == "hb":
                assert (g, seq) not in reported, (g, seq)
            else:
                reported.add((g, seq))
        assert len(reported) == 4 * 20
        assert any(kind == "hb" for _, kind, _ in seen)
