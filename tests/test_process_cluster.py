"""Tests for the multiprocessing backend (real sockets, real processes)."""

from __future__ import annotations

import pytest

from repro.cluster import connect
from repro.runtime.program import NodeProgram


class _AllToAll(NodeProgram):
    STAGES = ["exchange"]

    def run(self):
        with self.stage("exchange"):
            received = {}
            for sender in range(self.size):
                if sender == self.rank:
                    for dst in range(self.size):
                        if dst != self.rank:
                            self.comm.send(
                                dst, 11, f"{self.rank}->{dst}".encode()
                            )
                else:
                    received[sender] = self.comm.recv(sender, 11)
            self.comm.barrier()
        return received


class _BcastRing(NodeProgram):
    STAGES = ["ring"]

    def run(self):
        with self.stage("ring"):
            seen = []
            for root in range(self.size):
                payload = f"from-{root}".encode() if self.rank == root else None
                seen.append(self.comm.bcast(
                    tuple(range(self.size)), root, 30 + root, payload
                ))
        return seen


class _IBcastRing(_BcastRing):
    """The same broadcasts through ``ibcast``, each waited before the next."""

    def run(self):
        with self.stage("ring"):
            seen = []
            for root in range(self.size):
                payload = f"from-{root}".encode() if self.rank == root else None
                seen.append(self.comm.ibcast(
                    tuple(range(self.size)), root, 30 + root, payload
                ).wait())
        return seen


class _Crasher(NodeProgram):
    STAGES = ["boom"]

    def run(self):
        with self.stage("boom"):
            if self.rank == 0:
                raise RuntimeError("worker zero dies")
            self.comm.barrier()


class TestProcessCluster:
    def test_all_to_all(self):
        res = connect("proc://4", timeout=60).run(_AllToAll)
        for rank, received in enumerate(res.results):
            assert set(received) == set(range(4)) - {rank}
            for sender, payload in received.items():
                assert payload == f"{sender}->{rank}".encode()

    @pytest.mark.parametrize(
        "program", [_BcastRing, _IBcastRing], ids=["chain", "tree"]
    )
    def test_bcast_modes(self, program):
        cluster = connect("proc://4", timeout=60)
        res = cluster.run(program)
        expected = [f"from-{r}".encode() for r in range(4)]
        assert all(r == expected for r in res.results)

    def test_traffic_merged_from_workers(self):
        res = connect("proc://3", timeout=60).run(_AllToAll)
        assert res.traffic.message_count() == 6  # 3 * 2 unicasts

    def test_stage_times_present(self):
        res = connect("proc://2", timeout=60).run(_AllToAll)
        assert res.stage_times.stages == ["exchange"]

    def test_worker_failure_reported(self):
        with pytest.raises(RuntimeError, match="worker 0"):
            connect("proc://2", timeout=30).run(_Crasher)

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            connect("proc://0")

    def test_rate_limited_run_is_slower(self):
        """Pacing at 2 MB/s makes a ~1.2 MB shuffle take measurable time."""
        import time

        class BigExchange(NodeProgram):
            STAGES = ["x"]

            def run(self):
                with self.stage("x"):
                    payload = b"z" * 600_000
                    if self.rank == 0:
                        self.comm.send(1, 5, payload)
                        self.comm.send(2, 5, payload)
                    elif self.rank in (1, 2):
                        self.comm.recv(0, 5)
                    self.comm.barrier()
                return None

        start = time.monotonic()
        connect("proc://3", rate_bytes_per_s=2e6, timeout=60).run(BigExchange)
        paced = time.monotonic() - start
        assert paced > 0.4  # 1.2 MB at 2 MB/s >= ~0.6 s minus burst
