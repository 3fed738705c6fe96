"""Tests for the Comm interface: validation, bcast algorithms, traffic."""

from __future__ import annotations

import pytest

from repro.runtime.api import CommError, MulticastMode, RESERVED_TAG_BASE
from repro.runtime.inproc import ThreadCluster
from repro.runtime.program import NodeProgram


class _EchoProgram(NodeProgram):
    """Every root broadcasts; everyone collects all payloads."""

    STAGES = ["talk"]

    def __init__(self, comm, group=None):
        super().__init__(comm)
        self.group = group or tuple(range(comm.size))

    def run(self):
        out = {}
        with self.stage("talk"):
            for root in self.group:
                if self.rank in self.group:
                    payload = (
                        f"msg-{root}".encode() if self.rank == root else None
                    )
                    out[root] = self.comm.bcast(
                        self.group, root, tag=root, payload=payload
                    )
        return out


class TestBcastModes:
    @pytest.mark.parametrize("mode", [MulticastMode.LINEAR, MulticastMode.TREE])
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_all_members_receive(self, mode, size):
        res = ThreadCluster(size, multicast_mode=mode, recv_timeout=20).run(
            _EchoProgram
        )
        for got in res.results:
            assert got == {r: f"msg-{r}".encode() for r in range(size)}

    @pytest.mark.parametrize("mode", [MulticastMode.LINEAR, MulticastMode.TREE])
    def test_subgroup_bcast(self, mode):
        group = (0, 2, 3)

        def factory(comm):
            return _EchoProgram(comm, group=group)

        res = ThreadCluster(5, multicast_mode=mode, recv_timeout=20).run(factory)
        for rank, got in enumerate(res.results):
            if rank in group:
                assert got == {r: f"msg-{r}".encode() for r in group}
            else:
                assert got == {}

    def test_modes_produce_identical_traffic_load(self):
        loads = {}
        for mode in (MulticastMode.LINEAR, MulticastMode.TREE):
            res = ThreadCluster(6, multicast_mode=mode, recv_timeout=20).run(
                _EchoProgram
            )
            loads[mode] = res.traffic.load_bytes()
        assert loads[MulticastMode.LINEAR] == loads[MulticastMode.TREE]


class _ValidationProgram(NodeProgram):
    STAGES = ["check"]

    def run(self):
        errors = []
        with self.stage("check"):
            for fn, kwargs in [
                (self.comm.send, dict(dst=self.rank, tag=1, payload=b"")),
                (self.comm.send, dict(dst=99, tag=1, payload=b"")),
                (self.comm.send, dict(dst=(self.rank + 1) % self.size,
                                      tag=RESERVED_TAG_BASE, payload=b"")),
                (self.comm.recv, dict(src=self.rank, tag=1)),
            ]:
                try:
                    fn(**kwargs)
                    errors.append("no error")
                except CommError:
                    errors.append("ok")
            # bcast misuse
            try:
                self.comm.bcast((0, 0, 1), 0, 1, b"x")
                errors.append("no error")
            except CommError:
                errors.append("ok")
            try:
                self.comm.bcast((0, 1), 2, 1, b"x")
                errors.append("no error")
            except CommError:
                errors.append("ok")
            if self.rank == 0:
                try:
                    self.comm.bcast((0, 1), 0, 1, None)  # root w/o payload
                    errors.append("no error")
                except CommError:
                    errors.append("ok")
        return errors


class TestValidation:
    def test_all_misuses_raise_commerror(self):
        res = ThreadCluster(2, recv_timeout=10).run(_ValidationProgram)
        for errs in res.results:
            assert all(e == "ok" for e in errs)


class _SingletonBcast(NodeProgram):
    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            return self.comm.bcast((self.rank,), self.rank, 1, b"self")


class TestEdgeGroups:
    def test_singleton_group_returns_payload(self):
        res = ThreadCluster(3, recv_timeout=10).run(_SingletonBcast)
        assert all(r == b"self" for r in res.results)

    def test_singleton_group_logs_nothing(self):
        res = ThreadCluster(3, recv_timeout=10).run(_SingletonBcast)
        assert res.traffic.message_count() == 0
