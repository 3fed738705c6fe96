"""Tests for the Comm interface: validation, bcast algorithms, traffic."""

from __future__ import annotations

import pytest

from repro.cluster import connect
from repro.runtime.api import CommError, RESERVED_TAG_BASE
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


class _IEchoProgram(_EchoProgram):
    """The same broadcasts through ``ibcast``, all posted, then waited."""

    def run(self):
        with self.stage("talk"):
            if self.rank not in self.group:
                return {}
            reqs = {
                root: self.comm.ibcast(
                    self.group, root, tag=root,
                    payload=(
                        f"msg-{root}".encode() if self.rank == root else None
                    ),
                )
                for root in self.group
            }
            return {root: req.wait() for root, req in reqs.items()}


#: The two live broadcast shapes: ``bcast`` forwards along the
#: root-relative chain, ``ibcast`` along the binomial tree.
_SHAPES = pytest.mark.parametrize(
    "program", [_EchoProgram, _IEchoProgram], ids=["chain", "tree"]
)


class TestBcastModes:
    @_SHAPES
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_all_members_receive(self, program, size):
        res = connect(f"inproc://{size}", timeout=20).run(program)
        for got in res.results:
            assert got == {r: f"msg-{r}".encode() for r in range(size)}

    @_SHAPES
    def test_subgroup_bcast(self, program):
        group = (0, 2, 3)

        def factory(comm):
            return program(comm, group=group)

        cluster = connect("inproc://5", timeout=20)
        res = cluster.run(factory)
        for rank, got in enumerate(res.results):
            if rank in group:
                assert got == {r: f"msg-{r}".encode() for r in group}
            else:
                assert got == {}

    def test_modes_produce_identical_traffic_load(self):
        """The chain (``bcast``) and the tree (``ibcast``) log the same
        traffic: each root's payload once, and once per receiver."""
        size = 6
        payloads = sum(len(f"msg-{r}".encode()) for r in range(size))
        for program in (_EchoProgram, _IEchoProgram):
            res = connect(f"inproc://{size}", timeout=20).run(program)
            for got in res.results:
                assert got == {r: f"msg-{r}".encode() for r in range(size)}
            assert res.traffic.message_count() == size
            assert res.traffic.load_bytes() == payloads
            assert res.traffic.wire_bytes() == payloads * (size - 1)


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
        res = connect("inproc://2", timeout=10).run(_ValidationProgram)
        for errs in res.results:
            assert all(e == "ok" for e in errs)


class _SingletonBcast(NodeProgram):
    STAGES = ["s"]

    def run(self):
        with self.stage("s"):
            return self.comm.bcast((self.rank,), self.rank, 1, b"self")


class TestEdgeGroups:
    def test_singleton_group_returns_payload(self):
        res = connect("inproc://3", timeout=10).run(_SingletonBcast)
        assert all(r == b"self" for r in res.results)

    def test_singleton_group_logs_nothing(self):
        res = connect("inproc://3", timeout=10).run(_SingletonBcast)
        assert res.traffic.message_count() == 0
