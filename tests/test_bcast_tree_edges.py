"""TREE broadcast edge cases, shapes and per-link relay accounting.

Covers group sizes 1-8 with every member as root (payload equality,
exactly one physical receive per non-root); the two TREE shapes read off
the ``"relay"`` link records — the blocking ``bcast`` is a root-relative
chain, ``ibcast`` the binomial tree; the serial Fig. 9(b) walk on the
chain against LINEAR and the event loop; and byte-for-byte comparison of
TREE vs LINEAR multicast.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.coded_terasort import CodedTeraSortSpec
from repro.kvpairs.teragen import teragen
from repro.runtime.api import Comm, MulticastMode
from repro.runtime.inproc import ThreadCluster
from repro.runtime.program import NodeProgram
from repro.runtime.traffic import TrafficLog


class _OneBcast(NodeProgram):
    """A single broadcast from ``root`` within ``group``."""

    STAGES = ["talk"]

    def __init__(self, comm, group, root, payload):
        super().__init__(comm)
        self.group = group
        self.root = root
        self.payload = payload

    def run(self):
        with self.stage("talk"):
            if self.rank not in self.group:
                return None
            payload = self.payload if self.rank == self.root else None
            return self.comm.bcast(self.group, self.root, 3, payload)


class _OneIbcast(_OneBcast):
    """The same broadcast, non-blocking; relays are waited too."""

    def run(self):
        with self.stage("talk"):
            payload = self.payload if self.rank == self.root else None
            req = self.comm.ibcast(self.group, self.root, 3, payload)
            got = req.wait()
            forward = getattr(req, "forward", None)
            if forward is not None:
                forward.wait()
            return got


def _run_one_bcast(size, group, root, payload, mode, program=_OneBcast):
    def factory(comm):
        return program(comm, group, root, payload)

    cluster = ThreadCluster(
        size, multicast_mode=mode, recv_timeout=20, record_relays=True
    )
    return cluster.run(factory)


class TestTreeBcastEdgeCases:
    @pytest.mark.parametrize("size", list(range(1, 9)))
    def test_every_root_every_size(self, size):
        """Sizes 1-8, each member as root: payload equality + one receive
        per non-root (counted from the physical relay records)."""
        group = tuple(range(size))
        for root in group:
            payload = f"tree-{size}-{root}".encode()
            res = _run_one_bcast(
                size, group, root, payload, MulticastMode.TREE
            )
            assert all(r == payload for r in res.results)
            # Exactly one physical delivery per non-root member.
            receives = {}
            for rec in res.traffic.relay_records():
                assert rec.kind == "relay"
                assert len(rec.dsts) == 1
                dst = rec.dsts[0]
                receives[dst] = receives.get(dst, 0) + 1
            expected = {m: 1 for m in group if m != root}
            assert receives == expected

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_property_subgroups(self, data):
        """Random subgroups of a 9-node cluster, every member as root."""
        size = 9
        members = data.draw(
            st.sets(st.integers(0, size - 1), min_size=1, max_size=8)
        )
        group = tuple(sorted(members))
        root = data.draw(st.sampled_from(group))
        payload = bytes(data.draw(st.binary(min_size=0, max_size=64)))
        res = _run_one_bcast(size, group, root, payload, MulticastMode.TREE)
        for rank, got in enumerate(res.results):
            assert got == (payload if rank in group else None)
        relays = res.traffic.relay_records()
        # One hop per non-root, all hops inside the group, all reached.
        assert len(relays) == len(group) - 1
        for rec in relays:
            assert rec.src in group and rec.dsts[0] in group
        reached = {root} | {r.dsts[0] for r in relays}
        assert reached == set(group)


def _links(traffic):
    """The ``(src, dst)`` hops of the relay records, in any order."""
    return sorted((rec.src, rec.dsts[0]) for rec in traffic.relay_records())


class TestTreeShapes:
    @pytest.mark.parametrize("size", list(range(2, 9)))
    def test_blocking_bcast_is_a_root_relative_chain(self, size):
        """The root sends one copy; every other member receives once,
        from its predecessor counting up from the root."""
        group = tuple(range(size))
        for root in group:
            res = _run_one_bcast(
                size, group, root, b"chain", MulticastMode.TREE
            )
            links = _links(res.traffic)
            assert [src for src, _dst in links].count(root) == 1
            chain = [(root + i) % size for i in range(size)]
            assert links == sorted(zip(chain, chain[1:]))

    @pytest.mark.parametrize("size", list(range(2, 9)))
    def test_ibcast_stays_binomial(self, size):
        group = tuple(range(size))
        for root in group:
            res = _run_one_bcast(
                size, group, root, b"tree", MulticastMode.TREE, _OneIbcast
            )
            assert all(got == b"tree" for got in res.results)
            tree = [
                (m, child)
                for m in group
                for child in Comm._tree_links(group, root, m)[1]
            ]
            assert _links(res.traffic) == sorted(tree)


def test_serial_walk_on_the_chain_is_byte_identical():
    """The Fig. 9(b) walk (the one caller of the blocking ``bcast``) on
    the TREE chain gives LINEAR's and the event loop's partitions, over
    the same logical and physical traffic."""
    data = teragen(6000, seed=11)

    def run(mode, schedule):
        cluster = ThreadCluster(
            6, multicast_mode=mode, recv_timeout=60, record_relays=True
        )
        return repro.run(
            cluster, CodedTeraSortSpec(data, 3, schedule=schedule)
        )

    chain = run(MulticastMode.TREE, "serial")
    outputs = [p.to_bytes() for p in chain.partitions]
    for mode, schedule in (
        (MulticastMode.LINEAR, "serial"),
        (MulticastMode.TREE, "parallel"),
    ):
        other = run(mode, schedule)
        assert [p.to_bytes() for p in other.partitions] == outputs
        for count in ("message_count", "load_bytes", "wire_bytes",
                      "relay_bytes"):
            assert (getattr(other.traffic, count)()
                    == getattr(chain.traffic, count)())


class TestRelayAccounting:
    @pytest.mark.parametrize("size", [2, 3, 5, 8])
    def test_tree_and_linear_match_byte_for_byte(self, size):
        """Same total physical bytes; same logical record; different links."""
        group = tuple(range(size))
        payload = b"z" * 997
        logs = {}
        for mode in (MulticastMode.LINEAR, MulticastMode.TREE):
            res = _run_one_bcast(size, group, 0, payload, mode)
            logs[mode] = res.traffic
        lin, tree = logs[MulticastMode.LINEAR], logs[MulticastMode.TREE]
        # Logical accounting identical (one multicast, counted once).
        assert lin.load_bytes() == tree.load_bytes() == len(payload)
        assert lin.wire_bytes() == tree.wire_bytes() == len(payload) * (size - 1)
        # Physical totals identical: every non-root receives exactly once.
        assert lin.relay_bytes() == tree.relay_bytes() == lin.wire_bytes()
        # Per-link distributions differ once the tree has interior nodes.
        lin_links = lin.link_bytes()
        tree_links = tree.link_bytes()
        assert sum(lin_links.values()) == sum(tree_links.values())
        assert all(src == 0 for src, _dst in lin_links)
        # The blocking bcast under TREE is a chain: interior forwarding
        # nodes appear from g = 3 on (on the binomial tree, from g = 4).
        if size > 3:
            assert any(src != 0 for src, _dst in tree_links)

    def test_relays_excluded_from_logical_summaries(self):
        log = TrafficLog()
        log.record("shuffle", "multicast", 0, (1, 2, 3), 100)
        log.record("shuffle", "relay", 0, (1,), 100)
        log.record("shuffle", "relay", 1, (2,), 100)
        log.record("shuffle", "relay", 1, (3,), 100)
        assert log.load_bytes() == 100
        assert log.wire_bytes() == 300
        assert log.message_count() == 1
        assert log.by_stage() == {"shuffle": 100}
        assert log.by_sender() == {0: 100}
        assert log.relay_bytes() == 300
        assert log.link_bytes() == {(0, 1): 100, (1, 2): 100, (1, 3): 100}

    def test_relay_recording_off_by_default(self):
        group = (0, 1, 2, 3)
        cluster = ThreadCluster(
            4, multicast_mode=MulticastMode.TREE, recv_timeout=20
        )
        res = cluster.run(lambda comm: _OneBcast(comm, group, 0, b"quiet"))
        assert res.traffic.relay_records() == []
        assert res.traffic.message_count() == 1
