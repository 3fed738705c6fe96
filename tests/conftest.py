"""Shared fixtures and hypothesis profiles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.groups import build_coding_plan, unicast_round_schedule
from repro.kvpairs.teragen import teragen
from repro.sim.costmodel import EC2CostModel
from repro.sim.des import Environment
from repro.sim.network import NetworkModel
from repro.sim.workload import CodedWorkload, UncodedWorkload

# Profiles: 'ci' keeps the suite fast; heavier e2e property tests override
# max_examples locally where the default is too slow.
settings.register_profile(
    "ci",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def small_batch():
    """10k deterministic TeraGen records shared by read-only tests."""
    return teragen(10_000, seed=42)


@pytest.fixture(scope="session")
def tiny_batch():
    """500 records for cheap per-test copies."""
    return teragen(500, seed=7)


@pytest.fixture
def thread_cluster_factory():
    """Factory for thread clusters with a test-friendly recv timeout."""
    from repro.runtime.inproc import ThreadCluster

    def make(size: int, **kwargs):
        kwargs.setdefault("recv_timeout", 60.0)
        return ThreadCluster(size, **kwargs)

    return make


@pytest.fixture
def out_of_band():
    """Predicate: did this array arrive as an out-of-band buffer of a
    control frame, i.e. as a view of the frame's whole receive arena
    (head and pickle body included), not as an array of its own bytes."""

    def check(arr: np.ndarray) -> bool:
        base = arr
        while isinstance(base, np.ndarray):
            base = base.base
        arena = base.obj if isinstance(base, memoryview) else base
        return isinstance(arena, bytearray) and len(arena) > arr.nbytes

    return check


def _replay_uncoded(k, n_records, schedule, per_turn=False):
    """Play TeraSort's shuffle on the event fabric; return (seconds, fabric).

    ``serial``: ``K`` sender processes contend for the one fabric token,
    each sending its ``K - 1`` unicasts one event at a time (``per_turn``:
    as one held turn).  ``rounds``: the 1-factorization's sub-rounds, each
    one's unicasts concurrent on per-node NICs, joined before the next.
    """
    cost = EC2CostModel.paper_calibrated()
    nbytes = UncodedWorkload(num_nodes=k, n_records=n_records).unicast_bytes
    env = Environment()
    net = NetworkModel(env, k, cost, serial=schedule == "serial")

    def sender(src):
        dsts = [d for d in range(k) if d != src]
        if per_turn:
            turn = len(dsts) * cost.unicast_time(nbytes)
            yield from net.batched_hold([src, *dsts], turn, len(dsts) * nbytes)
        else:
            for dst in dsts:
                yield from net.unicast(src, dst, nbytes)

    def rounds():
        for rnd in unicast_round_schedule(k):
            procs = [env.process(net.unicast(a, b, nbytes)) for a, b in rnd]
            for proc in procs:
                yield proc

    if schedule == "serial":
        for src in range(k):
            env.process(sender(src))
    else:
        env.process(rounds())
    env.run()
    return env.now, net


def _replay_coded(k, r, n_records, schedule, group_size=None, per_turn=False):
    """Play CodedTeraSort's shuffle on the event fabric; return (seconds,
    fabrics).

    Coding group ``j`` owns nodes ``j*g .. j*g + g - 1``.  ``serial``: each
    coding group has its own fabric token, contended by its ``g`` senders
    (Fig. 9(b)); ``rounds``: every coding group plays
    :meth:`CodingPlan.parallel_rounds` at once on one shared NIC fabric.
    """
    cost = EC2CostModel.paper_calibrated()
    work = CodedWorkload(
        num_nodes=k, redundancy=r, n_records=n_records, group_size=group_size
    )
    g, nbytes = work.coding_nodes, work.packet_bytes
    plan = build_coding_plan(g, r)
    env = Environment()
    if schedule == "serial":
        nets = [NetworkModel(env, k, cost) for _ in range(work.node_groups)]
    else:
        nets = [NetworkModel(env, k, cost, serial=False)] * work.node_groups

    def multicast(j, gidx, local_sender):
        dsts = [j * g + m for m in plan.groups[gidx] if m != local_sender]
        return nets[j].multicast(j * g + local_sender, dsts, nbytes)

    def sender(j, s):
        if per_turn:
            gidxs = plan.groups_of_node[s]
            turn = len(gidxs) * cost.multicast_time(nbytes, r)
            nodes = range(j * g, (j + 1) * g)
            yield from nets[j].batched_hold(
                nodes, turn, len(gidxs) * nbytes, kind="multicast"
            )
        else:
            for gidx in plan.groups_of_node[s]:
                yield from multicast(j, gidx, s)

    def rounds():
        for rnd in plan.parallel_rounds():
            procs = [
                env.process(multicast(j, gidx, s))
                for j in range(work.node_groups)
                for gidx, s in rnd
            ]
            for proc in procs:
                yield proc

    if schedule == "serial":
        for j in range(work.node_groups):
            for s in range(g):
                env.process(sender(j, s))
    else:
        env.process(rounds())
    env.run()
    return env.now, list({id(net): net for net in nets}.values())


@pytest.fixture
def replay_uncoded():
    """TeraSort's modelled shuffle, played event by event (see
    :func:`_replay_uncoded`)."""
    return _replay_uncoded


@pytest.fixture
def replay_coded():
    """CodedTeraSort's modelled shuffle, played event by event (see
    :func:`_replay_coded`)."""
    return _replay_coded
