"""Simulation stage programs for TeraSort and CodedTeraSort.

Each node is a DES process stepping through its algorithm's stages with a
barrier between stages (the paper executes stages synchronously, §VI).
Compute stages are cost-model timeouts; the shuffle executes the exact
serial schedules of Fig. 9 transfer by transfer on the network model.

Event granularity:

* ``"transfer"`` (default) — every unicast/multicast is its own
  acquire/hold/release event sequence, up to ``C(K, r+1) (r+1)`` events
  (232,560 at K=20, r=5 — the real Table III scale);
* ``"turn"`` — one fabric hold per sender turn with the summed duration;
  byte-identical totals, used by the large parameter sweeps.

Per-node stage durations land in a shared table merged with max semantics,
matching how the paper's tables report the breakdowns.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.groups import CodingPlan
from repro.sim.costmodel import EC2CostModel
from repro.sim.des import Barrier, Environment, SimGenerator
from repro.sim.network import NetworkModel
from repro.sim.workload import CodedWorkload, UncodedWorkload

Granularity = str  # "transfer" | "turn"

#: Conflict-free transfer rounds (see repro.core.groups round schedulers).
Rounds = List[List[Tuple[int, int]]]

STAGE_ORDER_UNCODED = ["map", "pack", "shuffle", "unpack", "reduce"]
STAGE_ORDER_CODED = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


def _check_granularity(granularity: str) -> None:
    if granularity not in ("transfer", "turn"):
        raise ValueError(f"unknown event granularity {granularity!r}")


class _StageTable:
    """Per-node stage duration collection (written by node processes)."""

    def __init__(self, num_nodes: int) -> None:
        self.per_node: List[Dict[str, float]] = [dict() for _ in range(num_nodes)]

    def record(self, rank: int, stage: str, seconds: float) -> None:
        self.per_node[rank][stage] = self.per_node[rank].get(stage, 0.0) + seconds


def terasort_node(
    env: Environment,
    rank: int,
    work: UncodedWorkload,
    cost: EC2CostModel,
    net: NetworkModel,
    barrier: Barrier,
    table: _StageTable,
    granularity: Granularity,
    rounds: Optional[Rounds] = None,
) -> SimGenerator:
    """One TeraSort node: map, pack, unicast shuffle, unpack, reduce.

    With ``rounds`` given, the shuffle follows the conflict-free round
    schedule (scheduled-parallel mode) instead of the Fig. 9(a) turns.
    """
    k = work.num_nodes

    # Map
    start = env.now
    yield env.timeout(cost.map_time(work.pairs_per_node, 1))
    table.record(rank, "map", env.now - start)
    yield barrier.wait()

    # Pack
    start = env.now
    yield env.timeout(cost.pack_time(work.pack_bytes_per_node))
    table.record(rank, "pack", env.now - start)
    yield barrier.wait()

    # Shuffle — Fig. 9(a): sender turns in rank order.  In the paper's
    # serial mode a per-turn barrier hands the wire from sender to sender;
    # in the parallel ablation (asynchronous execution, §VI) all senders
    # transmit concurrently, contending only for NICs; in rounds mode each
    # conflict-free round's transfers run concurrently with a barrier
    # between rounds (the 1-factorization exchange).
    start = env.now
    if rounds is not None:
        for rnd in rounds:
            for src, dst in rnd:
                if src == rank:
                    yield from net.unicast(src, dst, work.unicast_bytes)
            yield barrier.wait()
    else:
        for sender in range(k):
            if sender == rank:
                if granularity == "turn":
                    duration = (k - 1) * cost.unicast_time(work.unicast_bytes)
                    yield from net.batched_hold(
                        [rank],
                        duration,
                        payload=(k - 1) * work.unicast_bytes,
                        kind="unicast",
                    )
                else:
                    for dst in range(k):
                        if dst != rank:
                            yield from net.unicast(rank, dst, work.unicast_bytes)
            if net.serial:
                yield barrier.wait()  # next sender starts after this turn
    table.record(rank, "shuffle", env.now - start)
    yield barrier.wait()

    # Unpack
    start = env.now
    yield env.timeout(cost.unpack_time(work.unpack_bytes_per_node))
    table.record(rank, "unpack", env.now - start)
    yield barrier.wait()

    # Reduce
    start = env.now
    yield env.timeout(cost.reduce_time(work.reduce_pairs_per_node, 1))
    table.record(rank, "reduce", env.now - start)
    yield barrier.wait()


def coded_terasort_node(
    env: Environment,
    rank: int,
    work: CodedWorkload,
    cost: EC2CostModel,
    net: NetworkModel,
    barrier: Barrier,
    table: _StageTable,
    granularity: Granularity,
    plan: CodingPlan,
    rounds: Optional[Rounds] = None,
    turn_barrier: Optional[Barrier] = None,
) -> SimGenerator:
    """One CodedTeraSort node: the six-stage pipeline of §V-A.

    ``plan`` is the coding plan of this node's coding group, in cluster
    ranks (the whole cluster's when ungrouped); ``barrier`` synchronizes
    stages cluster-wide, ``turn_barrier`` — the serial schedule's — hands
    the wire from sender to sender among the plan's members only, so
    node-disjoint coding groups shuffle concurrently (§VI group-based
    coding).  With ``rounds`` given (items are ``(group_idx, sender)``),
    the shuffle follows the conflict-free round schedule instead of the
    Fig. 9(b) turns.
    """
    r = work.redundancy

    # CodeGen — every node builds the plan (cost ∝ number of groups).
    start = env.now
    yield env.timeout(cost.codegen_time(work.num_groups))
    table.record(rank, "codegen", env.now - start)
    yield barrier.wait()

    # Map
    start = env.now
    yield env.timeout(cost.map_time(work.map_pairs_per_node, r))
    table.record(rank, "map", env.now - start)
    yield barrier.wait()

    # Encode
    start = env.now
    yield env.timeout(
        cost.encode_time(
            work.encode_serialize_bytes_per_node,
            work.encode_xor_bytes_per_node,
        )
    )
    table.record(rank, "encode", env.now - start)
    yield barrier.wait()

    # Multicast shuffle — Fig. 9(b): sender turns in rank order; within a
    # turn the sender multicasts one packet per group it belongs to; the
    # parallel ablation drops the turn barrier.  In rounds mode,
    # node-disjoint multicasts of a round run concurrently with a barrier
    # between rounds.
    start = env.now
    my_groups = [plan.groups[gidx] for gidx in plan.groups_of_node[rank]]
    if rounds is not None:
        for rnd in rounds:
            for gidx, sender in rnd:
                if sender == rank:
                    dsts = [m for m in plan.groups[gidx] if m != rank]
                    yield from net.multicast(rank, dsts, work.packet_bytes)
            yield barrier.wait()
    else:
        for sender in plan.groups_of_node:  # the members, ascending
            if sender == rank:
                if granularity == "turn":
                    duration = len(my_groups) * cost.multicast_time(
                        work.packet_bytes, r
                    )
                    yield from net.batched_hold(
                        [rank],
                        duration,
                        payload=len(my_groups) * work.packet_bytes,
                        kind="multicast",
                    )
                else:
                    for group in my_groups:
                        dsts = [m for m in group if m != rank]
                        yield from net.multicast(rank, dsts, work.packet_bytes)
            if turn_barrier is not None:
                yield turn_barrier.wait()
    table.record(rank, "shuffle", env.now - start)
    yield barrier.wait()

    # Decode
    start = env.now
    yield env.timeout(
        cost.decode_time(
            work.decode_recovered_bytes_per_node,
            work.decode_packets_per_node,
        )
    )
    table.record(rank, "decode", env.now - start)
    yield barrier.wait()

    # Reduce
    start = env.now
    yield env.timeout(cost.reduce_time(work.reduce_pairs_per_node, r))
    table.record(rank, "reduce", env.now - start)
    yield barrier.wait()
