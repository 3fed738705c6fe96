"""Public simulator entry points.

``simulate_terasort`` / ``simulate_coded_terasort`` reproduce one table row
each: they build the DES, run every node process to completion, and return a
:class:`SimReport` with the per-stage breakdown (max over nodes, like the
paper's tables), totals, and fabric telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.groups import (
    build_coding_plan,
    round_schedule,
    unicast_round_schedule,
)
from repro.sim.costmodel import EC2CostModel
from repro.sim.des import Barrier, Environment
from repro.sim.network import NetworkModel
from repro.sim.stages import (
    STAGE_ORDER_CODED,
    STAGE_ORDER_UNCODED,
    _StageTable,
    _check_granularity,
    coded_terasort_node,
    terasort_node,
)
from repro.sim.workload import CodedWorkload, UncodedWorkload
from repro.utils.timer import StageTimes

#: The paper's workload: 12 GB = 120 M KV pairs (§V-B).
PAPER_RECORDS = 120_000_000


@dataclass
class SimReport:
    """Outcome of one simulated run.

    Attributes:
        algorithm: "terasort" or "coded_terasort".
        stage_times: per-stage breakdown (max over nodes) + total.
        num_nodes / redundancy / n_records: the configuration.
        transfers: network transfers executed by the DES.
        shuffle_payload_bytes: total payload moved in the shuffle stage
            (multicast counted once — the paper's load convention).
        meta: extra diagnostics.
    """

    algorithm: str
    stage_times: StageTimes
    num_nodes: int
    redundancy: int
    n_records: int
    transfers: int
    shuffle_payload_bytes: float
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def total_time(self) -> float:
        return self.stage_times.total

    def row(self) -> List[float]:
        """Stage seconds in table order plus the total (Tables I-III rows)."""
        return self.stage_times.as_row()


def _resolve_schedule(
    schedule: Optional[str], serial: bool, granularity: str
) -> str:
    """Back-compat resolution of the shuffle schedule mode.

    ``schedule`` wins when given; otherwise the legacy ``serial`` flag maps
    to ``"serial"`` / ``"parallel"``.  Rounds mode needs per-transfer
    events (a round is a set of individually simulated transfers).
    """
    if schedule is None:
        schedule = "serial" if serial else "parallel"
    if schedule not in ("serial", "parallel", "rounds"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if schedule == "rounds" and granularity != "transfer":
        raise ValueError("schedule='rounds' requires granularity='transfer'")
    return schedule


def simulate_terasort(
    num_nodes: int,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
    serial: bool = True,
    granularity: str = "transfer",
    schedule: Optional[str] = None,
) -> SimReport:
    """Simulate TeraSort at the paper's scale (Table I / top rows of II-III).

    Args:
        num_nodes: ``K`` workers.
        n_records: dataset size in 100-byte records (default: 12 GB).
        cost: cost model (default: the paper calibration).
        serial: serial unicast schedule (paper) vs parallel ablation
            (legacy flag; ignored when ``schedule`` is given).
        granularity: ``"transfer"`` (event per unicast) or ``"turn"``.
        schedule: ``"serial"`` (paper, Fig. 9(a)), ``"parallel"`` (all
            senders contend for NICs), or ``"rounds"`` (conflict-free
            1-factorization rounds — the scheduled-parallel future work).

    Returns:
        The simulated :class:`SimReport`.
    """
    _check_granularity(granularity)
    schedule = _resolve_schedule(schedule, serial, granularity)
    cost = cost or EC2CostModel.paper_calibrated()
    work = UncodedWorkload(num_nodes=num_nodes, n_records=n_records)
    rounds = (
        unicast_round_schedule(num_nodes) if schedule == "rounds" else None
    )
    env = Environment()
    net = NetworkModel(env, num_nodes, cost, serial=schedule == "serial")
    barrier = Barrier(env, num_nodes)
    table = _StageTable(num_nodes)
    for rank in range(num_nodes):
        env.process(
            terasort_node(
                env, rank, work, cost, net, barrier, table, granularity,
                rounds=rounds,
            )
        )
    env.run()
    stage_times = StageTimes.merge_max(STAGE_ORDER_UNCODED, table.per_node)
    return SimReport(
        algorithm="terasort",
        stage_times=stage_times,
        num_nodes=num_nodes,
        redundancy=1,
        n_records=n_records,
        transfers=net.transfers,
        shuffle_payload_bytes=net.unicast_payload,
        meta={
            "serial": schedule == "serial",
            "schedule": schedule,
            "granularity": granularity,
            "fabric_busy_time": net.busy_time,
            "sim_end_time": env.now,
        },
    )


def simulate_coded_terasort(
    num_nodes: int,
    redundancy: int,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
    serial: bool = True,
    granularity: str = "transfer",
    schedule: Optional[str] = None,
    group_size: Optional[int] = None,
) -> SimReport:
    """Simulate CodedTeraSort (the coded rows of Tables II-III).

    Args:
        num_nodes: ``K`` workers.
        redundancy: ``r`` — each file mapped on ``r`` nodes.
        n_records / cost / serial / granularity / schedule: as
            :func:`simulate_terasort` (rounds mode packs node-disjoint
            multicast groups via :func:`repro.core.groups.round_schedule`).
        group_size: ``g`` — group-based coding (§VI): ``K/g`` coding
            groups each run the ``(g, r)`` plan on the whole dataset.
            Stages still synchronize cluster-wide; the serial schedule's
            turns are per coding group, and since coding groups share no
            NIC the fabric admits them together (it is the one serial
            token only when there is a single group).  ``None``: ``g = K``.

    Returns:
        The simulated :class:`SimReport`; ``meta`` includes the group count
        and per-packet payload for cross-checks against theory.
    """
    _check_granularity(granularity)
    schedule = _resolve_schedule(schedule, serial, granularity)
    cost = cost or EC2CostModel.paper_calibrated()
    work = CodedWorkload(
        num_nodes=num_nodes,
        redundancy=redundancy,
        n_records=n_records,
        group_size=group_size,
    )
    g = work.coding_nodes
    member_plan = build_coding_plan(g, redundancy)
    env = Environment()
    net = NetworkModel(
        env,
        num_nodes,
        cost,
        serial=schedule == "serial" and work.node_groups == 1,
    )
    barrier = Barrier(env, num_nodes)
    table = _StageTable(num_nodes)
    for first in range(0, num_nodes, g):
        plan = member_plan.on(range(first, first + g))
        rounds = round_schedule(plan) if schedule == "rounds" else None
        turn_barrier = Barrier(env, g) if schedule == "serial" else None
        for rank in range(first, first + g):
            env.process(
                coded_terasort_node(
                    env,
                    rank,
                    work,
                    cost,
                    net,
                    barrier,
                    table,
                    granularity,
                    plan,
                    rounds=rounds,
                    turn_barrier=turn_barrier,
                )
            )
    env.run()
    stage_times = StageTimes.merge_max(STAGE_ORDER_CODED, table.per_node)
    return SimReport(
        algorithm="coded_terasort",
        stage_times=stage_times,
        num_nodes=num_nodes,
        redundancy=redundancy,
        n_records=n_records,
        transfers=net.transfers,
        shuffle_payload_bytes=net.multicast_payload,
        meta={
            "serial": schedule == "serial",
            "schedule": schedule,
            "granularity": granularity,
            "group_size": g,
            "node_groups": work.node_groups,
            "num_groups": work.num_groups,
            "packet_bytes": work.packet_bytes,
            "total_multicasts": work.total_multicasts,
            "fabric_busy_time": net.busy_time,
            "sim_end_time": env.now,
        },
    )
