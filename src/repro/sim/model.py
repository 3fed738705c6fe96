"""The closed-form model of the paper's runs (Tables I-III).

The paper executes its stages synchronously (§VI) and its shuffles one
sender at a time (Fig. 9), so every node of a row sees the same clock:
each stage is one :class:`~repro.sim.costmodel.EC2CostModel` law applied to
the balanced volumes of :mod:`repro.sim.workload`, and the shuffle is the
schedule's turn or round count times one transfer time.  These are the
closed forms of Coded Distributed Computing (1604.07086, Thm. 1) and Coded
MapReduce (1512.01625), priced with the paper's EC2 calibration.

The stages are summed on one running clock -- each stage is ``end -
start``, the shuffle advancing one sender turn or round at a time -- so a
row's cells are the floats a stage-barrier event simulation of the same
schedule produces, to the last bit.

Two schedules:

* ``"serial"`` -- the paper's Fig. 9: ``K`` sender turns of ``K - 1``
  unicasts (uncoded), or ``g`` sender turns of ``C(g-1, r)`` multicasts
  per coding group (coded; coding groups share no node, so ``K / g`` of
  them shuffle side by side);
* ``"rounds"`` -- scheduled parallelism (§VI future work): the uncoded
  all-to-all as :func:`repro.core.groups.unicast_round_schedule` (a
  1-factorization of ``K_n`` played once per direction), the coded
  multicasts as :meth:`repro.core.groups.CodingPlan.parallel_rounds`, each
  round costing one transfer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.groups import build_coding_plan, unicast_round_schedule
from repro.sim.costmodel import EC2CostModel
from repro.sim.workload import CodedWorkload, UncodedWorkload
from repro.utils.timer import StageTimes

#: The paper's workload: 12 GB = 120 M KV pairs (§V-B).
PAPER_RECORDS = 120_000_000

STAGE_ORDER_UNCODED = ["map", "pack", "shuffle", "unpack", "reduce"]
STAGE_ORDER_CODED = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


@dataclass
class SimReport:
    """Outcome of one modelled run.

    Attributes:
        algorithm: "terasort" or "coded_terasort".
        stage_times: per-stage breakdown + total, in table order.
        num_nodes / redundancy / n_records: the configuration.
        transfers: unicasts (uncoded) or multicasts (coded) in the shuffle.
        shuffle_payload_bytes: total payload moved in the shuffle stage
            (multicast counted once -- the paper's load convention).
        meta: the schedule, plus the coding-group structure for coded rows.
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


def _check_schedule(schedule: str) -> None:
    if schedule not in ("serial", "rounds"):
        raise ValueError(
            f"schedule: must be 'serial' or 'rounds', got {schedule!r}"
        )


def _clock(stages: Sequence[Tuple[str, int, float]]) -> StageTimes:
    """Run ``(stage, steps, seconds per step)`` entries on one clock."""
    now = 0.0
    seconds: Dict[str, float] = {}
    for stage, steps, step in stages:
        start = now
        for _ in range(steps):
            now += step
        seconds[stage] = now - start
    return StageTimes(stages=[s for s, _, _ in stages], seconds=seconds)


def simulate_terasort(
    num_nodes: int,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
    schedule: str = "serial",
) -> SimReport:
    """Model TeraSort at the paper's scale (Table I / top rows of II-III).

    Args:
        num_nodes: ``K`` workers.
        n_records: dataset size in 100-byte records (default: 12 GB).
        cost: cost model (default: the paper calibration).
        schedule: ``"serial"`` (paper, Fig. 9(a)) or ``"rounds"``
            (conflict-free 1-factorization rounds).
    """
    _check_schedule(schedule)
    cost = cost or EC2CostModel.paper_calibrated()
    work = UncodedWorkload(num_nodes=num_nodes, n_records=n_records)
    k = num_nodes
    unicast = cost.unicast_time(work.unicast_bytes)
    if schedule == "serial":
        shuffle = (k, (k - 1) * unicast)
    else:
        rounds = len(unicast_round_schedule(k)) if k > 1 else 0
        shuffle = (rounds, unicast)
    stage_times = _clock([
        ("map", 1, cost.map_time(work.pairs_per_node, 1)),
        ("pack", 1, cost.pack_time(work.pack_bytes_per_node)),
        ("shuffle", *shuffle),
        ("unpack", 1, cost.unpack_time(work.unpack_bytes_per_node)),
        ("reduce", 1, cost.reduce_time(work.reduce_pairs_per_node, 1)),
    ])
    return SimReport(
        algorithm="terasort",
        stage_times=stage_times,
        num_nodes=num_nodes,
        redundancy=1,
        n_records=n_records,
        transfers=work.num_unicasts,
        shuffle_payload_bytes=work.num_unicasts * work.unicast_bytes,
        meta={"schedule": schedule},
    )


def simulate_coded_terasort(
    num_nodes: int,
    redundancy: int,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
    schedule: str = "serial",
    group_size: Optional[int] = None,
) -> SimReport:
    """Model CodedTeraSort (the coded rows of Tables II-III).

    Args:
        num_nodes: ``K`` workers.
        redundancy: ``r`` -- each file mapped on ``r`` nodes.
        n_records / cost / schedule: as :func:`simulate_terasort` (rounds
            packs node-disjoint multicast groups via
            :meth:`repro.core.groups.CodingPlan.parallel_rounds`).
        group_size: ``g`` -- group-based coding (§VI): ``K/g`` coding
            groups each run the ``(g, r)`` plan on the whole dataset and
            shuffle side by side.  ``None``: ``g = K``.

    Returns:
        The :class:`SimReport`; ``meta`` carries the group structure and
        per-packet payload for cross-checks against theory.
    """
    _check_schedule(schedule)
    cost = cost or EC2CostModel.paper_calibrated()
    work = CodedWorkload(
        num_nodes=num_nodes,
        redundancy=redundancy,
        n_records=n_records,
        group_size=group_size,
    )
    g, r = work.coding_nodes, redundancy
    multicast = cost.multicast_time(work.packet_bytes, r)
    if schedule == "serial":
        shuffle = (g, work.groups_per_node * multicast)
    else:
        shuffle = (build_coding_plan(g, r).num_rounds, multicast)
    stage_times = _clock([
        ("codegen", 1, cost.codegen_time(work.num_groups)),
        ("map", 1, cost.map_time(work.map_pairs_per_node, r)),
        ("encode", 1, cost.encode_time(
            work.encode_serialize_bytes_per_node,
            work.encode_xor_bytes_per_node,
        )),
        ("shuffle", *shuffle),
        ("decode", 1, cost.decode_time(
            work.decode_recovered_bytes_per_node,
            work.decode_packets_per_node,
        )),
        ("reduce", 1, cost.reduce_time(work.reduce_pairs_per_node, r)),
    ])
    return SimReport(
        algorithm="coded_terasort",
        stage_times=stage_times,
        num_nodes=num_nodes,
        redundancy=redundancy,
        n_records=n_records,
        transfers=work.total_multicasts,
        shuffle_payload_bytes=work.shuffle_payload_total,
        meta={
            "schedule": schedule,
            "group_size": g,
            "node_groups": work.node_groups,
            "num_groups": work.num_groups,
            "packet_bytes": work.packet_bytes,
            "total_multicasts": work.total_multicasts,
        },
    )
