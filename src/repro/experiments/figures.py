"""Regenerating the paper's figures and §V-C trend observations.

* :func:`fig2_series` — Fig. 2's communication-load curves: the closed
  forms of Eq. (2) *and* loads measured by byte accounting on real
  functional runs of the engine (small scale, thread backend);
* :func:`sweep_r` — modelled speedup vs r at fixed K (the §V-C
  observation that speedup rises while shuffle dominates and falls once
  CodeGen does);
* :func:`sweep_k` — modelled speedup vs K at fixed r (speedup decreases
  with K);
* :func:`extended_grid` — the broader (K, r) grid behind the paper's
  "up to 4.11x" remark;
* :func:`schedule_ablation` — serial (paper) vs round-scheduled parallel
  (future-work) shuffles;
* :func:`multicast_penalty_ablation` — the effect of the MPI_Bcast
  logarithmic penalty on the achieved shuffle gain.

Everything but Fig. 2's measured points is the closed-form model of
:mod:`repro.sim.model`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.theory import (
    coded_comm_load,
    coded_shuffle_bytes,
    uncoded_comm_load,
    uncoded_shuffle_bytes,
)
from repro.experiments.configs import (
    EXTENDED_GRID,
    FIG2_K,
    PAPER_RECORDS,
    SWEEP_K_VALUES,
    SWEEP_R_VALUES,
)
from repro.kvpairs.records import RECORD_BYTES
from repro.kvpairs.teragen import teragen
from repro.runtime.inproc import ThreadCluster
from repro.session import CodedTeraSortSpec, TeraSortSpec, run
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import simulate_coded_terasort, simulate_terasort


@dataclass
class Fig2Point:
    """One r value on the Fig. 2 curves."""

    r: int
    uncoded_theory: float
    coded_theory: float
    #: loads measured from real runs (payload bytes / total data bytes);
    #: None where a functional run is skipped (r = K has no shuffle).
    uncoded_measured: Optional[float] = None
    coded_measured: Optional[float] = None


def fig2_series(
    num_nodes: int = FIG2_K,
    n_records: int = 20_000,
    measure: bool = True,
    max_measured_r: Optional[int] = None,
) -> List[Fig2Point]:
    """Fig. 2: communication load vs computation load at ``K`` nodes.

    Theory curves are exact; measured points run the real engine on the
    thread backend and count shuffle payload bytes (headers included, which
    is why measured sits a hair above theory).

    Args:
        num_nodes: the figure's K (paper uses 10).
        n_records: records for the functional runs.
        measure: also run the engine (slower); theory-only if False.
        max_measured_r: cap measured r (binomials explode past ~K/2).
    """
    data = teragen(n_records, seed=11) if measure else None
    points: List[Fig2Point] = []
    total_bytes = n_records * RECORD_BYTES
    for r in range(1, num_nodes + 1):
        point = Fig2Point(
            r=r,
            uncoded_theory=uncoded_comm_load(r, num_nodes),
            coded_theory=coded_comm_load(r, num_nodes),
        )
        cap = max_measured_r if max_measured_r is not None else num_nodes - 1
        if measure and r <= cap:
            coded = run(
                ThreadCluster(num_nodes, recv_timeout=120.0),
                CodedTeraSortSpec(data=data, redundancy=r, schedule="serial"),
            )
            point.coded_measured = (
                coded.traffic.load_bytes("shuffle") / total_bytes
            )
            if r == 1:
                base = run(
                    ThreadCluster(num_nodes, recv_timeout=120.0),
                    TeraSortSpec(data=data),
                )
                point.uncoded_measured = (
                    base.traffic.load_bytes("shuffle") / total_bytes
                )
        points.append(point)
    return points


@dataclass
class SweepPoint:
    """One configuration in a speedup sweep."""

    num_nodes: int
    redundancy: int
    terasort_total: float
    coded_total: float
    codegen_time: float
    shuffle_time: float

    @property
    def speedup(self) -> float:
        return self.terasort_total / self.coded_total


def sweep_r(
    num_nodes: int = 16,
    r_values: Tuple[int, ...] = SWEEP_R_VALUES,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> List[SweepPoint]:
    """Speedup vs r at fixed K (§V-C: rises, then CodeGen takes over)."""
    base = simulate_terasort(num_nodes, n_records=n_records, cost=cost)
    points = []
    for r in r_values:
        if not 1 <= r < num_nodes:
            continue
        rep = simulate_coded_terasort(
            num_nodes, r, n_records=n_records, cost=cost
        )
        points.append(
            SweepPoint(
                num_nodes=num_nodes,
                redundancy=r,
                terasort_total=base.total_time,
                coded_total=rep.total_time,
                codegen_time=rep.stage_times["codegen"],
                shuffle_time=rep.stage_times["shuffle"],
            )
        )
    return points


def sweep_k(
    redundancy: int = 3,
    k_values: Tuple[int, ...] = SWEEP_K_VALUES,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> List[SweepPoint]:
    """Speedup vs K at fixed r (§V-C: speedup decreases with K)."""
    points = []
    for k in k_values:
        if redundancy >= k:
            continue
        base = simulate_terasort(k, n_records=n_records, cost=cost)
        rep = simulate_coded_terasort(
            k, redundancy, n_records=n_records, cost=cost
        )
        points.append(
            SweepPoint(
                num_nodes=k,
                redundancy=redundancy,
                terasort_total=base.total_time,
                coded_total=rep.total_time,
                codegen_time=rep.stage_times["codegen"],
                shuffle_time=rep.stage_times["shuffle"],
            )
        )
    return points


def extended_grid(
    grid: Tuple[Tuple[int, int], ...] = EXTENDED_GRID,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> List[SweepPoint]:
    """The broader (K, r) grid; the paper reports up to 4.11x on it."""
    points = []
    base_cache: Dict[int, float] = {}
    for k, r in grid:
        if not 1 <= r < k:
            continue
        if k not in base_cache:
            base_cache[k] = simulate_terasort(
                k, n_records=n_records, cost=cost
            ).total_time
        rep = simulate_coded_terasort(k, r, n_records=n_records, cost=cost)
        points.append(
            SweepPoint(
                num_nodes=k,
                redundancy=r,
                terasort_total=base_cache[k],
                coded_total=rep.total_time,
                codegen_time=rep.stage_times["codegen"],
                shuffle_time=rep.stage_times["shuffle"],
            )
        )
    return points


@dataclass
class AblationResult:
    """Named variants -> total (and shuffle) times."""

    name: str
    rows: List[Tuple[str, float, float]] = field(default_factory=list)
    #: rows: (variant label, shuffle seconds, total seconds)


def schedule_ablation(
    num_nodes: int = 16,
    redundancy: int = 3,
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> AblationResult:
    """Serial (paper, Fig. 9) vs scheduled-parallel (§VI future work).

    Two variants: the paper's serial turns, and scheduled parallelism over
    conflict-free rounds (1-factorization for unicast, greedy group packing
    for multicast).  The rounds variant quantifies the §VI "asynchronous
    execution" headroom — and shows that under full parallelism the
    uncoded exchange (2 nodes per transfer) has more concurrency headroom
    than r+1-node multicasts, so coding's win is tied to the
    serialized-fabric regime the paper operates in.
    """
    out = AblationResult(
        name=f"Shuffle scheduling (K={num_nodes}, r={redundancy})"
    )
    variants = (
        ("serial", "serial (paper)"),
        ("rounds", "rounds (scheduled parallel)"),
    )
    for schedule, label in variants:
        ts = simulate_terasort(
            num_nodes, n_records=n_records, cost=cost, schedule=schedule
        )
        cts = simulate_coded_terasort(
            num_nodes, redundancy, n_records=n_records, cost=cost,
            schedule=schedule,
        )
        out.rows.append(
            (f"TeraSort, {label}", ts.stage_times["shuffle"], ts.total_time)
        )
        out.rows.append(
            (
                f"CodedTeraSort, {label}",
                cts.stage_times["shuffle"],
                cts.total_time,
            )
        )
    return out


def multicast_penalty_ablation(
    num_nodes: int = 16,
    redundancy: int = 3,
    n_records: int = PAPER_RECORDS,
) -> AblationResult:
    """Effect of MPI_Bcast's logarithmic penalty (§V-C observation 3).

    gamma = 0 is an ideal multicast (full r-fold shuffle gain); the
    calibrated gamma = 0.31 reproduces the measured sub-r gains.
    """
    out = AblationResult(
        name=f"Multicast penalty (K={num_nodes}, r={redundancy})"
    )
    for gamma, label in ((0.0, "ideal multicast (gamma=0)"), (0.31, "calibrated (gamma=0.31)")):
        cost = EC2CostModel.paper_calibrated().with_overrides(
            multicast_gamma=gamma
        )
        rep = simulate_coded_terasort(
            num_nodes, redundancy, n_records=n_records, cost=cost
        )
        out.rows.append((label, rep.stage_times["shuffle"], rep.total_time))
    return out
