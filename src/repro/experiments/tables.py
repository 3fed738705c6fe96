"""Regenerating Tables I, II, and III.

Each function models the corresponding table's rows at the paper's full
scale (12 GB, 100 Mbps; :mod:`repro.sim.model`) and pairs every modelled
cell with the published value.  The returned :class:`TableResult` renders via
:mod:`repro.experiments.report`; the tier-1 tests pin its rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.configs import (
    CODED_COLUMNS,
    PAPER_RECORDS,
    TABLE1_TERASORT,
    TABLE2_ROWS,
    TABLE3_ROWS,
    UNCODED_COLUMNS,
    PaperRow,
)
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import SimReport, simulate_coded_terasort, simulate_terasort


@dataclass
class RowComparison:
    """One table row: the modelled breakdown next to the paper's."""

    paper: PaperRow
    measured: SimReport

    @property
    def label(self) -> str:
        if self.paper.algorithm == "terasort":
            return "TeraSort"
        return f"CodedTeraSort r={self.paper.redundancy}"

    @property
    def measured_total(self) -> float:
        return self.measured.total_time

    @property
    def total_ratio(self) -> float:
        """measured / paper total time (1.0 = exact)."""
        return self.measured_total / self.paper.total

    def stage_pairs(self) -> List[tuple]:
        """(stage, paper seconds, measured seconds) in column order."""
        cols = (
            UNCODED_COLUMNS
            if self.paper.algorithm == "terasort"
            else CODED_COLUMNS
        )
        return [
            (s, self.paper.stages[s], self.measured.stage_times.seconds.get(s, 0.0))
            for s in cols
        ]


@dataclass
class TableResult:
    """A regenerated table: rows plus derived speedups."""

    name: str
    num_nodes: int
    rows: List[RowComparison] = field(default_factory=list)

    @property
    def terasort_row(self) -> RowComparison:
        for row in self.rows:
            if row.paper.algorithm == "terasort":
                return row
        raise LookupError("table has no TeraSort baseline row")

    def measured_speedup(self, row: RowComparison) -> Optional[float]:
        if row.paper.algorithm == "terasort":
            return None
        return self.terasort_row.measured_total / row.measured_total

    def speedup_pairs(self) -> List[tuple]:
        """(label, paper speedup, measured speedup) for coded rows."""
        out = []
        for row in self.rows:
            if row.paper.algorithm == "terasort":
                continue
            out.append((row.label, row.paper.speedup, self.measured_speedup(row)))
        return out


def _simulate_row(
    paper: PaperRow, n_records: int, cost: Optional[EC2CostModel]
) -> RowComparison:
    if paper.algorithm == "terasort":
        report = simulate_terasort(
            paper.num_nodes, n_records=n_records, cost=cost
        )
    else:
        assert paper.redundancy is not None
        report = simulate_coded_terasort(
            paper.num_nodes, paper.redundancy, n_records=n_records, cost=cost
        )
    return RowComparison(paper=paper, measured=report)


def table1(
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> TableResult:
    """Table I: the TeraSort breakdown at K=16 (98.4% time in shuffle)."""
    return TableResult(
        name="Table I — TeraSort, 12 GB, K=16, 100 Mbps",
        num_nodes=16,
        rows=[_simulate_row(TABLE1_TERASORT, n_records, cost)],
    )


def table2(
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> TableResult:
    """Table II: TeraSort vs CodedTeraSort (r=3, 5) at K=16."""
    return TableResult(
        name="Table II — 12 GB, K=16 workers, 100 Mbps",
        num_nodes=16,
        rows=[_simulate_row(row, n_records, cost) for row in TABLE2_ROWS],
    )


def table3(
    n_records: int = PAPER_RECORDS,
    cost: Optional[EC2CostModel] = None,
) -> TableResult:
    """Table III: TeraSort vs CodedTeraSort (r=3, 5) at K=20."""
    return TableResult(
        name="Table III — 12 GB, K=20 workers, 100 Mbps",
        num_nodes=20,
        rows=[_simulate_row(row, n_records, cost) for row in TABLE3_ROWS],
    )
