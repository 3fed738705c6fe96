"""The paper's published results and the reproduction experiment grid.

Numbers transcribed from the paper (Tables I-III; all seconds, 12 GB input,
100 Mbps NICs, averages of 5 runs).  These are the reference values every
reproduction report compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: The paper's input: 12 GB = 120 M records of 100 bytes (§V-B).
PAPER_RECORDS = 120_000_000

#: Stage column orders as printed in the paper's tables.
UNCODED_COLUMNS = ["map", "pack", "shuffle", "unpack", "reduce"]
CODED_COLUMNS = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


@dataclass(frozen=True)
class PaperRow:
    """One published table row."""

    algorithm: str  # "terasort" | "coded_terasort"
    num_nodes: int
    redundancy: Optional[int]  # None for TeraSort
    stages: Dict[str, float]
    total: float
    speedup: Optional[float]  # vs the TeraSort row of the same table


# Table I == the TeraSort row of Table II (K = 16).
TABLE1_TERASORT = PaperRow(
    algorithm="terasort",
    num_nodes=16,
    redundancy=None,
    stages={
        "map": 1.86,
        "pack": 2.35,
        "shuffle": 945.72,
        "unpack": 0.85,
        "reduce": 10.47,
    },
    total=961.25,
    speedup=None,
)

TABLE2_ROWS: List[PaperRow] = [
    TABLE1_TERASORT,
    PaperRow(
        algorithm="coded_terasort",
        num_nodes=16,
        redundancy=3,
        stages={
            "codegen": 6.06,
            "map": 6.03,
            "encode": 5.79,
            "shuffle": 412.22,
            "decode": 2.41,
            "reduce": 13.05,
        },
        total=445.56,
        speedup=2.16,
    ),
    PaperRow(
        algorithm="coded_terasort",
        num_nodes=16,
        redundancy=5,
        stages={
            "codegen": 23.47,
            "map": 10.84,
            "encode": 8.10,
            "shuffle": 222.83,
            "decode": 3.69,
            "reduce": 14.40,
        },
        total=283.33,
        speedup=3.39,
    ),
]

TABLE3_ROWS: List[PaperRow] = [
    PaperRow(
        algorithm="terasort",
        num_nodes=20,
        redundancy=None,
        stages={
            "map": 1.47,
            "pack": 2.00,
            "shuffle": 960.07,
            "unpack": 0.62,
            "reduce": 8.29,
        },
        total=972.45,
        speedup=None,
    ),
    PaperRow(
        algorithm="coded_terasort",
        num_nodes=20,
        redundancy=3,
        stages={
            "codegen": 19.32,
            "map": 4.68,
            "encode": 4.89,
            "shuffle": 453.37,
            "decode": 1.87,
            "reduce": 9.73,
        },
        total=493.86,
        speedup=1.97,
    ),
    PaperRow(
        algorithm="coded_terasort",
        num_nodes=20,
        redundancy=5,
        stages={
            "codegen": 140.91,
            "map": 8.59,
            "encode": 7.51,
            "shuffle": 269.42,
            "decode": 3.70,
            "reduce": 10.97,
        },
        total=441.10,
        speedup=2.20,
    ),
]

#: The trend sweeps of §V-C: r at fixed K = 16, K at fixed r = 3.
SWEEP_R_VALUES: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
SWEEP_K_VALUES: Tuple[int, ...] = (8, 12, 16, 20, 24)

#: Extended grid behind the paper's "up to 4.11x" remark ([23]).
EXTENDED_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (k, r) for k in (12, 16, 20) for r in (2, 3, 4, 5, 6)
)

#: Fig. 2 uses K = 10 for its load curves.
FIG2_K = 10
