"""Report rendering: console tables and the EXPERIMENTS.md generator.

Every reproduced artifact renders as a paper-vs-model or paper-vs-measured
table.  The markdown document produced by :func:`write_experiments_md` is
EXPERIMENTS.md (CI publishes it as a build artifact); run ``python -m repro
report -o EXPERIMENTS.md`` to regenerate it.
"""

from __future__ import annotations

import io
from typing import Sequence

from repro.experiments.figures import (
    Fig2Point,
    ResultTable,
    SweepPoint,
    extended_grid,
    fig1_loads,
    fig2_series,
    grouped_stages,
    multicast_penalty_ablation,
    schedule_ablation,
    sweep_k,
    sweep_r,
    wireless_protocols,
)
from repro.experiments.tables import TableResult, table1, table2, table3
from repro.stragglers.runner import render_straggler_table, straggler_comparison
from repro.utils.tables import format_table


def render_table(result: TableResult, markdown: bool = False) -> str:
    """Render one regenerated table with per-stage paper/model pairs."""
    out = io.StringIO()
    out.write(f"{result.name}\n")
    for row in result.rows:
        headers = ["row", "source"] + [s for s, _, _ in row.stage_pairs()] + [
            "total",
            "speedup",
        ]
        paper_speedup = row.paper.speedup
        measured_speedup = result.measured_speedup(row)
        rows = [
            [row.label, "paper"]
            + [p for _, p, _ in row.stage_pairs()]
            + [row.paper.total, paper_speedup],
            [row.label, "model"]
            + [m for _, _, m in row.stage_pairs()]
            + [row.measured_total, measured_speedup],
        ]
        out.write(format_table(headers, rows, decimals=2, markdown=markdown))
        out.write("\n")
    return out.getvalue()


def render_fig2(points: Sequence[Fig2Point], markdown: bool = False) -> str:
    headers = [
        "r",
        "uncoded L (theory)",
        "coded L (theory)",
        "uncoded L (measured)",
        "coded L (measured)",
    ]
    rows = [
        [p.r, p.uncoded_theory, p.coded_theory, p.uncoded_measured, p.coded_measured]
        for p in points
    ]
    return format_table(headers, rows, decimals=4, markdown=markdown)


def render_sweep(
    points: Sequence[SweepPoint], what: str, markdown: bool = False
) -> str:
    headers = [
        "K",
        "r",
        "TeraSort total (s)",
        "Coded total (s)",
        "CodeGen (s)",
        "Shuffle (s)",
        "speedup",
    ]
    rows = [
        [
            p.num_nodes,
            p.redundancy,
            p.terasort_total,
            p.coded_total,
            p.codegen_time,
            p.shuffle_time,
            p.speedup,
        ]
        for p in points
    ]
    return f"{what}\n" + format_table(headers, rows, decimals=2, markdown=markdown)


def render_rows(result: ResultTable, markdown: bool = False) -> str:
    return f"{result.name}\n" + format_table(
        result.headers, result.rows, decimals=result.decimals,
        markdown=markdown,
    )


def render_all(fast: bool = False, markdown: bool = False) -> str:
    """Run every experiment and render the full reproduction report.

    Args:
        fast: theory-only Fig. 2 points and shorter straggler / wireless
            runs (used by tests; the full run measures Fig. 2 on the
            engine and takes longer).
        markdown: pipe-table output.
    """
    out = io.StringIO()
    out.write("# Coded TeraSort — reproduction report\n\n")
    out.write(
        "Tables I-III, the trends and the ablations are the closed-form "
        "model at the paper's scale (12 GB, 100 Mbps, serial shuffles) on "
        "the calibrated EC2 cost model; loads are measured from real "
        "functional runs of the engine.\n\n"
    )
    for result in (table1(), table2(), table3()):
        out.write("## " + result.name + "\n\n")
        out.write(render_table(result, markdown=markdown))
        out.write("\n")

    out.write("## Fig. 1 — the Coded MapReduce example (K=3, Q=3, N=6)\n\n")
    out.write(render_rows(fig1_loads(), markdown=markdown))
    out.write("\n")

    out.write("## Fig. 2 — communication load vs computation load (K=10)\n\n")
    points = fig2_series(measure=not fast, max_measured_r=6)
    out.write(render_fig2(points, markdown=markdown))
    out.write("\n")

    out.write("## §V-C trends\n\n")
    for points, what in (
        (sweep_r(), "Speedup vs r (K=16)"),
        (sweep_r(num_nodes=20), "Speedup vs r (K=20): rises, then CodeGen "
         "takes over"),
        (sweep_k(), "Speedup vs K (r=3)"),
    ):
        out.write(render_sweep(points, what, markdown=markdown))
        out.write("\n")

    out.write("## Extended (K, r) grid — the paper's \"up to 4.11x\"\n\n")
    out.write(render_sweep(extended_grid(), "Speedup over K x r",
                           markdown=markdown))
    out.write("\n")

    out.write("## Ablations\n\n")
    for result in (schedule_ablation(), multicast_penalty_ablation()):
        out.write(render_rows(result, markdown=markdown))
        out.write("\n")

    out.write("## Extension: straggler coding (intro, ref [11])\n\n")
    out.write(
        "MDS-coded distributed gradient descent vs uncoded and "
        "2-replication; [11] reports a 31.3%-35.7% run-time saving.\n\n"
    )
    iters = 20 if fast else 80
    out.write(
        render_straggler_table(
            straggler_comparison(iterations=iters, seed=3),
            markdown=markdown,
        )
    )
    out.write("\n")

    out.write("## Extension: scalable (grouped) coding (§VI, ref [24])\n\n")
    out.write(render_rows(grouped_stages(), markdown=markdown))
    out.write("\n")

    out.write("## Extension: wireless shuffling (§VI, refs [24][25])\n\n")
    out.write(render_rows(
        wireless_protocols(n_records=6_000 if fast else 24_000),
        markdown=markdown,
    ))
    out.write("\n")
    return out.getvalue()


def write_experiments_md(
    path: str = "EXPERIMENTS.md", fast: bool = False
) -> str:
    """Generate the EXPERIMENTS.md document; returns its content."""
    content = _experiments_preamble() + render_all(fast=fast, markdown=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)
    return content


def _experiments_preamble() -> str:
    return (
        "<!-- generated by `python -m repro report`; edit the generator, "
        "not this file -->\n\n"
        "This document records paper-vs-reproduction results for every "
        "table and figure in *Coded TeraSort* (Li et al., 2017).  The "
        "table rows, trends and ablations are a model, not a measurement: "
        "closed-form stage sums at full 12 GB scale, priced by the cost "
        "model calibrated against Tables I-III (`EC2CostModel`'s field "
        "docstrings in `repro/sim/costmodel.py`).  Communication loads "
        "are measured from byte-accounted functional runs of the real "
        "engine.  Expected fidelity: stage "
        "times within ~10% per cell, speedups within ~0.25x, and all "
        "qualitative trends (who wins, where CodeGen overtakes, load "
        "curves) exact.\n\n"
    )
