"""Table I: TeraSort breakdown, 12 GB, K=16, 100 Mbps.

Regenerates the paper's Table I from the closed-form model at full scale
(16 sender turns of 15 serial unicasts of 46.9 MB each).  The benchmark
time is the model's own wall time; the *modelled* seconds are pushed into
``results/table1.md`` next to the paper's numbers.
"""

from __future__ import annotations

from repro.experiments.report import render_table
from repro.experiments.tables import table1


def bench_table1_terasort_k16(benchmark, sink):
    result = benchmark.pedantic(
        table1, rounds=1, iterations=1
    )
    row = result.rows[0]
    # Sanity: reproduced total within 5% of the paper's 961.25 s.
    assert abs(row.total_ratio - 1.0) < 0.05
    # The paper's headline observation: shuffle is ~98.4% of the total.
    shuffle_share = row.measured.stage_times["shuffle"] / row.measured_total
    assert shuffle_share > 0.95
    benchmark.extra_info["simulated_total_s"] = round(row.measured_total, 2)
    benchmark.extra_info["paper_total_s"] = row.paper.total
    benchmark.extra_info["shuffle_share"] = round(shuffle_share, 4)
    sink.add("table1", render_table(result, markdown=True))
