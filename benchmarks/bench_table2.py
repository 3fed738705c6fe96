"""Table II: TeraSort vs CodedTeraSort (r = 3, 5), 12 GB, K = 16.

The paper's headline result: 2.16x and 3.39x end-to-end speedups.  Each
bench models one row at full scale (7,280 multicasts at r=3; 48,048 at
r=5, priced as 16 serial sender turns).
"""

from __future__ import annotations

import pytest

from repro.experiments.report import render_table
from repro.experiments.tables import table2
from repro.sim.model import simulate_coded_terasort, simulate_terasort

#: paper speedups for the assertion band.
PAPER_SPEEDUP = {3: 2.16, 5: 3.39}


def bench_table2_full(benchmark, sink):
    """All three rows + speedup comparison (the complete table)."""
    result = benchmark.pedantic(
        table2, rounds=1, iterations=1
    )
    for label, paper_s, measured_s in result.speedup_pairs():
        assert measured_s == pytest.approx(paper_s, abs=0.45), label
    benchmark.extra_info["speedups"] = {
        label: round(m, 2) for label, _p, m in result.speedup_pairs()
    }
    sink.add("table2", render_table(result, markdown=True))


@pytest.mark.parametrize("r", [3, 5])
def bench_table2_coded_row(benchmark, r):
    """One coded row in isolation."""
    report = benchmark.pedantic(
        lambda: simulate_coded_terasort(16, r), rounds=1, iterations=1
    )
    base = simulate_terasort(16)
    speedup = base.total_time / report.total_time
    assert speedup == pytest.approx(PAPER_SPEEDUP[r], abs=0.45)
    benchmark.extra_info["simulated_speedup"] = round(speedup, 2)
    benchmark.extra_info["paper_speedup"] = PAPER_SPEEDUP[r]
