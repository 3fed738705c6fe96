"""Table III: TeraSort vs CodedTeraSort (r = 3, 5), 12 GB, K = 20.

The K=20 points show the §V-C trends: the r=5 CodeGen stage balloons to
~141 s (38,760 groups) and the speedup flattens to 2.20x.  The r=5 shuffle
is 232,560 multicasts, priced as 20 serial sender turns of 11,628 each.
"""

from __future__ import annotations

import pytest

from repro.experiments.report import render_table
from repro.experiments.tables import table3


def bench_table3_full(benchmark, sink):
    result = benchmark.pedantic(
        table3, rounds=1, iterations=1
    )
    speedups = {label: m for label, _p, m in result.speedup_pairs()}
    assert speedups["CodedTeraSort r=3"] == pytest.approx(1.97, abs=0.30)
    assert speedups["CodedTeraSort r=5"] == pytest.approx(2.20, abs=0.30)

    # §V-C: at K=20 the r=5 CodeGen dominates its own coding gain enough
    # that r=5 barely beats r=3 (vs the clear win at K=16).
    rows = {row.label: row for row in result.rows}
    codegen_r5 = rows["CodedTeraSort r=5"].measured.stage_times["codegen"]
    assert codegen_r5 > 100.0  # paper: 140.91 s
    benchmark.extra_info["speedups"] = {
        k: round(v, 2) for k, v in speedups.items()
    }
    benchmark.extra_info["codegen_r5_s"] = round(codegen_r5, 1)
    sink.add("table3", render_table(result, markdown=True))
