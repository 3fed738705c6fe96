"""Fig. 1: the Coded MapReduce example (K=3, Q=3, N=6).

Reproduces the three schemes' communication loads in intermediate-value
units: 12 (uncoded r=1), 6 (uncoded r=2), 3 (coded r=2) — measured from
real engine runs with the fixed-size-value probe job.
"""

from __future__ import annotations

import repro
from repro import MapReduceSpec
from repro.core.jobs import PROBE_UNIT, FixedSizeProbeJob
from repro.cluster import connect
from repro.utils.tables import format_table


def _loads():
    files = [f"file-{i}" for i in range(6)]
    out = {}
    for label, coded, r in (
        ("uncoded r=1 (Fig. 1a)", False, 1),
        ("uncoded r=2", False, 2),
        ("coded r=2 (Fig. 1b)", True, 2),
    ):
        run = repro.run(
            connect("inproc://3", recv_timeout=30),
            MapReduceSpec(
                FixedSizeProbeJob(),
                files,
                redundancy=r,
                scheme="coded" if coded else "uncoded",
                schedule="serial",
            ),
        )
        records = [x for x in run.traffic.records if x.stage == "shuffle"]
        if coded:
            header = 4 + 2 + 4 + 4 * (r + 1) + 12 * r + 8
            payload = sum(x.payload_bytes - header for x in records)
        else:
            payload = sum(x.payload_bytes for x in records)
        out[label] = payload / PROBE_UNIT
    return out


def bench_fig1_example_loads(benchmark, sink):
    loads = benchmark(_loads)
    assert loads["uncoded r=1 (Fig. 1a)"] == 12
    assert loads["uncoded r=2"] == 6
    assert loads["coded r=2 (Fig. 1b)"] == 3
    benchmark.extra_info["loads_in_iv_units"] = loads
    sink.add(
        "fig1_example",
        "Fig. 1 example — measured loads in intermediate-value units\n\n"
        + format_table(
            ["scheme", "paper load", "measured load"],
            [
                ["uncoded r=1", 12, loads["uncoded r=1 (Fig. 1a)"]],
                ["uncoded r=2", 6, loads["uncoded r=2"]],
                ["coded r=2", 3, loads["coded r=2 (Fig. 1b)"]],
            ],
            decimals=1,
            markdown=True,
        ),
    )
