"""Ablations on the multicast cost — the §V-C sub-r shuffle gain.

1. Simulated: the ``MPI_Bcast`` logarithmic penalty (gamma) is why the
   measured shuffle gain is below r; with an ideal multicast (gamma = 0)
   the gain is the full r.
2. Real: linear vs binomial-tree application-layer multicast on the
   multiprocess backend under rate limiting — the tree shortens the
   root's serialized sending time.
"""

from __future__ import annotations

import pytest

import repro
from repro import CodedTeraSortSpec
from repro.experiments.figures import multicast_penalty_ablation
from repro.experiments.report import render_ablation
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.api import MulticastMode
from repro.cluster import connect
from repro.sim.costmodel import EC2CostModel
from repro.sim.runner import simulate_coded_terasort, simulate_terasort


def bench_multicast_penalty_sim(benchmark, sink):
    result = benchmark.pedantic(
        lambda: multicast_penalty_ablation(num_nodes=16, redundancy=3),
        rounds=1,
        iterations=1,
    )
    ideal_shuffle = result.rows[0][1]
    calibrated_shuffle = result.rows[1][1]
    base = simulate_terasort(16, granularity="turn").stage_times["shuffle"]
    ideal_gain = base / ideal_shuffle
    calibrated_gain = base / calibrated_shuffle
    # An ideal multicast achieves the full *load* ratio r(K-1)/(K-r)
    # (more than r: redundant mapping already shrinks what must move —
    # §IV-D), boosted by the TCP overhead factor that only the uncoded
    # unicasts pay in the calibration.
    k, r = 16, 3
    overhead = 1.0 + EC2CostModel.paper_calibrated().unicast_overhead
    expected_ideal = r * (k - 1) / (k - r) * overhead
    assert ideal_gain == pytest.approx(expected_ideal, rel=0.03)
    # The calibrated log-penalty pulls the gain below r, as the paper
    # measures (945.72 / 412.22 ~ 2.3 < 3 in Table II).
    assert calibrated_gain < ideal_gain
    assert 2.0 < calibrated_gain < 3.0
    benchmark.extra_info["ideal_gain"] = round(ideal_gain, 2)
    benchmark.extra_info["calibrated_gain"] = round(calibrated_gain, 2)
    sink.add("ablation_multicast", render_ablation(result, markdown=True))


def bench_multicast_tree_vs_linear_real(benchmark, sink):
    """Real multiprocess runs: binomial tree vs linear multicast."""
    data = teragen(30_000, seed=5)
    k, r, rate = 4, 2, 4e6

    def run(mode):
        return repro.run(
            connect(
                f"proc://{k}",
                rate_bytes_per_s=rate, timeout=120, multicast_mode=mode,
            ),
            CodedTeraSortSpec(data, redundancy=r, schedule="serial"),
        )

    def both():
        return run(MulticastMode.LINEAR), run(MulticastMode.TREE)

    linear, tree = benchmark.pedantic(both, rounds=1, iterations=1)
    validate_sorted_permutation(data, linear.partitions)
    validate_sorted_permutation(data, tree.partitions)
    benchmark.extra_info["linear_shuffle_s"] = round(
        linear.stage_times["shuffle"], 3
    )
    benchmark.extra_info["tree_shuffle_s"] = round(
        tree.stage_times["shuffle"], 3
    )
    from repro.utils.tables import format_table

    sink.add(
        "ablation_multicast_real",
        "Linear vs binomial-tree application multicast (real, K=4, r=2)\n\n"
        + format_table(
            ["mode", "shuffle (s)", "total (s)"],
            [
                ["linear", linear.stage_times["shuffle"], linear.stage_times.total],
                ["tree", tree.stage_times["shuffle"], tree.stage_times.total],
            ],
            decimals=3,
            markdown=True,
        ),
    )
