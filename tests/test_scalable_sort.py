"""End-to-end tests for grouped CodedTeraSort (functional + modelled)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kvpairs.records import RecordBatch
from repro.kvpairs.teragen import teragen, teragen_skewed
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.inproc import ThreadCluster
import repro
from repro import CodedTeraSortSpec
from repro.scalable.theory import (
    grouped_codegen_groups,
    grouped_comm_load,
    grouped_storage_fraction,
    grouped_vs_full,
)
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import simulate_coded_terasort, simulate_terasort
from repro.sim.workload import CodedWorkload
from repro.utils.subsets import binomial


def cluster(k):
    return ThreadCluster(k, recv_timeout=60.0)


class TestFunctionalCorrectness:
    @pytest.mark.parametrize(
        "k,g,r",
        [(4, 2, 1), (6, 3, 2), (8, 4, 2), (8, 4, 3), (9, 3, 2), (6, 6, 2)],
    )
    def test_sorts_correctly(self, k, g, r):
        data = teragen(4000, seed=k * 10 + r)
        run = repro.run(
            cluster(k),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        validate_sorted_permutation(data, run.partitions)

    def test_skewed_keys(self):
        data = teragen_skewed(5000, seed=1)
        run = repro.run(
            cluster(6),
            CodedTeraSortSpec(data, redundancy=2, group_size=3),
        )
        validate_sorted_permutation(data, run.partitions)

    def test_empty_input(self):
        data = teragen(0)
        run = repro.run(
            cluster(4),
            CodedTeraSortSpec(data, redundancy=1, group_size=2),
        )
        assert sum(len(p) for p in run.partitions) == 0

    def test_single_group_equals_plain_coded_load(self):
        """G=1 degenerates to plain CodedTeraSort structure."""
        data = teragen(6000, seed=4)
        run = repro.run(
            cluster(5),
            CodedTeraSortSpec(data, redundancy=2, group_size=5),
        )
        validate_sorted_permutation(data, run.partitions)
        assert run.meta["node_groups"] == 1

    def test_invalid_params(self):
        data = teragen(100)
        with pytest.raises(ValueError):
            repro.run(
                cluster(6),
                CodedTeraSortSpec(data, redundancy=2, group_size=4),
            )  # 4 does not divide 6
        with pytest.raises(ValueError):
            repro.run(
                cluster(6),
                CodedTeraSortSpec(data, redundancy=3, group_size=3),
            )  # r = g

    def test_batched_subsets(self):
        data = teragen(4800, seed=5)
        run = repro.run(
            cluster(6),
            CodedTeraSortSpec(
                data,
                redundancy=2,
                group_size=3,
                batches_per_subset=2,
            ),
        )
        validate_sorted_permutation(data, run.partitions)
        assert run.meta["num_files"] == 6  # 2 * C(3,2)

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        num_groups=st.integers(1, 3),
        g=st.integers(2, 4),
        seed=st.integers(0, 50),
        n=st.integers(0, 1500),
        data_obj=st.data(),
    )
    def test_sort_property(self, num_groups, g, seed, n, data_obj):
        r = data_obj.draw(st.integers(1, g - 1))
        data = teragen(n, seed=seed)
        run = repro.run(
            cluster(num_groups * g),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        validate_sorted_permutation(data, run.partitions)


class TestLoadAccounting:
    def test_load_matches_grouped_theory(self):
        k, g, r, n = 8, 4, 2, 40_000
        data = teragen(n, seed=6)
        run = repro.run(
            cluster(k),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        payload = run.traffic.load_bytes("shuffle")
        ideal = grouped_comm_load(r, g) * n * 100
        assert payload >= ideal
        assert (payload - ideal) / ideal < 0.10

    def test_grouped_load_above_full_coded_equal_storage(self):
        """At equal per-node storage, grouping pays K/g more load.

        Grouped (g=4, r=2) stores r/g = 1/2 per node, as does plain coded
        r=4 on K=8; the loads are (1/2)(1-1/2) = 0.25 vs (1/4)(1-1/2) =
        0.125 — grouping trades exactly a K/g = 2x load factor for its
        CodeGen/concurrency wins.
        """
        n = 30_000
        data = teragen(n, seed=7)
        grouped = repro.run(
            cluster(8),
            CodedTeraSortSpec(data, redundancy=2, group_size=4),
        )
        full = repro.run(cluster(8), CodedTeraSortSpec(data, redundancy=4))
        ratio = grouped.traffic.load_bytes("shuffle") / full.traffic.load_bytes(
            "shuffle"
        )
        assert 1.7 < ratio < 2.3  # theory: exactly 2, headers smear it

    def test_multicast_count(self):
        data = teragen(3000, seed=8)
        run = repro.run(
            cluster(8),
            CodedTeraSortSpec(data, redundancy=2, group_size=4),
        )
        assert (
            run.traffic.message_count("shuffle")
            == run.meta["total_multicasts"]
        )


class TestTheory:
    def test_load_formula(self):
        assert grouped_comm_load(2, 4) == pytest.approx(0.25)
        assert grouped_comm_load(5, 10) == pytest.approx(0.1)
        with pytest.raises(ValueError):
            grouped_comm_load(4, 4)

    def test_codegen_groups(self):
        assert grouped_codegen_groups(20, 10, 5) == 2 * 210  # 2 * C(10,6)
        assert grouped_codegen_groups(8, 4, 2) == 2 * 4
        with pytest.raises(ValueError):
            grouped_codegen_groups(10, 4, 2)

    def test_storage_fraction(self):
        assert grouped_storage_fraction(5, 10) == pytest.approx(0.5)

    def test_comparison_equal_storage_default(self):
        cmp = grouped_vs_full(20, 10, 5)
        assert cmp.full_redundancy == 10  # equal storage r K / g
        assert cmp.storage_grouped == pytest.approx(cmp.storage_full)
        assert cmp.load_ratio >= 1.0
        assert cmp.codegen_ratio > 100
        for k, g, r in ((16, 4, 2), (16, 8, 4), (24, 6, 3)):
            cmp = grouped_vs_full(k, g, r)
            assert cmp.load_grouped >= cmp.load_full, (k, g, r)

    def test_comparison_explicit_r(self):
        cmp = grouped_vs_full(20, 10, 5, full_redundancy=5)
        assert cmp.load_grouped == pytest.approx(0.1)
        assert cmp.load_full == pytest.approx(0.15)
        assert cmp.codegen_full == 38760


class TestSimulator:
    def test_workload_validation(self):
        with pytest.raises(ValueError):
            CodedWorkload(10, 2, 1000, 4)  # 4 does not divide 10
        with pytest.raises(ValueError):
            CodedWorkload(8, 4, 1000, 4)  # r = g

    def test_workload_payload_matches_theory(self):
        work = CodedWorkload(20, 5, 120_000_000, 10)
        assert work.shuffle_payload_total == pytest.approx(
            grouped_comm_load(5, 10) * work.total_bytes
        )

    def test_sim_payload_equals_workload(self):
        rep = simulate_coded_terasort(8, 2, n_records=1_000_000, group_size=4)
        work = CodedWorkload(8, 2, 1_000_000, 4)
        assert rep.shuffle_payload_bytes == pytest.approx(
            work.shuffle_payload_total
        )

    def test_groups_shuffle_concurrently(self):
        """Doubling the group count must not slow the shuffle stage."""
        one = simulate_coded_terasort(8, 3, n_records=4_000_000, group_size=8)
        # Same total data, two concurrent groups, same g is impossible;
        # compare per-group payloads instead: 2 groups of 8 on 16 nodes
        # move half the data each, concurrently -> shuffle halves.
        two = simulate_coded_terasort(16, 3, n_records=4_000_000, group_size=8)
        assert two.stage_times["shuffle"] == pytest.approx(
            one.stage_times["shuffle"] / 2, rel=0.05
        )

    def test_beats_full_coded_at_k20_r5(self):
        """The §VI scalability claim, quantified at the paper's config."""
        grouped = simulate_coded_terasort(20, 5, group_size=10)
        full = simulate_coded_terasort(20, 5)
        base = simulate_terasort(20)
        assert grouped.total_time < full.total_time
        assert grouped.stage_times["codegen"] < 0.05 * (
            full.stage_times["codegen"]
        )
        # End-to-end speedup over TeraSort well above the paper's 2.2x.
        assert base.total_time / grouped.total_time > 4.0

    def test_pinned_against_the_deleted_grouped_simulator(self):
        rep = simulate_coded_terasort(20, 5, group_size=10)
        assert rep.total_time == 123.07586523953452
        assert (rep.meta["group_size"], rep.meta["node_groups"]) == (10, 2)
        assert rep.meta["num_groups"] == 210  # C(10, 6), per coding group
        assert rep.meta["total_multicasts"] == 2 * 210 * 6
        # ... and the ungrouped row it is compared with has not moved.
        full = simulate_coded_terasort(20, 5)
        assert full.total_time == 441.6119185989754

    @pytest.mark.parametrize("granularity", ["transfer", "turn"])
    @pytest.mark.parametrize("k,r", [(6, 2), (8, 3)])
    def test_group_size_k_is_the_ungrouped_simulation(
        self, k, r, granularity, replay_coded
    ):
        plain, whole = [
            simulate_coded_terasort(k, r, n_records=4_000_000, group_size=g)
            for g in (None, k)
        ]
        assert whole.row() == plain.row()  # exact, not approx
        assert whole.transfers == plain.transfers
        assert whole.meta == plain.meta
        # ... and the grouped row's shuffle is its event replay, played per
        # transfer or per sender turn.
        seconds, _ = replay_coded(
            k, r, 4_000_000, "serial", group_size=k,
            per_turn=granularity == "turn",
        )
        rel = 1e-12 if granularity == "turn" else 1e-9
        assert seconds == pytest.approx(whole.stage_times["shuffle"], rel=rel)

    @pytest.mark.parametrize("schedule", ["rounds"])
    def test_grouped_other_schedules(self, schedule):
        """The rounds schedule takes ``group_size``: same transfers, same
        payload, and conflict-free rounds are never slower than serial
        turns."""
        serial = simulate_coded_terasort(8, 2, n_records=1_000_000, group_size=4)
        other = simulate_coded_terasort(
            8, 2, n_records=1_000_000, group_size=4, schedule=schedule
        )
        assert other.shuffle_payload_bytes == pytest.approx(
            serial.shuffle_payload_bytes
        )
        assert other.transfers == serial.transfers == 24
        assert (
            other.stage_times["shuffle"]
            <= serial.stage_times["shuffle"] * (1 + 1e-9)
        )

    def test_fixed_storage_group_sweep_k24(self):
        """At per-node storage 1/2 (r = g/2) the concurrent group shuffles
        take the same time for every g, so CodeGen C(g, r+1), the
        multicast penalty and the Map all grow with g: the smallest group
        wins.  g = K is the wall: C(24, 13) group setups alone take hours."""
        base = simulate_terasort(24)
        reps = [
            simulate_coded_terasort(24, g // 2, group_size=g)
            for g in (2, 4, 6, 8, 12)
        ]
        codegen = [rep.stage_times["codegen"] for rep in reps]
        speedups = [base.total_time / rep.total_time for rep in reps]
        assert codegen == sorted(codegen)
        assert speedups == sorted(speedups, reverse=True)
        assert min(speedups) > 5  # far above the paper's 2.2x
        wall = EC2CostModel.paper_calibrated().codegen_time(binomial(24, 13))
        assert wall > 3600

    def test_map_cost_is_the_price(self):
        """Grouped Map does K/g times more hashing per node."""
        grouped = simulate_coded_terasort(20, 5, group_size=10)
        full = simulate_coded_terasort(20, 5)
        assert grouped.stage_times["map"] == pytest.approx(
            2 * full.stage_times["map"], rel=0.01
        )


class TestFunctionalSimCrossCheck:
    """The functional engine and the model must agree on bytes."""

    def test_measured_payload_matches_workload_model(self):
        k, g, r, n = 8, 4, 2, 40_000
        data = teragen(n, seed=11)
        run = repro.run(
            cluster(k),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        work = CodedWorkload(k, r, n, g)
        measured = run.traffic.load_bytes("shuffle")
        # Functional payload sits within header overhead of the model.
        assert measured >= work.shuffle_payload_total
        assert measured < work.shuffle_payload_total * 1.10

    def test_multicast_counts_agree(self):
        k, g, r = 9, 3, 2
        data = teragen(9000, seed=12)
        run = repro.run(
            cluster(k),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        work = CodedWorkload(k, r, 9000, g)
        assert run.traffic.message_count("shuffle") == work.total_multicasts
        sim = simulate_coded_terasort(k, r, n_records=9000, group_size=g)
        assert sim.transfers == work.total_multicasts
