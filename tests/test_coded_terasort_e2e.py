"""End-to-end CodedTeraSort tests: correctness, equivalence, and loads."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro import CodedTeraSortSpec, TeraSortSpec
from repro.core.theory import coded_shuffle_bytes
from repro.kvpairs.teragen import teragen, teragen_skewed
from repro.kvpairs.validation import validate_sorted_permutation


class TestCodedCorrectness:
    @pytest.mark.parametrize(
        "k,r",
        [(2, 1), (3, 1), (3, 2), (4, 2), (4, 3), (5, 2), (5, 4), (6, 3), (8, 2)],
    )
    def test_sorts_across_k_r_grid(self, k, r, thread_cluster_factory):
        data = teragen(3000 + 97 * k + r, seed=k * 10 + r)
        run = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(data, redundancy=r),
        )
        validate_sorted_permutation(data, run.partitions)

    def test_output_identical_to_terasort(self, thread_cluster_factory):
        """Both algorithms must produce the exact same partitions."""
        data = teragen(5000, seed=1)
        plain = repro.run(thread_cluster_factory(5), TeraSortSpec(data))
        coded = repro.run(
            thread_cluster_factory(5),
            CodedTeraSortSpec(data, redundancy=2),
        )
        assert len(plain.partitions) == len(coded.partitions)
        for p, c in zip(plain.partitions, coded.partitions):
            assert p == c

    def test_batched_placement(self, thread_cluster_factory):
        data = teragen(4000, seed=2)
        run = repro.run(
            thread_cluster_factory(4),
            CodedTeraSortSpec(data, redundancy=2, batches_per_subset=3),
        )
        validate_sorted_permutation(data, run.partitions)
        assert run.meta["num_files"] == 18  # 3 * C(4,2)

    def test_empty_input(self, thread_cluster_factory):
        run = repro.run(
            thread_cluster_factory(4),
            CodedTeraSortSpec(teragen(0), redundancy=2),
        )
        assert run.total_records == 0

    def test_tiny_input_many_files(self, thread_cluster_factory):
        """More files than records: most files empty, still correct."""
        data = teragen(5, seed=3)
        run = repro.run(
            thread_cluster_factory(5),
            CodedTeraSortSpec(data, redundancy=3),
        )
        validate_sorted_permutation(data, run.partitions)

    def test_skewed_keys(self, thread_cluster_factory):
        data = teragen_skewed(6000, seed=4, zipf_a=1.4)
        run = repro.run(
            thread_cluster_factory(4),
            CodedTeraSortSpec(data, redundancy=2, sampled_partitioner=True),
        )
        validate_sorted_permutation(data, run.partitions)

    def test_invalid_redundancy(self, thread_cluster_factory):
        with pytest.raises(ValueError):
            repro.run(
                thread_cluster_factory(4),
                CodedTeraSortSpec(teragen(100), redundancy=4),
            )

    # The factory fixture builds a fresh cluster per call, so reusing it
    # across generated examples is safe.
    @settings(
        max_examples=8,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        k=st.integers(2, 6),
        seed=st.integers(0, 100),
        n=st.integers(0, 2000),
        data_obj=st.data(),
    )
    def test_sort_property(self, k, seed, n, data_obj, thread_cluster_factory):
        r = data_obj.draw(st.integers(1, k - 1))
        data = teragen(n, seed=seed)
        run = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(data, redundancy=r),
        )
        validate_sorted_permutation(data, run.partitions)


class TestCodedAccounting:
    @pytest.mark.parametrize("k,r,g", [(5, 2, None), (6, 2, 3), (8, 1, 2)])
    def test_multicast_count_matches_plan(self, k, r, g, thread_cluster_factory):
        data = teragen(3000, seed=5)
        run = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(data, redundancy=r, group_size=g),
        )
        assert (
            run.traffic.message_count("shuffle") == run.meta["total_multicasts"]
        )

    def test_shuffle_load_near_theory(self, thread_cluster_factory):
        """Measured multicast payload converges to Eq. (2)'s load."""
        k, r = 6, 2
        n = 30000
        data = teragen(n, seed=6)
        run = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(data, redundancy=r),
        )
        payload = run.traffic.load_bytes("shuffle")
        ideal = coded_shuffle_bytes(n * 100, r, k)
        # Headers + size imbalance put measured a few % above the ideal.
        assert payload >= ideal
        assert (payload - ideal) / ideal < 0.10

    def test_coded_beats_uncoded_load(self, thread_cluster_factory):
        """The headline claim at the traffic level: load cut by ~r."""
        k, r = 6, 3
        n = 30000
        data = teragen(n, seed=7)
        uncoded = repro.run(thread_cluster_factory(k), TeraSortSpec(data))
        coded = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(data, redundancy=r),
        )
        u = uncoded.traffic.load_bytes("shuffle")
        c = coded.traffic.load_bytes("shuffle")
        # Theoretical ratio is 2r/... precisely r vs (1-1/k)/((1/r)(1-r/k)).
        expected_ratio = (1 - 1 / k) / ((1 / r) * (1 - r / k))
        assert u / c == pytest.approx(expected_ratio, rel=0.10)

    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    @pytest.mark.parametrize("k,r,g", [(5, 2, None), (8, 2, 4)])
    def test_meta_plan_statistics(self, k, r, g, schedule, thread_cluster_factory):
        """One meaning per key in both shapes: ``num_groups`` is what one
        node's CodeGen enumerates, ``total_multicasts`` is cluster-wide."""
        from repro.utils.subsets import binomial

        run = repro.run(
            thread_cluster_factory(k),
            CodedTeraSortSpec(
                teragen(500, seed=8),
                redundancy=r,
                schedule=schedule,
                group_size=g,
            ),
        )
        g = g or k
        assert (run.meta["group_size"], run.meta["node_groups"]) == (g, k // g)
        assert run.meta["num_groups"] == binomial(g, r + 1)
        assert run.meta["num_files"] == binomial(g, r)
        assert run.meta["files_per_node"] == binomial(g - 1, r - 1)
        assert run.meta["schedule_turns"] == binomial(g, r + 1) * (r + 1)
        assert run.meta["total_multicasts"] == (
            (k // g) * binomial(g, r + 1) * (r + 1)
        )
        assert ("schedule_rounds" in run.meta) == (schedule == "parallel")

    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_group_size_k_is_the_ungrouped_job(
        self, schedule, thread_cluster_factory
    ):
        """``g = K`` is bit for bit ``group_size=None``: same partitions,
        same frames on the wire."""
        k, r = 6, 2
        data = teragen(3000, seed=10)
        plain, whole = [
            repro.run(
                thread_cluster_factory(k),
                CodedTeraSortSpec(
                    data,
                    redundancy=r,
                    schedule=schedule,
                    group_size=g,
                ),
            )
            for g in (None, k)
        ]
        assert [p.to_bytes() for p in whole.partitions] == [
            p.to_bytes() for p in plain.partitions
        ]
        assert sorted(whole.traffic.records, key=repr) == sorted(
            plain.traffic.records, key=repr
        )
        drop = ("shuffle_span_seconds",)  # a wall-clock reading
        assert {k_: v for k_, v in whole.meta.items() if k_ not in drop} == {
            k_: v for k_, v in plain.meta.items() if k_ not in drop
        }

    def test_stage_breakdown_has_six_stages(self, thread_cluster_factory):
        run = repro.run(
            thread_cluster_factory(4),
            CodedTeraSortSpec(teragen(500, seed=9), redundancy=2),
        )
        assert run.stage_times.stages == [
            "codegen", "map", "encode", "shuffle", "decode", "reduce",
        ]
