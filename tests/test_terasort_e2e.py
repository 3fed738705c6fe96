"""End-to-end TeraSort tests on the threaded backend."""

from __future__ import annotations

import pytest

import repro
from repro import TeraSortSpec
from repro.kvpairs.serialization import HEADER_BYTES
from repro.kvpairs.teragen import teragen, teragen_skewed
from repro.kvpairs.validation import (
    validate_permutation,
    validate_sorted,
    validate_sorted_permutation,
)


class TestTeraSortCorrectness:
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_sorts_any_cluster_size(self, k, thread_cluster_factory):
        data = teragen(4000, seed=k)
        run = repro.run(thread_cluster_factory(k), TeraSortSpec(data))
        validate_sorted_permutation(data, run.partitions)
        assert len(run.partitions) == k

    def test_empty_input(self, thread_cluster_factory):
        data = teragen(0)
        run = repro.run(thread_cluster_factory(3), TeraSortSpec(data))
        assert run.total_records == 0

    def test_fewer_records_than_nodes(self, thread_cluster_factory):
        data = teragen(3, seed=1)
        run = repro.run(thread_cluster_factory(6), TeraSortSpec(data))
        validate_sorted_permutation(data, run.partitions)

    def test_skewed_keys_with_sampled_partitioner(self, thread_cluster_factory):
        data = teragen_skewed(8000, seed=2, zipf_a=1.3)
        run = repro.run(
            thread_cluster_factory(4),
            TeraSortSpec(data, sampled_partitioner=True),
        )
        validate_sorted_permutation(data, run.partitions)
        # Sampling should keep the biggest partition under ~2x fair share.
        largest = max(len(p) for p in run.partitions)
        assert largest < 2.0 * 8000 / 4

    def test_skewed_keys_uniform_partitioner_still_correct(
        self, thread_cluster_factory
    ):
        data = teragen_skewed(5000, seed=3)
        run = repro.run(thread_cluster_factory(4), TeraSortSpec(data))
        validate_sorted_permutation(data, run.partitions)

    def test_partitions_follow_partitioner(self, thread_cluster_factory):
        data = teragen(3000, seed=4)
        run = repro.run(thread_cluster_factory(5), TeraSortSpec(data))
        for k, part in enumerate(run.partitions):
            if len(part):
                assert (run.partitioner.partition_indices(part) == k).all()


class TestTeraSortAccounting:
    def test_shuffle_message_count(self, thread_cluster_factory):
        k = 6
        run = repro.run(
            thread_cluster_factory(k),
            TeraSortSpec(teragen(1200, seed=5)),
        )
        assert run.traffic.message_count("shuffle") == k * (k - 1)

    def test_shuffle_load_near_theory(self, thread_cluster_factory):
        k = 6
        n = 12000
        data = teragen(n, seed=6)
        run = repro.run(thread_cluster_factory(k), TeraSortSpec(data))
        payload = run.traffic.load_bytes("shuffle")
        headers = k * (k - 1) * HEADER_BYTES
        ideal = n * 100 * (k - 1) / k
        assert abs(payload - headers - ideal) / ideal < 0.02

    def test_stage_breakdown_populated(self, thread_cluster_factory):
        run = repro.run(
            thread_cluster_factory(3),
            TeraSortSpec(teragen(1000, seed=7)),
        )
        assert run.stage_times.stages == ["map", "pack", "shuffle", "unpack", "reduce"]
        assert run.stage_times.total > 0

    def test_no_traffic_outside_shuffle(self, thread_cluster_factory):
        run = repro.run(
            thread_cluster_factory(4),
            TeraSortSpec(teragen(1000, seed=8)),
        )
        assert set(run.traffic.by_stage()) == {"shuffle"}

    def test_meta_fields(self, thread_cluster_factory):
        run = repro.run(
            thread_cluster_factory(4),
            TeraSortSpec(teragen(100, seed=9)),
        )
        assert run.meta["algorithm"] == "terasort"
        assert run.meta["num_nodes"] == 4
        assert run.meta["input_records"] == 100
