"""Tests for the Map stage (hash-partitioning + retention rule)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mapper import hash_file, map_node_coded
from repro.core.partitioner import RangePartitioner
from repro.kvpairs.datasource import FileSource
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.spill import write_run_file
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_permutation


class TestHashFile:
    def test_partition_count(self, small_batch):
        parts = hash_file(small_batch, RangePartitioner.uniform(8))
        assert len(parts) == 8

    def test_partition_is_permutation(self, small_batch):
        parts = hash_file(small_batch, RangePartitioner.uniform(8))
        validate_permutation(small_batch, parts)

    def test_records_in_correct_partition(self, small_batch):
        p = RangePartitioner.uniform(4)
        parts = hash_file(small_batch, p)
        for j, part in enumerate(parts):
            if len(part):
                assert (p.partition_indices(part) == j).all()

    def test_empty_input(self):
        parts = hash_file(RecordBatch.empty(), RangePartitioner.uniform(3))
        assert all(len(p) == 0 for p in parts)

    def test_stable_within_partition(self):
        """Records keep input order inside each partition (stable grouping)."""
        b = teragen(200, seed=6)
        p = RangePartitioner.uniform(2)
        parts = hash_file(b, p)
        idx = p.partition_indices(b)
        from repro.kvpairs.teragen import extract_row_ids

        for j in (0, 1):
            got = extract_row_ids(parts[j])
            expected = extract_row_ids(b)[idx == j]
            assert (got == expected).all()

    def test_kept_pieces_equal_the_full_split_and_the_rest_are_empty(self):
        b = teragen(600, seed=8)
        p = RangePartitioner.uniform(6)
        full = hash_file(b, p)
        keep = [4, 0, 5]
        parts = hash_file(b, p, keep)
        assert len(parts) == 6
        for j, part in enumerate(parts):
            if j in keep:
                assert len(part) > 0
                assert part.to_bytes() == full[j].to_bytes()
            else:
                assert len(part) == 0

    @pytest.mark.parametrize("keep", [None, [2, 0]])
    def test_pieces_own_their_memory(self, keep, tmp_path):
        """Each piece is its own gather: it pins neither the window (an
        mmap view of a file included) nor the other pieces."""
        b = teragen(500, seed=9)
        path = str(tmp_path / "input.bin")
        write_run_file(path, [b])
        p = RangePartitioner.uniform(4)
        for window in (b, FileSource(path, start_record=100).load()):
            parts = [x for x in hash_file(window, p, keep) if len(x)]
            assert parts
            for i, part in enumerate(parts):
                assert not np.shares_memory(part.array, window.array)
                for other in parts[i + 1:]:
                    assert not np.shares_memory(part.array, other.array)


class TestCodedMap:
    def _setup(self, k=5, r=2, n=500):
        from repro.core.placement import CodedPlacement

        b = teragen(n, seed=7)
        placement = CodedPlacement(k, r)
        assignments = placement.place(b)
        node = 0
        files = {
            a.file_id: a.data for a in assignments if node in a.subset
        }
        subsets = {
            a.file_id: a.subset for a in assignments if node in a.subset
        }
        return node, files, subsets, RangePartitioner.uniform(k)

    def test_retention_rule(self):
        node, files, subsets, part = self._setup()
        kept = map_node_coded(node, files, subsets, part)
        for file_id, per_target in kept.items():
            subset = set(subsets[file_id])
            targets = set(per_target)
            # Keeps own partition plus all out-of-subset partitions.
            expected = {node} | (set(range(part.num_partitions)) - subset)
            assert targets == expected

    def test_rejects_foreign_file(self):
        node, files, subsets, part = self._setup()
        bad_subsets = {f: (1, 2) for f in subsets}  # node 0 not in subset
        with pytest.raises(ValueError):
            map_node_coded(node, files, bad_subsets, part)

    def test_retained_content_matches_hash(self):
        node, files, subsets, part = self._setup()
        kept = map_node_coded(node, files, subsets, part)
        for file_id, data in files.items():
            parts = hash_file(data, part)
            for target, batch in kept[file_id].items():
                assert batch == parts[target]
