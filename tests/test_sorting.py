"""Tests for local sorting and merging."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvpairs.records import KEY_BYTES, VALUE_BYTES, RecordBatch
from repro.kvpairs.sorting import (
    is_sorted,
    merge_sorted,
    sort_batch,
    sort_batches,
    sort_key_order,
)
from repro.kvpairs.teragen import teragen, teragen_skewed


def batch_from_keys(key_rows):
    n = len(key_rows)
    keys = np.array(key_rows, dtype=np.uint8).reshape(n, KEY_BYTES)
    values = np.zeros((n, VALUE_BYTES), dtype=np.uint8)
    return RecordBatch.from_arrays(keys, values)


class TestSortBatch:
    def test_sorts_random_data(self, small_batch):
        out = sort_batch(small_batch)
        assert is_sorted(out)
        assert len(out) == len(small_batch)

    def test_matches_python_sorted(self):
        b = teragen(300, seed=4)
        out = sort_batch(b)
        expected = sorted(bytes(k) for k in b.keys)
        assert [bytes(k) for k in out.keys] == expected

    def test_tie_break_on_last_two_bytes(self):
        # Same 8-byte prefix, different 2-byte suffix.
        rows = [[1] * 8 + [0, 2], [1] * 8 + [0, 1], [1] * 8 + [0, 3]]
        out = sort_batch(batch_from_keys(rows))
        suffixes = [bytes(k)[-1] for k in out.keys]
        assert suffixes == [1, 2, 3]

    def test_stability_preserves_value_order_for_equal_keys(self):
        keys = np.zeros((3, KEY_BYTES), dtype=np.uint8)
        values = np.zeros((3, VALUE_BYTES), dtype=np.uint8)
        values[:, 0] = [10, 20, 30]
        b = RecordBatch.from_arrays(keys, values)
        out = sort_batch(b)
        assert list(out.raw_view()[:, KEY_BYTES]) == [10, 20, 30]

    def test_empty_and_singleton(self):
        assert len(sort_batch(RecordBatch.empty())) == 0
        one = teragen(1, seed=0)
        assert sort_batch(one) == one

    @given(st.integers(0, 400))
    def test_sort_property(self, n):
        b = teragen(n, seed=n + 1)
        out = sort_batch(b)
        assert is_sorted(out)
        # Permutation: sorted key multisets match.
        assert sorted(bytes(k) for k in b.keys) == [bytes(k) for k in out.keys]


def lexsort_order(batch):
    """The oracle: a stable two-column sort on the full key words."""
    hi, lo = batch.key_words()
    return np.lexsort((lo, hi))


#: Keys built to tie: three 7-byte stems, so prefix words collide (equal
#: 8th byte), packed prefixes collide where prefix words differ (only the
#: 8th byte differs — the packed sort drops ``hi``'s low bits for the
#: index), tails differ inside a prefix word, and whole keys repeat.
tied_keys = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    max_size=120,
).map(lambda rows: [[stem] * 7 + [b8, 0, tail] for stem, b8, tail in rows])


class TestSortKeyOrder:
    """``sort_key_order`` equals the lexsort oracle element for element:
    exact 10-byte order, ties in input order."""

    @given(tied_keys, st.integers(0, 40))
    def test_matches_lexsort_on_ties(self, rows, n_random):
        b = RecordBatch.concat(
            [batch_from_keys(rows), teragen(n_random, seed=len(rows))]
        )
        assert np.array_equal(sort_key_order(b), lexsort_order(b))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 257, 4097])
    def test_matches_lexsort_on_teragen(self, n):
        b = teragen(n, seed=n)
        assert np.array_equal(sort_key_order(b), lexsort_order(b))

    def test_matches_lexsort_on_skewed(self):
        b = teragen_skewed(5000, seed=3)
        assert np.array_equal(sort_key_order(b), lexsort_order(b))

    def test_sparse_ties_are_repaired(self):
        # Mostly distinct keys; one duplicate block and one block sharing
        # prefix words with reversed tails (the repair branch, not the
        # all-ties fallback).
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 256, size=(2000, KEY_BYTES), dtype=np.uint8)
        keys[:50] = keys[50:100]
        keys[300:400, :8] = keys[400:500, :8]
        keys[300:400, 9] = 255 - keys[400:500, 9]
        b = batch_from_keys(keys)
        order = sort_key_order(b)
        assert np.array_equal(order, lexsort_order(b))
        assert is_sorted(b.take(order))

    @pytest.mark.parametrize("distinct_tails", [1, 4])
    def test_most_prefixes_tie(self, distinct_tails):
        # > half the records tie on the prefix word: the lexsort branch
        # (distinct_tails=1: all keys equal, order is input order).
        rng = np.random.default_rng(1)
        keys = np.full((600, KEY_BYTES), 7, dtype=np.uint8)
        keys[:, 9] = rng.integers(0, distinct_tails, size=600)
        keys[:100] = rng.integers(0, 256, size=(100, KEY_BYTES))
        b = batch_from_keys(keys)
        assert np.array_equal(sort_key_order(b), lexsort_order(b))

    def test_keys_differing_below_the_packed_prefix(self):
        # hi words differ only in their low bits, which the packed word
        # gives to the index: everything ties there, nothing ties in hi.
        keys = np.zeros((1000, KEY_BYTES), dtype=np.uint8)
        perm = np.random.default_rng(2).permutation(1000)
        keys[:, 6] = perm >> 8
        keys[:, 7] = perm & 255
        b = batch_from_keys(keys)
        assert np.array_equal(sort_key_order(b), lexsort_order(b))


class TestSortOwnsItsOutput:
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_sort_of_a_buffer_view_releases_the_buffer(self, n):
        arena = bytearray(teragen(8, seed=1).to_bytes())
        view = RecordBatch.from_buffer(memoryview(arena)[: n * 100])
        out = sort_batch(view)
        assert out == sort_batch(view.copy())
        assert out.array.flags.writeable
        assert not np.shares_memory(out.array, view.array)
        del view
        arena.extend(b"x")  # BufferError while any export pins the arena


class TestSortBatches:
    @given(st.lists(st.integers(0, 60), max_size=6))
    def test_equals_sort_of_concat(self, sizes):
        parts = [teragen(n, seed=i) for i, n in enumerate(sizes)]
        assert sort_batches(parts) == sort_batch(RecordBatch.concat(parts))

    def test_ties_across_parts_keep_part_order(self):
        keys = np.zeros((4, KEY_BYTES), dtype=np.uint8)
        values = np.zeros((4, VALUE_BYTES), dtype=np.uint8)
        values[:, 0] = [1, 2, 3, 4]
        b = RecordBatch.from_arrays(keys, values)
        out = sort_batches([b.slice(0, 1), b.slice(1, 3), b.slice(3, 4)])
        assert list(out.raw_view()[:, KEY_BYTES]) == [1, 2, 3, 4]

    def test_read_only_and_strided_parts(self):
        b = teragen(300, seed=5)
        parts = [
            RecordBatch.from_buffer(b.slice(0, 100).to_bytes()),
            RecordBatch(b.array[100::2]),
        ]
        out = sort_batches(parts)
        assert out == sort_batch(RecordBatch.concat(parts))
        assert out.array.flags.writeable


class TestIsSorted:
    def test_detects_unsorted(self):
        rows = [[2] + [0] * 9, [1] + [0] * 9]
        assert not is_sorted(batch_from_keys(rows))

    def test_equal_keys_are_sorted(self):
        rows = [[1] * 10, [1] * 10]
        assert is_sorted(batch_from_keys(rows))

    def test_suffix_violation_detected(self):
        rows = [[1] * 8 + [0, 2], [1] * 8 + [0, 1]]
        assert not is_sorted(batch_from_keys(rows))


class TestMergeSorted:
    def test_merge_equals_global_sort(self):
        b = teragen(600, seed=8)
        runs = [sort_batch(b.slice(0, 200)), sort_batch(b.slice(200, 450)),
                sort_batch(b.slice(450, 600))]
        merged = merge_sorted(runs)
        assert merged == sort_batch(b)

    def test_merge_rejects_unsorted_run(self):
        b = teragen(100, seed=9)
        with pytest.raises(ValueError):
            merge_sorted([b])

    def test_merge_empty_runs(self):
        assert len(merge_sorted([RecordBatch.empty(), RecordBatch.empty()])) == 0
