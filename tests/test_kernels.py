"""Property tests for the merge that is a sort, and the radix partition.

The contract under test is byte-identity against oracles that share no
code with what they check: ``merge_sorted`` / ``merge_runs`` against a
stable ``argsort`` of the concatenation's ``S10`` key column (same
records, same stable tie order — earlier runs win) on random TeraGen
data, skewed and duplicate-heavy keys, adversarial shared-prefix keys
and duplicate keys spanning runs and window boundaries; the radix table
and the bucket grouping against inline ``searchsorted`` / stable
``argsort``.
"""

import numpy as np
import pytest

from repro.core.mapper import hash_file
from repro.core.partitioner import RangePartitioner
from repro.kvpairs import kernels
from repro.kvpairs.kernels import RadixTable, group_by_partition
from repro.kvpairs.records import KEY_BYTES, VALUE_BYTES, RecordBatch
from repro.kvpairs.sorting import merge_sorted, sort_batch
from repro.kvpairs.spill import (
    ExternalSorter,
    Run,
    SpillDir,
    merge_runs,
    write_run_file,
)
from repro.kvpairs.teragen import teragen, teragen_skewed


def batch_from_keys(keys):
    """A RecordBatch with the given bytes keys and distinct values."""
    n = len(keys)
    karr = np.array(keys, dtype=f"S{KEY_BYTES}")
    values = np.array(
        [f"v{i:04d}".encode().ljust(VALUE_BYTES, b".") for i in range(n)],
        dtype=f"S{VALUE_BYTES}",
    )
    return RecordBatch.from_arrays(karr, values)


def adversarial_batch(rng, n, prefix=b"SHAREDPR"):
    """Keys sharing an 8-byte prefix: every prefix-word compare ties."""
    tails = rng.integers(0, 4, size=(n, KEY_BYTES - len(prefix)))
    keys = [
        prefix + bytes(row + ord("a")) for row in tails
    ]
    return batch_from_keys(keys)


def duplicate_heavy_batch(rng, n, distinct=5):
    """A few distinct keys repeated many times (skewed/duplicate lane)."""
    pool = [f"DUPKEY{i:02d}xx".encode() for i in range(distinct)]
    keys = [pool[int(j)] for j in rng.integers(0, distinct, size=n)]
    return batch_from_keys(keys)


def split_sorted_runs(batch, rng, k):
    """Split a stream into k chunks and stable-sort each (run priority
    order = chunk order, the external-sort contract)."""
    n = len(batch)
    cuts = sorted(int(c) for c in rng.integers(0, n + 1, size=k - 1))
    out, prev = [], 0
    for c in list(cuts) + [n]:
        out.append(sort_batch(batch.slice(prev, c)))
        prev = c
    return out


def assert_batches_equal(a, b):
    assert len(a) == len(b)
    assert a.array.tobytes() == b.array.tobytes()


def oracle_merge(runs):
    """The stable k-way merge, by NumPy's own stable sort of the ``S10``
    key column (bytewise compare; shares nothing with ``sort_batches``)."""
    concat = np.concatenate([r.array for r in runs])
    return RecordBatch(concat[np.argsort(concat["key"], kind="stable")])


# ---------------------------------------------------------------------------
# The merge: byte-identity against the argsort oracle
# ---------------------------------------------------------------------------

STREAMS = {
    "teragen": lambda rng: teragen(3000, seed=42),
    "skewed": lambda rng: teragen_skewed(3000, seed=43, hot_prefixes=64),
    "distinct100": lambda rng: duplicate_heavy_batch(rng, 3000, distinct=100),
    "shared-prefix": lambda rng: adversarial_batch(rng, 2000),
    "identical": lambda rng: duplicate_heavy_batch(rng, 1500, distinct=1),
}

#: How a run reaches the merge: owned, a read-only receive buffer, or a
#: strided slice of a larger array.
LAYOUTS = {
    "owned": lambda run: run,
    "read-only": lambda run: RecordBatch.from_buffer(run.to_bytes()),
    "strided": lambda run: RecordBatch(np.repeat(run.array, 2)[::2]),
}


class TestMergeByteIdentity:
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("k", [1, 2, 3, 8, 33])
    @pytest.mark.parametrize("name", list(STREAMS))
    def test_merges_equal_stable_argsort(self, name, k, layout):
        rng = np.random.default_rng([len(name), k])
        stream = STREAMS[name](rng)
        runs = [LAYOUTS[layout](r) for r in split_sorted_runs(stream, rng, k)]
        expect = oracle_merge(runs)
        out = merge_sorted(runs)
        assert_batches_equal(out, expect)
        live = [r for r in runs if len(r)]
        if len(live) > 1:  # a lone run is handed back as it is
            assert out.array.flags.writeable
            assert not any(np.shares_memory(out.array, r.array) for r in runs)
        streamed = RecordBatch.concat(
            list(merge_runs(runs, window_records=97, out_records=53))
        )
        assert_batches_equal(streamed, expect)
        if name == "identical":
            # Every compare is a tie: earlier runs win, and within a run
            # the earlier record — i.e. the concatenation, untouched.
            assert_batches_equal(out, RecordBatch.concat(runs))

    def test_stability_duplicate_values_across_runs(self):
        """Equal keys keep run order: earlier run's records come first."""
        key = b"TIEKEYAAAA"
        a = batch_from_keys([key, key])
        b = batch_from_keys([key])
        # Distinguish records by value.
        a.array["value"][0] = b"a0".ljust(VALUE_BYTES, b"_")
        a.array["value"][1] = b"a1".ljust(VALUE_BYTES, b"_")
        b.array["value"][0] = b"b0".ljust(VALUE_BYTES, b"_")
        merged = merge_sorted([a, b])
        vals = [bytes(v[:2]) for v in merged.values]
        assert vals == [b"a0", b"a1", b"b0"]

    def test_merge_rejects_unsorted(self):
        bad = batch_from_keys([b"BBBBBBBBBB", b"AAAAAAAAAA"])
        good = sort_batch(teragen(10, seed=0))
        with pytest.raises(ValueError, match="run 0 is not sorted"):
            merge_sorted([bad, bad])
        with pytest.raises(ValueError, match="run 1 is not sorted"):
            merge_sorted([good, bad])
        with pytest.raises(ValueError, match="run 0 is not sorted"):
            merge_sorted([bad])  # the lone-run shortcut validates too

    def test_check_false_skips_validation(self):
        runs = [sort_batch(teragen(100, seed=i)) for i in range(3)]
        out = merge_sorted(runs, check=False)
        assert_batches_equal(out, oracle_merge(runs))


class TestMergeRunsWindows:
    """External merge with tiny windows: boundary carry + tie stability."""

    @pytest.mark.parametrize("window", [7, 64])
    def test_window_boundaries(self, window):
        rng = np.random.default_rng(99)
        stream = RecordBatch.concat(
            [teragen(1200, seed=1), duplicate_heavy_batch(rng, 800)]
        )
        runs = split_sorted_runs(stream, rng, 4)
        out = RecordBatch.concat(
            list(merge_runs(runs, window_records=window, out_records=53))
        )
        assert_batches_equal(out, oracle_merge(runs))

    def test_duplicates_spanning_window_boundary(self):
        # Two runs of one repeated key each: every window boundary falls
        # inside a duplicate group and every compare is a cross-run tie.
        a = batch_from_keys([b"TIEKEYAAAA"] * 40)
        b = batch_from_keys([b"TIEKEYAAAA"] * 40)
        for i in range(40):
            a.array["value"][i] = f"a{i:02d}".encode().ljust(VALUE_BYTES, b"_")
            b.array["value"][i] = f"b{i:02d}".encode().ljust(VALUE_BYTES, b"_")
        out = RecordBatch.concat(
            list(merge_runs([a, b], window_records=7, out_records=11))
        )
        assert_batches_equal(out, RecordBatch.concat([a, b]))

    def test_spilled_runs_round_trip(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        stream = teragen(5000, seed=21)
        with SpillDir("t") as spill:
            sorter = ExternalSorter(spill, chunk_bytes=800 * 100)
            for chunk in stream.iter_slices(700):
                sorter.add(chunk)
            out = RecordBatch.concat(
                list(sorter.merge(window_records=190, out_records=450))
            )
        assert_batches_equal(out, oracle_merge([stream]))

    def test_unsorted_file_run_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        bad = batch_from_keys([b"BBBBBBBBBB", b"AAAAAAAAAA"])
        good = sort_batch(teragen(10, seed=0))
        with SpillDir("t") as spill:
            path = spill.new_path()
            write_run_file(path, [bad])
            with pytest.raises(ValueError, match="not sorted"):
                list(merge_runs([Run.from_file(path), good]))


# ---------------------------------------------------------------------------
# Radix partition
# ---------------------------------------------------------------------------


class TestRadixPartition:
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_table_equals_searchsorted(self, k):
        part = RangePartitioner.uniform(k)
        batch = teragen(4000, seed=5)
        hi = batch.key_prefix_u64()
        expect = np.searchsorted(part.boundaries, hi, side="right").astype(
            np.int64
        )
        table = RadixTable.build(part.boundaries)
        got = table.partition(hi, part.boundaries)
        assert np.array_equal(got, expect)

    def test_boundary_edge_keys(self):
        """Keys exactly at / adjacent to splitters, including splitters
        that are exact multiples of 2^48 (cell floors)."""
        bounds = np.array(
            [1 << 48, (5 << 48) + 12345, (1 << 63) - 1], dtype=np.uint64
        )
        edges = []
        for b in bounds:
            for d in (-1, 0, 1):
                edges.append(int(b) + d)
        edges += [0, (1 << 64) - 1]
        hi = np.array(edges, dtype=np.uint64)
        expect = np.searchsorted(bounds, hi, side="right").astype(np.int64)
        table = RadixTable.build(bounds)
        assert np.array_equal(table.partition(hi, bounds), expect)

    @pytest.mark.parametrize("factor", [0.5, 2])
    def test_partitioner_equals_searchsorted(self, factor):
        """Either side of RADIX_MIN_BATCH: the direct walk and the table."""
        part = RangePartitioner.from_sample(teragen(512, seed=6), 9)
        batch = teragen(int(kernels.RADIX_MIN_BATCH * factor), seed=7)
        expect = np.searchsorted(
            part.boundaries, batch.key_prefix_u64(), side="right"
        )
        got = part.partition_indices(batch)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)
        assert (part._radix is not None) == (factor > 1)

    def test_pickle_drops_radix_cache(self):
        import pickle

        part = RangePartitioner.uniform(8)
        batch = teragen(int(kernels.RADIX_MIN_BATCH * 2), seed=8)
        part.partition_indices(batch)  # builds + caches the table
        assert part._radix is not None
        blob = pickle.dumps(part)
        assert len(blob) < 4096
        clone = pickle.loads(blob)
        assert clone == part
        assert clone._radix is None
        assert np.array_equal(
            clone.partition_indices(batch), part.partition_indices(batch)
        )


class TestGroupByPartition:
    @pytest.mark.parametrize("k", [1, 4, 33])
    def test_matches_stable_argsort(self, k):
        rng = np.random.default_rng(10)
        idx = rng.integers(0, k, size=10000).astype(np.int64)
        order, counts = group_by_partition(idx, k)
        assert np.array_equal(order, np.argsort(idx, kind="stable"))
        assert np.array_equal(counts, np.bincount(idx, minlength=k))

    def test_hash_file_equals_stable_grouping(self):
        part = RangePartitioner.uniform(6)
        batch = teragen(5000, seed=12)
        idx = np.searchsorted(
            part.boundaries, batch.key_prefix_u64(), side="right"
        )
        grouped = batch.array[np.argsort(idx, kind="stable")]
        cuts = np.cumsum(np.bincount(idx, minlength=6))[:-1]
        parts = hash_file(batch, part)
        assert len(parts) == 6
        for got, expect in zip(parts, np.split(grouped, cuts)):
            assert_batches_equal(got, RecordBatch(expect))
