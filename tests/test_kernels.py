"""Property tests for the OVC merge / radix partition kernel layer.

The contract under test is byte-identity: every kernel must produce
exactly the output of the classic implementation it replaces — same
records, same stable tie order — on random TeraGen data, adversarial
shared-prefix keys, and duplicate keys spanning runs and window
boundaries.
"""

import os

import numpy as np
import pytest

from repro.core.mapper import hash_file
from repro.core.partitioner import RangePartitioner
from repro.kvpairs import kernels
from repro.kvpairs.kernels import (
    KERNELS_ENV,
    OVC_DTYPE,
    RadixTable,
    RunColumns,
    group_by_partition,
    merge_sorted_columns,
    merge_two,
    ovc_codes,
)
from repro.kvpairs.records import KEY_BYTES, VALUE_BYTES, RecordBatch
from repro.kvpairs.sorting import merge_sorted, sort_batch
from repro.kvpairs.spill import (
    SpillDir,
    merge_runs,
    read_ovc_file,
    write_ovc_file,
    write_sorted_run,
)
from repro.kvpairs.teragen import teragen


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


# ---------------------------------------------------------------------------
# ovc_codes
# ---------------------------------------------------------------------------


class TestOvcCodes:
    def test_packing_matches_definition(self):
        batch = batch_from_keys([b"AAAAAAAAAA", b"AAAAAAAAAB", b"AAB" + b"A" * 7])
        codes = ovc_codes(batch)
        assert codes.dtype == OVC_DTYPE
        # First record vs minus-infinity: offset 0, value 'A'.
        assert codes[0] == KEY_BYTES * 256 + ord("A")
        # Second differs at the last byte (offset 9).
        assert codes[1] == (KEY_BYTES - 9) * 256 + ord("B")
        # Third differs at offset 2.
        assert codes[2] == (KEY_BYTES - 2) * 256 + ord("B")

    def test_duplicates_are_zero(self):
        batch = batch_from_keys([b"SAMEKEYAAA"] * 4)
        codes = ovc_codes(batch)
        assert codes[0] != 0
        assert (codes[1:] == 0).all()

    def test_base_key_carry(self):
        batch = batch_from_keys([b"AAAAAAAAAA", b"AAAAAAAAAB"])
        codes = ovc_codes(batch, base_key=b"AAAAAAAAAA")
        assert codes[0] == 0  # duplicate of the carried predecessor
        whole = ovc_codes(batch_from_keys([b"AAAAAAAAAA"] * 2 + [b"AAAAAAAAAB"]))
        assert codes[1] == whole[2]

    def test_unsorted_raises(self):
        batch = batch_from_keys([b"BBBBBBBBBB", b"AAAAAAAAAA"])
        with pytest.raises(ValueError, match="not sorted"):
            ovc_codes(batch, what="run 7")
        with pytest.raises(ValueError, match="not sorted"):
            ovc_codes(
                batch_from_keys([b"AAAAAAAAAA"]), base_key=b"BBBBBBBBBB"
            )

    def test_windowed_codes_match_whole_run(self):
        run = sort_batch(teragen(3000, seed=11))
        whole = ovc_codes(run)
        w = 700
        parts = []
        prev = None
        for start in range(0, len(run), w):
            window = run.slice(start, min(start + w, len(run)))
            parts.append(ovc_codes(window, base_key=prev))
            prev = bytes(window.keys[-1]).ljust(KEY_BYTES, b"\x00")
        assert np.array_equal(np.concatenate(parts), whole)

    def test_codes_order_like_keys(self):
        run = sort_batch(teragen(2000, seed=3))
        codes = ovc_codes(run).astype(np.int64)
        keys = run.keys
        # Wherever the key strictly increases, the code is nonzero; equal
        # keys always get code 0 (after the first occurrence).
        dup = keys[1:] == keys[:-1]
        assert ((codes[1:] == 0) == dup).all()


# ---------------------------------------------------------------------------
# Merge kernels: byte-identity properties
# ---------------------------------------------------------------------------


def make_streams():
    rng = np.random.default_rng(1234)
    streams = [
        ("teragen", teragen(5000, seed=42)),
        ("adversarial", adversarial_batch(rng, 3000)),
        ("duplicates", duplicate_heavy_batch(rng, 4000)),
        (
            "mixed",
            RecordBatch.concat(
                [teragen(1000, seed=7), duplicate_heavy_batch(rng, 1000)]
            ),
        ),
        ("tiny", teragen(3, seed=9)),
    ]
    return streams


class TestMergeByteIdentity:
    @pytest.mark.parametrize("name,stream", make_streams())
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_ovc_equals_classic_and_stable_sort(self, name, stream, k):
        rng = np.random.default_rng(hash((name, k)) % (2**32))
        runs = split_sorted_runs(stream, rng, k)
        cols = [
            RunColumns.from_batch(r, what=f"run {i}")
            for i, r in enumerate(runs)
            if len(r)
        ]
        ovc = merge_sorted_columns(cols).batch
        classic = merge_sorted(runs)  # dispatches per env; default ovc
        expect = sort_batch(stream)
        assert_batches_equal(ovc, expect)
        assert_batches_equal(classic, expect)

    def test_merge_two_codes_stay_valid(self):
        """Output codes from merge_two equal a fresh whole-output coding."""
        rng = np.random.default_rng(5)
        for stream in (teragen(2000, seed=8), duplicate_heavy_batch(rng, 1500)):
            a, b = split_sorted_runs(stream, rng, 2)
            if not len(a) or not len(b):
                continue
            merged = merge_two(
                RunColumns.from_batch(a), RunColumns.from_batch(b)
            )
            fresh = ovc_codes(merged.batch, check=False)
            assert np.array_equal(merged.codes, fresh)

    def test_stability_duplicate_values_across_runs(self):
        """Equal keys keep run order: earlier run's records come first."""
        key = b"TIEKEYAAAA"
        a = batch_from_keys([key, key])
        b = batch_from_keys([key])
        # Distinguish records by value.
        a.array["value"][0] = b"a0".ljust(VALUE_BYTES, b"_")
        a.array["value"][1] = b"a1".ljust(VALUE_BYTES, b"_")
        b.array["value"][0] = b"b0".ljust(VALUE_BYTES, b"_")
        merged = merge_sorted_columns(
            [RunColumns.from_batch(a), RunColumns.from_batch(b)]
        ).batch
        vals = [bytes(v[:2]) for v in merged.values]
        assert vals == [b"a0", b"a1", b"b0"]

    @pytest.mark.parametrize("mode", ["ovc", "classic"])
    def test_read_only_and_strided_runs(self, mode, monkeypatch):
        """The merge scatter reads received (read-only) buffers and
        strided slices in place and owns what it returns."""
        monkeypatch.setenv(KERNELS_ENV, mode)
        rng = np.random.default_rng(21)
        stream = RecordBatch.concat(
            [teragen(700, seed=3), duplicate_heavy_batch(rng, 300)]
        )
        a, b, c = split_sorted_runs(stream, rng, 3)
        runs = [
            RecordBatch.from_buffer(a.to_bytes()),
            RecordBatch(np.repeat(b.array, 2)[::2]),
            c,
        ]
        out = merge_sorted(runs)
        assert_batches_equal(out, sort_batch(stream))
        assert out.array.flags.writeable
        assert not any(np.shares_memory(out.array, r.array) for r in runs)

    def test_merge_rejects_unsorted(self):
        bad = batch_from_keys([b"BBBBBBBBBB", b"AAAAAAAAAA"])
        with pytest.raises(ValueError, match="not sorted"):
            merge_sorted([bad, bad])

    def test_check_false_skips_validation(self):
        runs = [sort_batch(teragen(100, seed=i)) for i in range(3)]
        out = merge_sorted(runs, check=False)
        assert_batches_equal(out, sort_batch(RecordBatch.concat(runs)))


class TestMergeRunsWindows:
    """External merge with tiny windows: boundary carry + tie stability."""

    @pytest.mark.parametrize("mode", ["ovc", "classic"])
    @pytest.mark.parametrize("window", [7, 64])
    def test_window_boundaries_both_modes(self, mode, window, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, mode)
        rng = np.random.default_rng(99)
        stream = RecordBatch.concat(
            [teragen(1200, seed=1), duplicate_heavy_batch(rng, 800)]
        )
        runs = split_sorted_runs(stream, rng, 4)
        out = RecordBatch.concat(
            list(merge_runs(runs, window_records=window, out_records=53))
        )
        assert_batches_equal(out, sort_batch(stream))

    @pytest.mark.parametrize("mode", ["ovc", "classic"])
    def test_duplicates_spanning_window_boundary(self, mode, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, mode)
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
        expect = sort_batch(RecordBatch.concat([a, b]))
        assert_batches_equal(out, expect)

    @pytest.mark.parametrize("mode", ["ovc", "classic"])
    def test_spilled_runs_round_trip(self, mode, monkeypatch, tmp_path):
        monkeypatch.setenv(KERNELS_ENV, mode)
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        from repro.kvpairs.spill import ExternalSorter

        stream = teragen(5000, seed=21)
        with SpillDir("t") as spill:
            sorter = ExternalSorter(spill, chunk_bytes=800 * 100)
            for chunk in stream.iter_slices(700):
                sorter.add(chunk)
            out = RecordBatch.concat(
                list(sorter.merge(window_records=190, out_records=450))
            )
        assert_batches_equal(out, sort_batch(stream))

    def test_unsorted_file_run_rejected(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        from repro.kvpairs.spill import Run, write_run_file

        bad = batch_from_keys([b"BBBBBBBBBB", b"AAAAAAAAAA"])
        good = sort_batch(teragen(10, seed=0))
        with SpillDir("t") as spill:
            path = spill.new_path()
            write_run_file(path, [bad])  # no sidecar: codes computed, checked
            with pytest.raises(ValueError, match="not sorted"):
                list(merge_runs([Run.from_file(path), good]))


class TestClassicRoundTrip:
    def test_classic_env_round_trips(self, monkeypatch):
        stream = teragen(4000, seed=77)
        rng = np.random.default_rng(0)
        runs = split_sorted_runs(stream, rng, 3)
        monkeypatch.setenv(KERNELS_ENV, "classic")
        assert kernels.kernel_mode() == "classic"
        classic = merge_sorted(runs)
        monkeypatch.setenv(KERNELS_ENV, "ovc")
        assert kernels.kernel_mode() == "ovc"
        ovc = merge_sorted(runs)
        assert_batches_equal(classic, ovc)

    def test_unknown_mode_falls_back_to_ovc(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "turbo")
        assert kernels.kernel_mode() == "ovc"


# ---------------------------------------------------------------------------
# Sidecar files
# ---------------------------------------------------------------------------


class TestSidecars:
    def test_write_read_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "ovc")
        run = sort_batch(teragen(500, seed=13))
        path = str(tmp_path / "run.bin")
        write_sorted_run(path, run)
        codes = read_ovc_file(path, len(run))
        assert codes is not None
        assert np.array_equal(codes, ovc_codes(run))

    def test_missing_sidecar_is_none(self, tmp_path):
        from repro.kvpairs.spill import write_run_file

        run = sort_batch(teragen(100, seed=1))
        path = str(tmp_path / "run.bin")
        write_run_file(path, [run])
        assert read_ovc_file(path, len(run)) is None

    def test_mismatched_sidecar_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "ovc")
        run = sort_batch(teragen(100, seed=2))
        path = str(tmp_path / "run.bin")
        write_sorted_run(path, run)
        assert read_ovc_file(path, len(run) + 1) is None

    def test_classic_mode_writes_no_sidecar(self, tmp_path, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "classic")
        run = sort_batch(teragen(100, seed=3))
        path = str(tmp_path / "run.bin")
        write_sorted_run(path, run)
        assert not os.path.exists(path + ".ovc")

    def test_sidecar_reused_not_recomputed(self, tmp_path, monkeypatch):
        """A poisoned sidecar changes merge output: proof it was trusted."""
        from repro.kvpairs.spill import Run

        monkeypatch.setenv(KERNELS_ENV, "ovc")
        run = sort_batch(teragen(3000, seed=4))
        path = str(tmp_path / "run.bin")
        write_sorted_run(path, run)
        kernels.stats.reset()
        out = RecordBatch.concat(
            list(merge_runs([Run.from_file(path), run], window_records=512))
        )
        assert_batches_equal(
            out, sort_batch(RecordBatch.concat([run, run]))
        )


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

    def test_partitioner_modes_agree(self, monkeypatch):
        part = RangePartitioner.from_sample(teragen(512, seed=6), 9)
        batch = teragen(int(kernels.RADIX_MIN_BATCH * 2), seed=7)
        monkeypatch.setenv(KERNELS_ENV, "classic")
        classic = part.partition_indices(batch)
        monkeypatch.setenv(KERNELS_ENV, "ovc")
        ovc = part.partition_indices(batch)
        assert np.array_equal(classic, ovc)

    def test_pickle_drops_radix_cache(self, monkeypatch):
        import pickle

        monkeypatch.setenv(KERNELS_ENV, "ovc")
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

    def test_hash_file_modes_agree(self, monkeypatch):
        part = RangePartitioner.uniform(6)
        batch = teragen(5000, seed=12)
        monkeypatch.setenv(KERNELS_ENV, "classic")
        classic = hash_file(batch, part)
        monkeypatch.setenv(KERNELS_ENV, "ovc")
        ovc = hash_file(batch, part)
        assert len(classic) == len(ovc)
        for c, o in zip(classic, ovc):
            assert_batches_equal(c, o)


# ---------------------------------------------------------------------------
# End-to-end byte identity: both kernel modes, both schedules.
# ---------------------------------------------------------------------------


class TestEndToEndByteIdentity:
    @pytest.mark.parametrize("k,r", [(4, 1), (6, 2), (8, 3)])
    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_coded_terasort_modes_identical(
        self, k, r, schedule, monkeypatch, thread_cluster_factory
    ):
        from repro.core.coded_terasort import run_coded_terasort

        data = teragen(3000, seed=100 * k + r)
        outs = {}
        for mode in ("classic", "ovc"):
            monkeypatch.setenv(KERNELS_ENV, mode)
            run = run_coded_terasort(
                thread_cluster_factory(k), data, redundancy=r,
                schedule=schedule,
            )
            outs[mode] = run.partitions
        assert len(outs["classic"]) == len(outs["ovc"]) == k
        for c, o in zip(outs["classic"], outs["ovc"]):
            assert_batches_equal(c, o)

    @pytest.mark.parametrize("k", [4, 8])
    def test_terasort_modes_identical(
        self, k, monkeypatch, thread_cluster_factory
    ):
        from repro.core.terasort import run_terasort

        data = teragen(4000, seed=k)
        outs = {}
        for mode in ("classic", "ovc"):
            monkeypatch.setenv(KERNELS_ENV, mode)
            outs[mode] = run_terasort(thread_cluster_factory(k), data).partitions
        for c, o in zip(outs["classic"], outs["ovc"]):
            assert_batches_equal(c, o)


# ---------------------------------------------------------------------------
# Stats accounting
# ---------------------------------------------------------------------------


class TestKernelStats:
    def test_merge_counts(self):
        kernels.stats.reset()
        stream = teragen(2000, seed=14)
        rng = np.random.default_rng(14)
        runs = [
            RunColumns.from_batch(r)
            for r in split_sorted_runs(stream, rng, 2)
            if len(r)
        ]
        merge_sorted_columns(runs)
        snap = kernels.stats.snapshot()
        assert snap["merge_records"] == 2000
        assert snap["rank_queries"] > 0
        assert (
            snap["prefix_resolved"] + snap["fallback_queries"]
            == snap["rank_queries"]
        )
        # TeraGen keys essentially never tie on the 8-byte prefix.
        assert snap["fallback_queries"] <= snap["rank_queries"] * 0.01
        assert 0 < kernels.stats.key_bytes_per_query() < 10.0

    def test_duplicate_compression_engages(self):
        kernels.stats.reset()
        rng = np.random.default_rng(15)
        stream = duplicate_heavy_batch(rng, 4000)
        runs = [
            RunColumns.from_batch(r)
            for r in split_sorted_runs(stream, rng, 2)
            if len(r)
        ]
        merge_sorted_columns(runs)
        snap = kernels.stats.snapshot()
        assert snap["dup_records_skipped"] > 0
        assert snap["rank_queries"] < 4000
