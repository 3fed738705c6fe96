"""DataSource descriptors: equivalence, splitting, and control-plane size.

The acceptance property under test: for file/teragen inputs the control
plane carries *descriptors*, never record payloads — a prepared job's
per-rank pickles stay ~hundreds of bytes no matter the dataset size —
while every way of reading a source (load, stream, subrange, via a
placement split) yields byte-identical records.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.placement import CodedPlacement, UncodedPlacement, split_even_ranges
from repro.core.terasort import TeraSortSpec
from repro.core.coded_terasort import CodedTeraSortSpec
from repro.kvpairs.datasource import (
    DEFAULT_BATCH_RECORDS,
    FileSource,
    InlineSource,
    TeragenSource,
    as_source,
)
from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.teragen import teragen, teragen_to_file
from repro.kvpairs.validation import validate_sorted_iter


class TestTeragenSource:
    def test_subrange_alignment_independence(self):
        src = TeragenSource(150_000, seed=21)
        full = src.load()
        assert len(full) == 150_000
        for start, count in ((0, 10), (65_530, 20), (99_999, 50_001)):
            sub = src.subrange(start, count)
            assert isinstance(sub, TeragenSource)
            assert np.array_equal(
                sub.load().array, full.slice(start, start + count).array
            )

    def test_iter_matches_load_any_window(self):
        src = TeragenSource(30_000, seed=2, start_row=123)
        full = src.load()
        for window in (999, DEFAULT_BATCH_RECORDS, 70_000):
            got = RecordBatch.concat(list(src.iter_batches(window)))
            assert np.array_equal(got.array, full.array)

    def test_row_ids_absolute(self):
        from repro.kvpairs.teragen import extract_row_ids

        sub = TeragenSource(100, seed=0, start_row=70_000)
        ids = extract_row_ids(sub.load())
        assert ids.tolist() == list(range(70_000, 70_100))

    def test_sample_bounded(self):
        src = TeragenSource(1_000_000, seed=0)
        assert len(src.sample(500)) == 500
        assert len(TeragenSource(3, seed=0).sample(500)) == 3

    def test_subrange_bounds_checked(self):
        with pytest.raises(ValueError):
            TeragenSource(10, seed=0).subrange(5, 6)

    @pytest.mark.parametrize("kwargs,field", [
        (dict(count=-5), "count"),
        (dict(count=5, start_row=-1), "start_row"),
    ])
    def test_negative_rows_rejected_by_name(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be >= 0"):
            TeragenSource(**kwargs)


class TestFileSource:
    def test_gen_file_equals_teragen_source(self, tmp_path):
        path = str(tmp_path / "data.bin")
        written = teragen_to_file(path, 20_000, seed=5)
        assert written == 20_000 * RECORD_BYTES
        fs = FileSource(path)
        ts = TeragenSource(20_000, seed=5)
        assert fs.num_records == 20_000
        assert np.array_equal(fs.load().array, ts.load().array)
        sub = fs.subrange(7_000, 6_000)
        assert np.array_equal(
            sub.load().array, ts.subrange(7_000, 6_000).load().array
        )

    def test_ragged_file_rejected(self, tmp_path):
        path = tmp_path / "ragged.bin"
        path.write_bytes(b"x" * 150)
        with pytest.raises(ValueError, match="not a multiple"):
            FileSource(str(path)).num_records

    def test_strided_sample(self, tmp_path):
        path = str(tmp_path / "data.bin")
        teragen_to_file(path, 1_000, seed=6)
        sample = FileSource(path).sample(10)
        assert len(sample) == 10


class TestInlineSource:
    def test_load_is_the_batch(self):
        batch = teragen(100, seed=1)
        src = InlineSource(batch)
        assert src.load() is batch
        assert np.shares_memory(src.subrange(10, 50).load().array, batch.array)

    def test_as_source(self):
        batch = teragen(5, seed=0)
        assert isinstance(as_source(batch), InlineSource)
        src = TeragenSource(5, seed=0)
        assert as_source(src) is src
        with pytest.raises(TypeError):
            as_source([1, 2, 3])


class TestPlacementSplits:
    def test_split_even_ranges_arithmetic(self):
        assert split_even_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]
        assert split_even_ranges(2, 4) == [(0, 1), (1, 2), (2, 2), (2, 2)]
        with pytest.raises(ValueError):
            split_even_ranges(5, 0)

    @pytest.mark.parametrize("placement", [
        UncodedPlacement(4),
        CodedPlacement(5, 2),
        CodedPlacement(4, 2, batches_per_subset=3),
    ])
    def test_split_source_matches_place(self, placement):
        data = teragen(1003, seed=7)
        placed = placement.place(data)
        split = placement.split_source(InlineSource(data))
        assert len(split) == placement.num_files
        for fa, sub in zip(placed, split):
            assert np.array_equal(fa.data.array, sub.load().array)


class TestControlPlanePayloads:
    """File/teragen prepared jobs ship descriptors, not record bytes."""

    def _payload_sizes(self, job):
        return [len(pickle.dumps(p)) for p in job.payloads]

    def test_terasort_descriptor_payloads(self, tmp_path):
        n = 50_000  # 5 MB of records
        path = str(tmp_path / "data.bin")
        teragen_to_file(path, n, seed=1)
        for source in (TeragenSource(n, seed=1), FileSource(path)):
            job = TeraSortSpec(input=source).prepare(4)
            sizes = self._payload_sizes(job)
            assert max(sizes) < 2_000, sizes  # descriptors only
        inline = TeraSortSpec(teragen(n, seed=1)).prepare(4)
        assert max(self._payload_sizes(inline)) > n * RECORD_BYTES // 8

    def test_coded_descriptor_payloads(self):
        n = 50_000
        job = CodedTeraSortSpec(
            input=TeragenSource(n, seed=1), redundancy=2
        ).prepare(4)
        sizes = self._payload_sizes(job)
        # C(3,1)=3 files per node, each a ~100-byte descriptor.
        assert max(sizes) < 4_000, sizes

    @pytest.mark.parametrize("n", [10_000, 1_000_000])
    def test_payloads_never_carry_the_input(self, n, tmp_path):
        """Each rank's payload holds the spec *with its input stripped*:
        descriptor jobs stay under 4 KiB however large the dataset (the
        file source is sized, never read), and an inline job ships each
        rank its own shard once — not the spec's whole batch beside it."""
        path = str(tmp_path / "data.bin")
        with open(path, "wb") as fh:
            fh.truncate(n * RECORD_BYTES)
        options = dict(
            memory_budget=1 << 20, sampled_partitioner=False, overlap=True
        )
        for source in (TeragenSource(n, seed=1), FileSource(path)):
            for spec in (
                TeraSortSpec(input=source, **options),
                TeraSortSpec(input=source, speculation=True),
                CodedTeraSortSpec(input=source, redundancy=2, **options),
                CodedTeraSortSpec(input=source, redundancy=1, group_size=2),
            ):
                sizes = self._payload_sizes(spec.prepare(4))
                assert max(sizes) < 4096, (type(spec).__name__, sizes)
        data = teragen(10_000, seed=2)
        for spec, shard_records in (
            (TeraSortSpec(data), 10_000 // 4),
            (CodedTeraSortSpec(data, 2), 10_000 // 2),  # r/K of the input
        ):
            job = spec.prepare(4)
            assert all(p[0].data is None and p[0].input is None
                       for p in job.payloads)
            bound = shard_records * RECORD_BYTES + 4096
            assert max(self._payload_sizes(job)) <= bound

    def test_file_source_sort_matches_inline(self, tmp_path):
        # Same bytes through both input paths -> identical SortRun output.
        from repro.runtime.inproc import ThreadCluster

        n = 12_000
        path = str(tmp_path / "data.bin")
        teragen_to_file(path, n, seed=3)
        data = FileSource(path).load().copy()
        cluster = ThreadCluster(3)

        def run(job):
            cr = cluster.run(
                lambda comm: job.builder(comm, job.payloads[comm.rank])
            )
            return job.finalize(cr)

        by_file = run(TeraSortSpec(input=FileSource(path)).prepare(3))
        by_value = run(TeraSortSpec(data).prepare(3))
        for a, b in zip(by_file.partitions, by_value.partitions):
            assert np.array_equal(a.array, b.array)
        validate_sorted_iter(by_file.partitions)
