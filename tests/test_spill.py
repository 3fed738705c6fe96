"""Spill layer: run files, the streaming external merge, spill hygiene.

The external-merge contracts the out-of-core sort's byte-identity rests
on:

* duplicate keys across runs keep stable order (earlier run wins, and
  ties crossing a merge-window boundary are pulled into the same round);
* empty runs contribute nothing and never wedge the merge;
* a single live run takes the no-compare re-chunking fast path;
* mmap-backed run views stay valid after the backing file object is
  closed and even after the file is unlinked (NumPy holds the mapping);
* ``ExternalSorter`` + ``merge_runs`` reproduce one stable in-RAM sort
  byte-for-byte;
* ``StreamStore`` lays out per-key streams in append order regardless of
  flush timing (the XOR-coding determinism requirement);
* spill dirs disappear on cleanup/context-exit and ``sweep_stale`` reaps
  dirs whose creator pid is dead.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.sorting import is_sorted, sort_batch
from repro.kvpairs.spill import (
    ExternalSorter,
    Run,
    SpillDir,
    StreamStore,
    merge_runs,
    read_blob,
    read_run_file,
    spill_blob,
    write_run_file,
)
from repro.kvpairs.teragen import teragen
from repro.utils.residency import ResidencyMeter


def _dup_batch(n, key_levels, seed=0):
    """Records with heavily duplicated keys and unique traceable values."""
    rng = np.random.default_rng(seed)
    keys = np.zeros((n, 10), np.uint8)
    keys[:, 0] = rng.integers(0, key_levels, size=n)
    values = np.zeros((n, 90), np.uint8)
    values[:, :8] = (
        np.arange(n, dtype=np.uint64).view(np.uint8).reshape(n, 8)
    )
    return RecordBatch.from_arrays(keys, values)


class TestMergeRuns:
    def test_duplicate_keys_across_runs_stable(self, tmp_path):
        # Three runs full of equal keys: output must equal the stable
        # sort of their concatenation (run order breaks every tie).
        stream = _dup_batch(900, key_levels=2)
        chunks = [
            sort_batch(stream.slice(i, i + 300)) for i in range(0, 900, 300)
        ]
        runs = []
        for i, chunk in enumerate(chunks):
            path = str(tmp_path / f"run-{i}.bin")
            write_run_file(path, [chunk])
            runs.append(Run.from_file(path))
        # Tiny windows force boundary ties to cross window edges.
        merged = RecordBatch.concat(
            list(merge_runs(runs, window_records=7, out_records=11))
        )
        ref = sort_batch(stream)
        assert np.array_equal(merged.array, ref.array)

    def test_window_boundary_ties_pulled_into_round(self, tmp_path):
        # Run 0 ends a window exactly on a duplicated key that continues
        # into its next window; run 1 holds the same key.  Stability
        # requires ALL of run 0's copies before any of run 1's.
        same = np.full((8, 10), 5, np.uint8)
        v0 = np.zeros((8, 90), np.uint8)
        v0[:, 0] = np.arange(8)
        r0 = RecordBatch.from_arrays(same, v0)
        v1 = np.zeros((3, 90), np.uint8)
        v1[:, 0] = 100 + np.arange(3)
        r1 = RecordBatch.from_arrays(same[:3], v1)
        merged = RecordBatch.concat(
            list(merge_runs([r0, r1], window_records=2, out_records=64))
        )
        order = merged.raw_view()[:, 10].tolist()
        assert order == list(range(8)) + [100, 101, 102]

    def test_empty_runs(self, tmp_path):
        data = sort_batch(teragen(500, seed=1))
        empty_path = str(tmp_path / "empty.bin")
        open(empty_path, "wb").close()
        runs = [
            RecordBatch.empty(),
            Run.from_file(empty_path),
            Run.resident(data),
            RecordBatch.empty(),
        ]
        merged = RecordBatch.concat(list(merge_runs(runs, window_records=64)))
        assert np.array_equal(merged.array, data.array)
        assert list(merge_runs([RecordBatch.empty()])) == []
        assert list(merge_runs([])) == []

    def test_single_run_fast_path(self):
        data = sort_batch(teragen(1000, seed=2))
        out = list(merge_runs([data], out_records=300))
        assert [len(b) for b in out] == [300, 300, 300, 100]
        assert np.array_equal(RecordBatch.concat(out).array, data.array)
        # Fast-path chunks alias the run (no merge copies were made).
        assert np.shares_memory(out[0].array, data.array)

    def test_unsorted_run_rejected(self):
        bad = teragen(50, seed=3)  # unsorted with overwhelming probability
        assert not is_sorted(bad)
        with pytest.raises(ValueError, match="not sorted"):
            list(merge_runs([bad, bad], window_records=512))
        # The single-run fast path honors the same contract.
        with pytest.raises(ValueError, match="not sorted"):
            list(merge_runs([bad], out_records=512))
        with pytest.raises(ValueError, match="not sorted"):
            # Sorted windows but a boundary violation between them.
            list(merge_runs([bad], out_records=1))


class TestRunFiles:
    def test_mmap_view_survives_file_close_and_unlink(self, tmp_path):
        data = sort_batch(teragen(200, seed=4))
        path = str(tmp_path / "run.bin")
        write_run_file(path, [data])
        batch = read_run_file(path)  # fd is closed inside
        view = batch.slice(50, 150)
        os.unlink(path)  # mapped pages must remain reachable
        assert np.array_equal(view.array, data.array[50:150])
        assert np.array_equal(batch.array, data.array)
        # Views are read-only: the mapping must not be writable.
        with pytest.raises(ValueError):
            batch.array[0] = batch.array[1]

    def test_append_and_sizes(self, tmp_path):
        a, b = teragen(10, seed=5), teragen(20, seed=6)
        path = str(tmp_path / "run.bin")
        assert write_run_file(path, [a, RecordBatch.empty(), b]) == 3000
        run = Run.from_file(path)
        assert run.num_records == 30 and run.nbytes == 30 * RECORD_BYTES
        whole = run.load()
        assert np.array_equal(
            whole.array, RecordBatch.concat([a, b]).array
        )
        windows = list(run.iter_batches(12))
        assert [len(w) for w in windows] == [12, 12, 6]

    def test_blob_roundtrip(self, tmp_path):
        with SpillDir(base=str(tmp_path)) as spill:
            view = spill_blob(spill, b"hello \x00 world")
            assert bytes(view) == b"hello \x00 world"
            empty = spill_blob(spill, b"")
            assert bytes(empty) == b""


class TestExternalSorter:
    def test_matches_stable_sort_byte_for_byte(self, tmp_path):
        stream = _dup_batch(5000, key_levels=7, seed=9)
        meter = ResidencyMeter()
        with SpillDir(base=str(tmp_path)) as spill:
            sorter = ExternalSorter(
                spill, chunk_bytes=40_000, meter=meter
            )
            for i in range(0, 5000, 617):
                sorter.add(stream.slice(i, min(i + 617, 5000)))
            merged = RecordBatch.concat(
                list(sorter.merge(window_records=100, out_records=500))
            )
        assert np.array_equal(merged.array, sort_batch(stream).array)
        assert meter.spilled_bytes == 5000 * RECORD_BYTES
        assert meter.spill_runs > 1  # small chunks really spilled


class TestStreamStore:
    def test_layout_independent_of_flush_timing(self, tmp_path):
        # The same appends with wildly different flush thresholds must
        # produce byte-identical per-key streams (coding determinism).
        data = teragen(600, seed=10)
        windows = [data.slice(i, i + 100) for i in range(0, 600, 100)]

        def build(flush_bytes):
            spill = SpillDir(base=str(tmp_path))
            store = StreamStore(spill, flush_bytes)
            for i, w in enumerate(windows):
                store.append("a" if i % 2 == 0 else "b", w)
            store.finalize()
            return store, spill

        eager, sd1 = build(flush_bytes=RECORD_BYTES)  # flush every append
        lazy, sd2 = build(flush_bytes=1 << 30)  # never flush until final
        try:
            assert eager.keys() == lazy.keys() == ["a", "b"]
            for key in ("a", "b"):
                assert eager.num_records(key) == lazy.num_records(key) == 300
                assert bytes(eager.get_bytes(key)) == bytes(
                    lazy.get_bytes(key)
                )
            ref = RecordBatch.concat(windows[::2])
            assert np.array_equal(eager.get("a").array, ref.array)
            got = RecordBatch.concat(list(eager.iter_batches("a", 70)))
            assert np.array_equal(got.array, ref.array)
        finally:
            sd1.cleanup()
            sd2.cleanup()

    def test_read_before_finalize_rejected(self, tmp_path):
        with SpillDir(base=str(tmp_path)) as spill:
            store = StreamStore(spill, 1 << 20)
            store.append("k", teragen(5, seed=0))
            with pytest.raises(RuntimeError, match="finalize"):
                store.get("k")


class TestSpillHygiene:
    def test_cleanup_idempotent_and_context_exit(self, tmp_path):
        spill = SpillDir(base=str(tmp_path))
        path = spill.new_path()
        write_run_file(path, [teragen(5, seed=0)])
        assert spill.exists
        spill.cleanup()
        spill.cleanup()
        assert not spill.exists
        with SpillDir(base=str(tmp_path)) as sd:
            inner = sd.path
        assert not os.path.isdir(inner)

    def test_sweep_stale_reaps_dead_pids_only(self, tmp_path):
        base = str(tmp_path)
        live = SpillDir(base=base)
        # Forge a dir from a dead pid (re-using an exited child's pid is
        # racy; pid 2**22+1 is above the default pid_max ceiling).
        dead = os.path.join(base, "repro-spill-4194305-job-x")
        os.makedirs(dead)
        bogus = os.path.join(base, "repro-spill-notapid-job-x")
        os.makedirs(bogus)
        removed = SpillDir.sweep_stale(base)
        assert removed == [dead]
        assert live.exists and os.path.isdir(bogus)
        live.cleanup()


class TestIncrementalMerger:
    """Eager pre-merging never changes the final byte stream."""

    def _reference(self, slot_batches):
        ordered = [b for slot in slot_batches for b in slot if len(b)]
        runs = [Run.resident(b) for b in ordered]
        return b"".join(
            chunk.to_bytes() for chunk in merge_runs(runs)
        )

    def _feed_orders(self, num_slots, counts, seed):
        """A few interleavings of (slot, index-within-slot) feed events."""
        rng = np.random.default_rng(seed)
        events = [
            (slot, i) for slot in range(num_slots)
            for i in range(counts[slot])
        ]
        orders = [list(events)]
        for _ in range(3):
            # Within-slot order must be preserved; shuffle then stable-fix.
            perm = list(events)
            rng.shuffle(perm)
            fixed, seen = [], {s: 0 for s in range(num_slots)}
            pos = {
                s: [e for e in perm if e[0] == s] for s in range(num_slots)
            }
            for slot, _ in perm:
                fixed.append((slot, seen[slot]))
                seen[slot] += 1
            orders.append(fixed)
        return orders

    def test_random_feed_orders_match_merge_runs(self):
        from repro.kvpairs.spill import IncrementalMerger

        num_slots, counts = 3, [4, 3, 5]
        slot_batches = [
            [
                sort_batch(_dup_batch(400, 5, seed=10 * s + i))
                for i in range(counts[s])
            ]
            for s in range(num_slots)
        ]
        reference = self._reference(slot_batches)
        for order in self._feed_orders(num_slots, counts, seed=62):
            merger = IncrementalMerger(num_slots)
            for slot, i in order:
                merger.feed(slot, slot_batches[slot][i])
            out = b"".join(c.to_bytes() for c in merger.finish())
            assert out == reference

    def test_eager_merging_happens(self):
        from repro.kvpairs.spill import IncrementalMerger

        merger = IncrementalMerger(1)
        for i in range(8):
            merger.feed(0, sort_batch(_dup_batch(500, 4, seed=i)))
        assert merger.eager_merges > 0
        assert merger.pending_runs < 8

    def test_merged_records_counts_pair_merges_and_finish(self):
        from repro.kvpairs.spill import IncrementalMerger

        runs = [sort_batch(_dup_batch(500, 4, seed=i)) for i in range(4)]
        # Equal-sized runs in one slot (factor 2): (0,1) -> 1000, then
        # (01,2) -> 1500; run 3 is too small to pull that down, so two
        # runs are left for finish to merge.
        ladder = IncrementalMerger(1)
        for run in runs:
            ladder.feed(0, run)
        assert (ladder.eager_merges, ladder.pending_runs) == (2, 2)
        assert ladder.merged_records == 1000 + 1500
        assert sum(len(b) for b in ladder.finish()) == 2000
        assert ladder.merged_records == 2500 + 2000
        # A lone run re-chunks through finish without merging.
        lone = IncrementalMerger(1)
        lone.feed(0, runs[0])
        assert sum(len(b) for b in lone.finish()) == 500
        assert lone.merged_records == 0
        # One run per slot never pair-merges; finish merges all four.
        flat = IncrementalMerger(4)
        for slot, run in enumerate(runs):
            flat.feed(slot, run)
        assert flat.merged_records == 0
        assert sum(len(b) for b in flat.finish()) == 2000
        assert flat.merged_records == 2000

    def test_eager_factor_zero_only_merges_at_finish(self):
        from repro.kvpairs.spill import IncrementalMerger

        runs = [sort_batch(_dup_batch(500, 4, seed=i)) for i in range(8)]
        eager, lazy = IncrementalMerger(1), IncrementalMerger(1, eager_factor=0)
        for run in runs:
            eager.feed(0, run)
            lazy.feed(0, run)
        assert lazy.eager_merges == 0 and lazy.pending_runs == 8
        assert b"".join(c.to_bytes() for c in lazy.finish()) == b"".join(
            c.to_bytes() for c in eager.finish()
        )

    def test_spilled_pair_merge_matches_resident(self, tmp_path):
        from repro.kvpairs.spill import IncrementalMerger

        batches = [
            sort_batch(_dup_batch(600, 6, seed=70 + i)) for i in range(6)
        ]
        reference = self._reference([batches])

        spill = SpillDir(tag="im-test")
        try:
            meter = ResidencyMeter()
            merger = IncrementalMerger(
                1,
                spill=spill,
                resident_limit=2 * 600 * RECORD_BYTES,
                window_records=128,
                out_records=128,
                meter=meter,
            )
            for b in batches:
                merger.feed(0, b)
            out = b"".join(c.to_bytes() for c in merger.finish())
            assert out == reference
        finally:
            spill.cleanup()

    def test_empty_runs_ignored(self):
        from repro.kvpairs.spill import IncrementalMerger

        merger = IncrementalMerger(2)
        merger.feed(0, RecordBatch.empty())
        batch = sort_batch(teragen(200, seed=63))
        merger.feed(1, batch)
        out = b"".join(c.to_bytes() for c in merger.finish())
        assert out == batch.to_bytes()
        assert merger.pending_runs == 1


class TestStreamStoreSeal:
    """Per-key sealing: early reads while other keys still append."""

    def test_sealed_key_readable_before_finalize(self):
        spill = SpillDir(tag="seal-test")
        try:
            store = StreamStore(spill, flush_bytes=1 << 20)
            a = teragen(300, seed=64)
            b = teragen(200, seed=65)
            store.append("a", a)
            store.append("b", b.slice(0, 100))
            store.seal("a")
            assert store.get("a").to_bytes() == a.to_bytes()
            # Other keys keep appending after the seal.
            store.append("b", b.slice(100, 200))
            with pytest.raises(RuntimeError, match="sealed"):
                store.append("a", a)
            with pytest.raises(RuntimeError):
                store.get("b")
            store.finalize()
            assert store.get("b").to_bytes() == b.to_bytes()
            assert store.get("a").to_bytes() == a.to_bytes()
        finally:
            spill.cleanup()

    def test_seal_matches_unsealed_bytes(self):
        """Seal timing never changes a key's byte stream."""
        batches = [teragen(150, seed=66 + i) for i in range(4)]

        def build(seal_early):
            spill = SpillDir(tag="seal-eq")
            try:
                store = StreamStore(spill, flush_bytes=200 * RECORD_BYTES)
                for i, b in enumerate(batches):
                    store.append("k", b.slice(0, 75))
                    store.append("other", b)
                store.append("k", batches[0].slice(75, 150))
                if seal_early:
                    store.seal("k")
                    blob = store.get("k").to_bytes()
                    store.append("other", batches[0])
                    store.finalize()
                    return blob
                store.finalize()
                return store.get("k").to_bytes()
            finally:
                spill.cleanup()

        assert build(True) == build(False)

    def test_seal_unknown_key_reads_empty(self):
        spill = SpillDir(tag="seal-unk")
        try:
            store = StreamStore(spill, flush_bytes=1 << 20)
            store.seal("ghost")
            assert len(store.get("ghost")) == 0
        finally:
            spill.cleanup()


class TestStreamStoreNoSpill:
    """``StreamStore(None, ...)``: the in-memory sort's store."""

    def test_sealed_bytes_match_the_spilled_store(self):
        pieces = [teragen(120, seed=70 + i) for i in range(3)]
        with SpillDir(tag="nospill-eq") as spill:
            spilled = StreamStore(spill, flush_bytes=150 * RECORD_BYTES)
            resident = StreamStore(None, 0)
            for store in (spilled, resident):
                for piece in pieces:
                    store.append("k", piece)
                    store.append("other", piece.slice(0, 10))
                store.seal("k")
                store.seal("ghost")
            assert bytes(resident.get_bytes("k")) == bytes(
                spilled.get_bytes("k")
            )
            assert len(resident.get("ghost")) == 0
            with pytest.raises(RuntimeError):
                resident.get("other")  # neither sealed nor finalized
            resident.finalize()
            assert resident.num_records("other") == 30
            assert len(resident.get("other")) == 30

    def test_take_hands_pieces_on_unserialized_and_drops_them(self):
        from repro.utils import copytrack

        pieces = [teragen(50, seed=80 + i) for i in range(2)]
        store = StreamStore(None, 0)
        for piece in pieces:
            store.append("own", piece)
        with copytrack.track() as copied:
            taken = list(store.take("own"))
        assert copied == {}
        assert [t.array is p.array for t, p in zip(taken, pieces)] == [
            True, True,
        ]
        assert list(store.take("own")) == []

    def test_seal_keeps_a_single_piece_and_joins_several(self):
        from repro.utils import copytrack

        one, two = teragen(40, seed=85), teragen(60, seed=86)
        store = StreamStore(None, 0)
        store.append("single", one)
        # Two files of one subset (``batches_per_subset=2``): two pieces.
        store.append("batched", one)
        store.append("batched", two)
        with copytrack.track() as copied:
            store.seal("single")
            store.seal("batched")
        assert store.get("single").array is one.array
        joined = store.get("batched")
        assert joined.to_bytes() == one.to_bytes() + two.to_bytes()
        assert copied == {"spill.store_seal": joined.nbytes}

    def test_take_under_a_spill_dir_streams_the_sealed_file(self):
        data = teragen(300, seed=90)
        with SpillDir(tag="take-spill") as spill:
            store = StreamStore(spill, flush_bytes=100 * RECORD_BYTES)
            for window in data.iter_slices(70):
                store.append("own", window)
            windows = list(store.take("own", 64))
            assert max(len(w) for w in windows) == 64
            assert RecordBatch.concat(windows).to_bytes() == data.to_bytes()
