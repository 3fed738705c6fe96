"""Shared plumbing for the bounded-memory (out-of-core) sort pipeline.

Both sorts run the one coded pipeline
(:class:`~repro.core.coded_terasort.CodedTeraSortProgram`; TeraSort is its
``r = 1`` corner), and under a ``memory_budget`` it runs a three-part
discipline:

1. **chunked Map** — the input is consumed in bounded windows, hashed per
   window, and the retained output accumulates in a budget-shared store
   (the coded sort's append-order :class:`~repro.kvpairs.spill.StreamStore`,
   the uncoded sort's keyed :class:`~repro.kvpairs.spill.ExternalSorter`);
2. **streaming Shuffle** — spilled values are sent as mmap views, and
   arrivals are spilled back to disk when they don't fit;
3. **streaming Reduce** — an external k-way merge of own + received runs
   (:class:`MergeFrontier`) replaces the one-shot in-RAM sort, emitting
   output either to a part file (``output_dir``) or as a batch.

This module holds the budget arithmetic, the per-run :func:`out_of_core`
resources, :class:`MergeFrontier` (the reduce end with or without a
budget: what happens to an arriving chunk is the pipeline's third
policy), output emission, and the stopwatch pseudo-stage export of the
:class:`~repro.utils.residency.ResidencyMeter` readouts (how peak
residency and spill volume reach the driver with zero extra plumbing).

Budget split rationale (fractions of ``memory_budget``):

* Map — an input window ≤ 1/8; the store's pending pieces up to the
  flush threshold 1/2, plus at most one window's pieces past it: ≤ 3/4.
* Reduce, once the map is done — arrivals are kept while everything
  resident stays ≤ 1/2 (the rest are spilled); merge windows 1/4 split
  across the runs being merged, output chunks 1/8.
* Overlapped, Map and Reduce hold records at the same time, so while the
  map runs Reduce keeps arrivals only in what Map leaves: 1/4, less a
  pair merge's windows (1/16).  A sender's run boundaries never depend
  on this, so the wire does not either.

The split is deterministic from the budget alone, so every replica of a
coded file chunks it identically — a requirement for byte-identical XOR
encoding.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Union

from repro.kvpairs.datasource import FileSource
from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.sorting import sort_batch, sort_batches
from repro.kvpairs.spill import (
    ExternalSorter,
    IncrementalMerger,
    Run,
    SpillDir,
    write_sorted_run,
)
from repro.runtime.program import NodeProgram
from repro.utils.residency import ResidencyMeter

#: Smallest budget accepted — below this the window arithmetic collapses.
MIN_MEMORY_BUDGET = 64 * RECORD_BYTES


def check_memory_budget(memory_budget: Optional[int]) -> None:
    """Raise :class:`ValueError` unless the budget is ``None`` or at least
    :data:`MIN_MEMORY_BUDGET` — the one rule every spec's field obeys."""
    if memory_budget is not None and memory_budget < MIN_MEMORY_BUDGET:
        raise ValueError(
            f"memory_budget must be >= {MIN_MEMORY_BUDGET} bytes, "
            f"got {memory_budget}"
        )


@dataclass(frozen=True)
class OutOfCorePlan:
    """Window/threshold sizing derived deterministically from the budget."""

    memory_budget: int
    input_window_records: int
    flush_bytes: int
    sort_chunk_bytes: int
    out_records: int

    @classmethod
    def for_budget(cls, memory_budget: int) -> "OutOfCorePlan":
        check_memory_budget(memory_budget)
        return cls(
            memory_budget=memory_budget,
            input_window_records=max(64, memory_budget // 8 // RECORD_BYTES),
            flush_bytes=memory_budget // 2,
            sort_chunk_bytes=max(RECORD_BYTES, memory_budget // 4),
            out_records=max(64, memory_budget // 8 // RECORD_BYTES),
        )

    @property
    def reduce_while_mapping(self) -> int:
        """What an overlapped Reduce may hold while the map runs beside
        it: the budget less the map's ceiling — the flush threshold, the
        loaded window and one window's overshoot past the threshold."""
        window = self.input_window_records * RECORD_BYTES
        return self.memory_budget - self.flush_bytes - 2 * window

    def merge_window_records(self, num_runs: int) -> int:
        """Per-run merge window: 1/4 of budget split across the runs."""
        per_run = self.memory_budget // 4 // max(1, num_runs)
        return max(64, per_run // RECORD_BYTES)


@dataclass(frozen=True)
class OutOfCore:
    """What one rank's run under a ``memory_budget`` works with."""

    plan: OutOfCorePlan
    spill: SpillDir
    meter: ResidencyMeter


@contextmanager
def out_of_core(
    program: NodeProgram, memory_budget: Optional[int], tag: str
) -> Iterator[Optional[OutOfCore]]:
    """The run's bounded-memory resources, or ``None`` without a budget.

    On exit — success or failure — the spill dir is removed and the
    meter's readouts are shipped home (:func:`export_residency`).
    """
    if memory_budget is None:
        yield None
        return
    oc = OutOfCore(
        OutOfCorePlan.for_budget(memory_budget),
        SpillDir(tag=f"{tag}-r{program.rank}"),
        ResidencyMeter(),
    )
    try:
        yield oc
    finally:
        oc.spill.cleanup()
        export_residency(program, oc.meter, memory_budget)


class MergeFrontier:
    """The reduce end of a sort pipeline: ``feed(slot, chunk)`` / ``finish()``.

    Slots are the priority order of the final stable merge — own values
    first, then senders (TeraSort) or multicast groups (CodedTeraSort) in
    order — and chunks within a slot arrive in stream order, so both
    modes yield the bytes of one stable sort over the slot-major
    concatenation of everything fed:

    * **in memory** — chunks are collected *unsorted* and :meth:`finish`
      is one ``sort_batches`` call, staged or overlapped alike: Reduce
      is one sort at the end (the paper's ``std::sort``), and sorting
      chunks on arrival would not make it cheaper.  No merge structure
      exists on this path;
    * **under a budget** — every chunk becomes a sorted run, kept
      resident or spilled (:meth:`_keep_or_spill`), on an
      :class:`IncrementalMerger`, and :meth:`finish` is one external
      ``merge_runs``.  Staged, the runs wait untouched; overlapped
      (``eager``), the merger pre-merges them while the shuffle is still
      in flight, which bounds how many runs split the final merge's
      window budget.
    """

    def __init__(
        self, num_slots: int, eager: bool, oc: Optional[OutOfCore] = None
    ) -> None:
        self._oc = oc
        self._chunks: Optional[List[List[RecordBatch]]] = None
        self._sorter: Optional[ExternalSorter] = None
        self._sorter_slot = 0
        #: Overlapped, while the map runs: the bytes Reduce may still
        #: keep resident (``None`` staged, and once :meth:`map_done`).
        self._room: Optional[int] = None
        if oc is None:
            self._chunks = [[] for _ in range(num_slots)]
        else:
            self._merger = IncrementalMerger(
                num_slots,
                spill=oc.spill,
                resident_limit=oc.plan.memory_budget // 8,
                window_records=oc.plan.merge_window_records(8),
                out_records=oc.plan.out_records,
                meter=oc.meter,
                eager_factor=2.0 if eager else 0,
                tag="ov-merge",
            )
        if oc is not None and eager:
            # What the running map leaves, less a pair merge's windows.
            pair = 2 * oc.plan.merge_window_records(8) * RECORD_BYTES
            self._room = max(0, oc.plan.reduce_while_mapping - pair)

    def map_done(self) -> None:
        """The map has finished: arrivals may fill half the budget."""
        self._room = None

    def _keep_or_spill(self, batch: RecordBatch, tag: str, owned: bool) -> Run:
        """One sorted chunk -> a resident run if it fits, else a spilled run.

        "Fits" means, while an overlapped map runs, that it fits the room
        the map leaves; otherwise that resident bytes stay under half the
        budget after keeping it.  A kept batch is copied out of whatever
        transient buffer (receive arena, decode output) it currently
        views — unless the caller marks it ``owned`` — so keeping it never
        pins a larger allocation.
        """
        oc = self._oc
        if self._room is None:
            fits = (
                oc.meter.resident_bytes + batch.nbytes
                <= oc.plan.memory_budget // 2
            )
        else:
            fits = batch.nbytes <= self._room
        if fits:
            kept = batch if owned else batch.copy()
            oc.meter.charge(kept.nbytes, f"{tag}.resident")
            if self._room is not None:
                self._room -= kept.nbytes
            return Run.resident(kept)
        path = oc.spill.new_path(tag)
        write_sorted_run(path, batch)
        oc.meter.spilled(batch.nbytes)
        return Run.from_file(path, len(batch))

    def feed(
        self,
        slot: int,
        chunk: Union[RecordBatch, Run],
        presorted: bool = False,
        tag: str = "recv",
    ) -> None:
        """The next chunk of ``slot``: a sealed sorted :class:`Run`, or a
        batch — unsorted unless ``presorted`` (under a budget senders
        ship sorted runs).  A batch may view a receive arena: under a
        budget it is copied out of it (or spilled) before this returns;
        in memory the view is held until :meth:`finish`."""
        if self._chunks is not None:
            self._chunks[slot].append(chunk)
            return
        oc = self._oc
        if isinstance(chunk, RecordBatch):
            if presorted:
                chunk = self._keep_or_spill(chunk, tag, owned=False)
            else:
                oc.meter.charge(chunk.nbytes, f"{tag}.unsorted")
                ordered = sort_batch(chunk)
                oc.meter.discharge(chunk.nbytes)
                chunk = self._keep_or_spill(ordered, tag, owned=True)
        self._merger.feed(slot, chunk)

    def feed_decoded(self, slot: int, buf, tag: str = "recv") -> None:
        """A decoded ``I^rank_S`` — raw packed records — as ``slot``'s
        chunk, wrapped read-only without copying (:meth:`feed` copies
        it out under a budget; in memory the one sort copies it)."""
        self.feed(slot, RecordBatch.from_buffer(buf), tag=tag)

    def feed_stream(
        self, slot: int, windows: Iterable[Union[RecordBatch, Run]]
    ) -> None:
        """All of ``slot`` as one ordered stream of unsorted windows — or,
        under a budget, of sorted runs (the uncoded sort's map-side
        :class:`~repro.kvpairs.spill.ExternalSorter` stream), which join
        the merge as they are.

        Streams must be fed in ascending slot order: under a budget one
        external sort runs across the windows (its chunks may span slots
        — the stable merge only needs their order) and its runs enter at
        the first stream's slot.
        """
        if self._chunks is not None:
            self._chunks[slot].extend(windows)
            return
        if self._sorter is None:
            self._sorter = ExternalSorter(
                self._oc.spill,
                self._oc.plan.sort_chunk_bytes,
                self._oc.meter,
                tag="own",
            )
            self._sorter_slot = slot
        for window in windows:
            if isinstance(window, Run):
                self._merger.feed(slot, window)
            else:
                self._sorter.add(window)

    def finish(
        self, program: NodeProgram, output_dir: Optional[str] = None
    ) -> Union[RecordBatch, FileSource]:
        """``program``'s sorted partition (a part file under
        ``output_dir``); what the merger pushed through merges on the
        way is stamped on its stopwatch (:data:`KS_MERGE_KEY`)."""
        if self._chunks is not None:
            return sort_batches([c for slot in self._chunks for c in slot])
        if self._sorter is not None:
            for run in self._sorter.finish():
                self._merger.feed(self._sorter_slot, run)
        oc = self._oc
        merged = self._merger.finish(
            window_records=oc.plan.merge_window_records(
                max(2, self._merger.pending_runs)
            )
        )
        output = emit_output(merged, program.rank, output_dir, oc.meter)
        if self._merger.merged_records:
            program.stopwatch.add(
                KS_MERGE_KEY, float(self._merger.merged_records)
            )
        return output


def emit_output(
    merged: Iterator[RecordBatch],
    rank: int,
    output_dir: Optional[str],
    meter: ResidencyMeter,
) -> Union[RecordBatch, FileSource]:
    """Drain the merged stream into the program's result.

    With ``output_dir`` the sorted partition streams straight to
    ``part-<rank>`` (constant memory; the result is a
    :class:`~repro.kvpairs.datasource.FileSource` descriptor).  Without it
    the partition is materialized — convenient for small outputs, but the
    materialized bytes are charged to the meter, so budget assertions
    will fail unless an ``output_dir`` is used for genuinely large runs.
    """
    if output_dir is None:
        parts = []
        for batch in merged:
            owned = batch.copy()
            meter.charge(owned.nbytes, "output.resident")
            parts.append(owned)
        return RecordBatch.concat(parts)
    os.makedirs(output_dir, exist_ok=True)
    path = os.path.join(output_dir, f"part-{rank:05d}")
    count = 0
    with open(path, "wb") as f:
        for batch in merged:
            f.write(batch.as_memoryview())
            count += len(batch)
    return FileSource(path, 0, count)


#: Pseudo-stage names carrying residency readouts to the driver.
OC_PEAK_KEY = "oc_peak_resident_bytes"
OC_SPILLED_KEY = "oc_spilled_bytes"
OC_RUNS_KEY = "oc_spill_runs"
OC_BUDGET_KEY = "oc_memory_budget_bytes"


#: Pseudo-stage carrying a rank's merged-record count to the driver.
KS_MERGE_KEY = "ks_merge_records"


def export_residency(
    program: NodeProgram, meter: ResidencyMeter, memory_budget: int
) -> None:
    """Ship the meter home through the stopwatch pseudo-stage channel."""
    program.stopwatch.add(OC_PEAK_KEY, float(meter.peak_resident_bytes))
    program.stopwatch.add(OC_SPILLED_KEY, float(meter.spilled_bytes))
    program.stopwatch.add(OC_RUNS_KEY, float(meter.spill_runs))
    program.stopwatch.add(OC_BUDGET_KEY, float(memory_budget))


def residency_meta(per_node_times: List[Dict[str, float]]) -> Dict[str, object]:
    """Driver-side aggregation of the per-rank residency pseudo-stages."""
    peaks = [t.get(OC_PEAK_KEY, 0.0) for t in per_node_times]
    return {
        "oc_peak_resident_bytes": int(max(peaks, default=0.0)),
        "oc_per_node_peak_resident_bytes": [int(p) for p in peaks],
        "oc_spilled_bytes": int(
            sum(t.get(OC_SPILLED_KEY, 0.0) for t in per_node_times)
        ),
        "oc_spill_runs": int(
            sum(t.get(OC_RUNS_KEY, 0.0) for t in per_node_times)
        ),
    }


def stats_meta(per_node_times: List[Dict[str, float]]) -> Dict[str, int]:
    """The ``SortRun.meta["kernel_stats"]`` payload: records that went
    through a merge, summed over the ranks' :data:`KS_MERGE_KEY` stamps
    (0 for an in-memory job, whose Reduce is one sort).  Counted per
    program, so concurrent rank threads never see each other's merges.
    """
    return {
        "merge_records": int(
            sum(t.get(KS_MERGE_KEY, 0.0) for t in per_node_times)
        )
    }
