"""CodedTeraSort: the paper's contribution (§IV).

Six stages per node (§V-A):

1. **CodeGen** — build the coding plan: multicast groups, memberships, and
   the multicast schedule (cost grows as ``C(K, r+1)``);
2. **Map** — hash every locally placed file ``F_S`` (``rank ∈ S``), keeping
   ``I^rank_S`` and ``{I^i_S : i ∉ S}`` per the retention rule;
3. **Encode** — serialize intermediate values and build one coded packet
   ``E_{M, rank}`` per group ``M ∋ rank`` (Algorithm 1);
4. **Multicast Shuffle** — deliver every coded packet to the group's other
   ``r`` members;
5. **Decode** — recover every missing ``I^rank_S`` (``rank ∉ S``) from the
   received packets (Algorithm 2) and deserialize;
6. **Reduce** — locally sort partition ``P_rank``.

Two shuffle schedules are supported (the ``schedule`` knob):

* ``"serial"`` — the paper's Fig. 9(b) execution: one ``(group, sender)``
  turn at a time, enforced by a cluster barrier between turns, with
  Encode fully preceding Shuffle preceding Decode.  This is the faithful
  baseline the paper measures.
* ``"parallel"`` — the §VI "asynchronous execution" future work: the
  turns are greedily colored into rounds of node-disjoint groups
  (:meth:`~repro.core.groups.CodingPlan.rounds_for`, fixing the posting
  order; no inter-round barrier at runtime) and executed by the
  non-blocking pipeline engine
  (:func:`~repro.runtime.program.pipelined_multicast_shuffle`): all
  receives are posted up front, packets are encoded lazily right before
  their round, and each group decodes as soon as its packets arrive —
  Encode / Shuffle / Decode overlap instead of barrier-separating.

Stage-time attribution under the parallel schedule stays *exclusive*:
encode and decode work done inside the shuffle loop is charged to the
``encode`` / ``decode`` stages and only the remaining span (communication
plus waiting) to ``shuffle``, so the six stage times still sum to
wall-clock; ``SortRun.meta["shuffle_span_seconds"]`` preserves the full
overlapped span.  Both schedules produce byte-identical sorted output.

The intermediate-value store is keyed by file *subset* (with
``batches_per_subset > 1``, the files of a subset are concatenated before
encoding, as in the batched CMR scheme of [9]).

Out-of-core execution: placed files arrive as
:class:`~repro.kvpairs.datasource.DataSource` descriptors (workers
stream their own splits; the control plane carries no record bytes for
file/teragen inputs), and a ``memory_budget`` switches the node program
to the bounded pipeline — Map streams each file in windows and retains
intermediates in a disk-spilling :class:`~repro.kvpairs.spill.StreamStore`
(append order is window order, deterministic from the budget alone, so
every replica of a subset lays out byte-identical ``I^t_S`` — the XOR
coding requirement holds on disk exactly as it did in RAM); Encode/Decode
read the store through zero-copy mmap views; and Reduce externally sorts
own + decoded records (spilled sorted runs, streaming k-way merge)
instead of one in-RAM sort.  Output stays byte-identical to the
in-memory path under both schedules.

The compute hot path (Map's partition pass, Reduce's merge) runs on the
kernels of :mod:`repro.kvpairs.kernels` — MSB radix partition and the
offset-value-coded merge, with ``.ovc`` code sidecars persisted next to
spilled runs; ``REPRO_KERNELS=classic`` selects the plain
``searchsorted`` implementations.  Both are byte-identical, on either
schedule.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.coded_common import group_store_by_subset
from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import (
    CodingPlan,
    build_coding_plan,
    check_schedule,
    parallel_schedule_meta,
)
from repro.core.mapper import hash_file, map_node_coded
from repro.core.outofcore import (
    OutOfCorePlan,
    emit_output,
    export_residency,
    keep_or_spill,
    residency_meta,
)
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement
from repro.core.terasort import SortRun, _build_partitioner_from_source
from repro.kvpairs import kernels
from repro.kvpairs.datasource import DataSource, FileSource, as_source
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batch, sort_batches
from repro.kvpairs.spill import (
    ExternalSorter,
    IncrementalMerger,
    Run,
    SpillDir,
    StreamStore,
    merge_runs,
)
from repro.runtime.api import Comm
from repro.runtime.program import (
    ClusterResult,
    NodeProgram,
    PreparedJob,
    execute_multicast_shuffle,
    overlap_meta,
    overlapped_multicast_shuffle,
)
from repro.utils.residency import ResidencyMeter
from repro.utils.subsets import Subset, without

#: Tag base for multicast shuffle; group index is added per packet.
MULTICAST_TAG_BASE = 10_000

STAGES_CODED = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


class CodedTeraSortProgram(NodeProgram):
    """Per-node CodedTeraSort execution.

    Args:
        comm: communication endpoint.
        files: file id -> data for every file placed on this node
            (resident batches or :class:`DataSource` descriptors the node
            reads locally).
        subsets: file id -> node subset ``S`` (``rank ∈ S``).
        partitioner: shared ``K``-way range partitioner.
        redundancy: the computation-load parameter ``r``.
        schedule: ``"serial"`` (Fig. 9(b) turns) or ``"parallel"``
            (pipelined conflict-free rounds); see the module docstring.
        memory_budget: cap (bytes) on resident record buffers; ``None``
            is the seed in-memory path, a value runs the out-of-core
            pipeline (byte-identical output, both schedules).
        output_dir: with a budget, stream the sorted partition to
            ``<output_dir>/part-<rank>`` and return a ``FileSource``.
        overlap: streaming phase overlap — interleave Map with the coded
            shuffle (a group multicasts as soon as every subset it draws
            on is fully mapped) and feed Reduce incrementally; output
            stays byte-identical to the staged execution.
    """

    STAGES = STAGES_CODED

    def __init__(
        self,
        comm: Comm,
        files: Dict[int, Union[RecordBatch, DataSource]],
        subsets: Dict[int, Subset],
        partitioner: RangePartitioner,
        redundancy: int,
        schedule: str = "serial",
        memory_budget: Optional[int] = None,
        output_dir: Optional[str] = None,
        overlap: bool = False,
    ) -> None:
        super().__init__(comm)
        check_schedule(schedule)
        self.files = files
        self.subsets = subsets
        self.partitioner = partitioner
        self.redundancy = redundancy
        self.schedule = schedule
        self.memory_budget = memory_budget
        self.output_dir = output_dir
        self.overlap = overlap
        #: Telemetry from the pipelined engine (parallel schedule only).
        self.shuffle_telemetry: Dict[str, float] = {}
        #: Residency accounting for the out-of-core path (None otherwise).
        self.meter: Optional[ResidencyMeter] = None

    def run(self) -> Union[RecordBatch, FileSource]:
        before_ks = kernels.stats.snapshot()
        try:
            return self._execute()
        finally:
            kernels.export_stats(self.stopwatch, before_ks)

    def _execute(self) -> Union[RecordBatch, FileSource]:
        if self.memory_budget is not None:
            return self._run_out_of_core()
        if self.overlap:
            return self._run_overlap()
        rank = self.rank

        with self.stage("codegen"):
            plan: CodingPlan = build_coding_plan(self.size, self.redundancy)
            my_groups = plan.groups_of_node[rank]
            rounds = (
                plan.rounds_for("parallel")
                if self.schedule == "parallel"
                else None
            )

        with self.stage("map"):
            resident_files = {
                fid: as_source(data).load() for fid, data in self.files.items()
            }
            kept = map_node_coded(
                rank, resident_files, self.subsets, self.partitioner
            )
            # Store keyed by (subset, target); batches of a subset concatenated.
            store: Dict[Tuple[Subset, int], RecordBatch] = group_store_by_subset(
                kept, self.subsets
            )

        serialized: Dict[Tuple[Subset, int], bytes] = {}

        def lookup(subset: Subset, target: int) -> bytes:
            return serialized[(subset, target)]

        # Serialize the intermediate store once (local compute, charged to
        # encode); packet XOR encoding is driven by the schedule executor —
        # eagerly for serial, lazily per round for parallel.
        with self.stage("encode"):
            serialized.update(
                (key, batch.to_bytes()) for key, batch in store.items()
            )

        def encode_for(gidx: int):
            # Gather-list wire form: the XOR arena travels as a payload
            # part next to the header, never joined into one buffer.
            return encode_packet(rank, plan.groups[gidx], lookup).to_parts()

        def recover(gidx: int, payloads: Dict[int, bytes]) -> RecordBatch:
            return self._recover_group(plan, gidx, payloads, lookup)

        decoded_batches, self.shuffle_telemetry = execute_multicast_shuffle(
            self,
            plan.groups,
            my_groups,
            self.schedule,
            plan.schedule,
            rounds,
            MULTICAST_TAG_BASE,
            encode_for,
            recover,
        )

        with self.stage("reduce"):
            own = [
                batch
                for (subset, target), batch in store.items()
                if target == rank and rank in subset
            ]
            decoded = [decoded_batches[gidx] for gidx in my_groups]
            result = sort_batches(own + decoded)
        return result

    def _recover_group(
        self,
        plan: CodingPlan,
        gidx: int,
        raw_packets: Dict[int, bytes],
        lookup,
    ) -> RecordBatch:
        """Algorithm 2 for one group: raw packets -> recovered record batch.

        Zero-copy end to end: parsed packets keep their payloads as views
        into the receive arenas, ``recover_intermediate`` decodes every
        segment into one preallocated output buffer, and the batch wraps
        that buffer read-only without copying (the Reduce-stage sort copies
        into its own output anyway).
        """
        packets = {
            sender: CodedPacket.from_bytes(raw)
            for sender, raw in raw_packets.items()
        }
        raw_value = recover_intermediate(
            self.rank, plan.groups[gidx], packets, lookup
        )
        return RecordBatch.from_buffer(raw_value)

    # -- streaming overlap ---------------------------------------------------

    def _codegen_overlap(self):
        """CodeGen for the overlapped run: plan, rounds, readiness sets.

        ``needed[gidx]`` lists the local file subsets group ``gidx``'s
        traffic draws on: this rank's packet for group ``M`` XORs
        ``{I^t_{M\\{t}} : t ∈ M\\{rank}}`` (every such subset contains
        this rank), and decoding the group's inbound packets XORs local
        copies of the *same* subsets back out — so one monotone predicate
        ("all of ``needed[gidx]`` fully mapped") gates both the send and
        the decode of a group.
        """
        with self.stage("codegen"):
            plan: CodingPlan = build_coding_plan(self.size, self.redundancy)
            my_groups = plan.groups_of_node[self.rank]
            rounds = plan.rounds_for(self.schedule)
            needed: Dict[int, List[Subset]] = {
                gidx: [
                    without(plan.groups[gidx], t)
                    for t in plan.groups[gidx]
                    if t != self.rank
                ]
                for gidx in my_groups
            }
        return plan, my_groups, rounds, needed

    def _subset_plan(self):
        """Per-subset map bookkeeping, deterministic from the placement.

        Returns ``(fids, subset_order, remaining, targets)``: file ids in
        map order, subsets in first-appearance order (== the store's own-
        entry order), files left per subset, and each subset's retained
        targets (this rank first, then ascending ``j ∉ S`` — the
        retention rule's insertion order).
        """
        rank = self.rank
        fids = sorted(self.files)
        subset_order: List[Subset] = []
        remaining: Dict[Subset, int] = {}
        targets: Dict[Subset, List[int]] = {}
        for fid in fids:
            subset = self.subsets[fid]
            if rank not in subset:
                raise ValueError(
                    f"node {rank} asked to map file {fid} of subset {subset}"
                )
            if subset not in remaining:
                subset_order.append(subset)
                remaining[subset] = 0
                in_subset = set(subset)
                targets[subset] = [rank] + [
                    j
                    for j in range(self.size)
                    if j != rank and j not in in_subset
                ]
            remaining[subset] += 1
        return fids, subset_order, remaining, targets

    def _run_overlap(self) -> RecordBatch:
        """Streaming overlap, in-memory: Map / Encode / Shuffle / Decode /
        Reduce as one event loop.

        Files are mapped one at a time; the moment a subset's last file
        is hashed, its intermediate values are serialized and every group
        whose ``needed`` subsets are now complete multicasts (posting
        priority = the schedule's round order; no barriers).  Decoded
        groups and own partition values feed an
        :class:`~repro.kvpairs.spill.IncrementalMerger` whose slot order
        replays the staged reduce concatenation — own store entries in
        store order, then decoded groups in ``my_groups`` order — so the
        final merge is byte-identical to the staged
        ``sort_batch(concat(...))``.
        """
        rank = self.rank
        plan, my_groups, rounds, needed = self._codegen_overlap()
        fids, subset_order, remaining, targets = self._subset_plan()

        slot_of_own = {subset: i for i, subset in enumerate(subset_order)}
        slot_of_group = {
            gidx: len(subset_order) + i for i, gidx in enumerate(my_groups)
        }
        merger = IncrementalMerger(len(subset_order) + len(my_groups))

        acc: Dict[Tuple[Subset, int], List[RecordBatch]] = {}
        completed: set = set()
        serialized: Dict[Tuple[Subset, int], bytes] = {}

        def lookup(subset: Subset, target: int) -> bytes:
            return serialized[(subset, target)]

        def complete_subset(subset: Subset) -> None:
            """Seal a fully-mapped subset: serialize its outbound values
            (encode) and feed its own partition into the merge (reduce)."""
            completed.add(subset)
            for target in targets[subset]:
                value = RecordBatch.concat(acc.pop((subset, target), []))
                if target == rank:
                    with self.stage("reduce"):
                        merger.feed(slot_of_own[subset], sort_batch(value))
                else:
                    with self.stage("encode"):
                        serialized[(subset, target)] = value.to_bytes()

        fid_iter = iter(fids)

        def map_step() -> bool:
            fid = next(fid_iter, None)
            if fid is None:
                return False
            subset = self.subsets[fid]
            parts = hash_file(
                as_source(self.files[fid]).load(), self.partitioner
            )
            for target in targets[subset]:
                acc.setdefault((subset, target), []).append(parts[target])
            remaining[subset] -= 1
            if remaining[subset] == 0:
                complete_subset(subset)
            self.fault_checkpoint()
            return True

        def encode_for(gidx: int):
            return encode_packet(rank, plan.groups[gidx], lookup).to_parts()

        def consume(gidx: int, payloads: Dict[int, bytes]) -> None:
            batch = self._recover_group(plan, gidx, payloads, lookup)
            # sort_batch copies out of the receive arena, so no payload
            # view survives this call.
            with self.stage("reduce"):
                merger.feed(slot_of_group[gidx], sort_batch(batch))

        def group_ready(gidx: int) -> bool:
            return all(s in completed for s in needed[gidx])

        self.shuffle_telemetry = overlapped_multicast_shuffle(
            self,
            plan.groups,
            my_groups,
            rounds,
            MULTICAST_TAG_BASE,
            encode_for,
            consume,
            map_step,
            group_ready,
        )

        with self.stage("reduce"):
            chunks = list(merger.finish())
            return (
                RecordBatch.concat(chunks) if chunks else RecordBatch.empty()
            )

    # -- bounded-memory pipeline --------------------------------------------

    def _run_out_of_core(self) -> Union[RecordBatch, FileSource]:
        """Chunked Map into a spillable store, mmap-fed coding, external
        sort at Reduce.

        Determinism note: the store's append order is (file id ascending,
        window ascending) with windows sized from the budget alone, so
        every replica of subset ``S`` writes byte-identical ``I^t_S``
        streams — XOR encode/decode work on mmap views of those files
        exactly as they worked on resident ``to_bytes()`` buffers.
        Byte-identity of the final output follows from the reduce merge
        ordering: own store entries in store order, then decoded groups in
        ``my_groups`` order — the same concatenation the in-memory path
        stably sorts.
        """
        if self.overlap:
            return self._run_out_of_core_overlap()
        rank = self.rank
        assert self.memory_budget is not None
        plan_oc = OutOfCorePlan.for_budget(self.memory_budget)
        meter = self.meter = ResidencyMeter()
        spill = SpillDir(tag=f"cts-r{rank}")
        try:
            with self.stage("codegen"):
                plan: CodingPlan = build_coding_plan(
                    self.size, self.redundancy
                )
                my_groups = plan.groups_of_node[rank]
                rounds = (
                    plan.rounds_for("parallel")
                    if self.schedule == "parallel"
                    else None
                )

            with self.stage("map"):
                store = StreamStore(
                    spill, plan_oc.flush_bytes, meter, tag="store"
                )
                for fid in sorted(self.files):
                    subset = self.subsets[fid]
                    if rank not in subset:
                        raise ValueError(
                            f"node {rank} asked to map file {fid} "
                            f"of subset {subset}"
                        )
                    in_subset = set(subset)
                    source = as_source(self.files[fid])
                    for window in source.iter_batches(
                        plan_oc.input_window_records
                    ):
                        meter.charge(window.nbytes, "map.window")
                        parts = hash_file(window, self.partitioner)
                        # Retention rule, chunked: I^rank_S plus I^j_S
                        # for j outside S, appended in window order.
                        # hash_file's partitions are views into one
                        # whole-window array; the retained minority is
                        # copied out so the discarded majority really
                        # frees when the window ends (retaining views
                        # would pin the full window while the meter only
                        # charges the kept fraction).
                        store.append((subset, rank), parts[rank].copy())
                        for j in range(self.size):
                            if j != rank and j not in in_subset:
                                store.append((subset, j), parts[j].copy())
                        meter.discharge(window.nbytes)
                store.finalize()

            def lookup(subset: Subset, target: int) -> memoryview:
                # Zero-copy mmap view of the on-disk I^t_S stream.
                return store.get_bytes((subset, target))

            def encode_for(gidx: int):
                return encode_packet(
                    rank, plan.groups[gidx], lookup
                ).to_parts()

            decoded_runs: Dict[int, List[Run]] = {}

            def recover(gidx: int, payloads: Dict[int, bytes]) -> None:
                packets = {
                    sender: CodedPacket.from_bytes(raw)
                    for sender, raw in payloads.items()
                }
                raw_value = recover_intermediate(
                    rank, plan.groups[gidx], packets, lookup
                )
                batch = RecordBatch.from_buffer(raw_value)
                meter.charge(batch.nbytes, "decode.recovered")
                # One stably-sorted chunk per group; kept or spilled, it
                # enters the reduce merge at its my_groups position.
                chunk = sort_batch(batch)
                meter.discharge(batch.nbytes)
                decoded_runs[gidx] = [
                    keep_or_spill(
                        chunk, spill, plan_oc, meter, f"grp-{gidx}",
                        owned=True,
                    )
                ]

            _, self.shuffle_telemetry = execute_multicast_shuffle(
                self,
                plan.groups,
                my_groups,
                self.schedule,
                plan.schedule,
                rounds,
                MULTICAST_TAG_BASE,
                encode_for,
                recover,
            )

            with self.stage("reduce"):
                own_sorter = ExternalSorter(
                    spill, plan_oc.sort_chunk_bytes, meter, tag="own"
                )
                for key in store.keys():
                    subset, target = key
                    if target != rank:
                        continue
                    for window in store.iter_batches(
                        key, plan_oc.input_window_records
                    ):
                        own_sorter.add(window)
                ordered: List[Run] = own_sorter.finish()
                for gidx in my_groups:
                    ordered.extend(decoded_runs.get(gidx, []))
                merged = merge_runs(
                    ordered,
                    window_records=plan_oc.merge_window_records(len(ordered)),
                    out_records=plan_oc.out_records,
                    meter=meter,
                )
                result = emit_output(merged, rank, self.output_dir, meter)
            return result
        finally:
            spill.cleanup()
            export_residency(self, meter, self.memory_budget)

    def _run_out_of_core_overlap(self) -> Union[RecordBatch, FileSource]:
        """Streaming overlap under a memory budget.

        Map streams file windows into the :class:`StreamStore`; the
        moment a subset's last window lands its keys are ``seal``-ed
        (flushed + readable while other keys still append), unlocking
        that subset's multicasts and its own-partition external sort.
        Decoded groups become kept-or-spilled sorted runs feeding the
        incremental merge during the loop; the own stream's sorted runs
        enter slot 0 after Map, preserving the staged reduce's leaf
        order (own runs in store order, then groups in ``my_groups``
        order) — so the merge is byte-identical to the staged path.
        """
        rank = self.rank
        assert self.memory_budget is not None
        plan_oc = OutOfCorePlan.for_budget(self.memory_budget)
        meter = self.meter = ResidencyMeter()
        spill = SpillDir(tag=f"cts-ov-r{rank}")
        try:
            plan, my_groups, rounds, needed = self._codegen_overlap()
            fids, subset_order, remaining, targets = self._subset_plan()
            slot_of_group = {
                gidx: 1 + i for i, gidx in enumerate(my_groups)
            }

            store = StreamStore(
                spill, plan_oc.flush_bytes, meter, tag="store"
            )
            merger = IncrementalMerger(
                1 + len(my_groups),
                spill=spill,
                resident_limit=plan_oc.memory_budget // 8,
                window_records=plan_oc.merge_window_records(8),
                out_records=plan_oc.out_records,
                meter=meter,
                tag="ov-merge",
            )
            own_sorter = ExternalSorter(
                spill, plan_oc.sort_chunk_bytes, meter, tag="own"
            )
            completed: set = set()
            own_fed = 0  # subsets whose own stream has entered the sorter

            def lookup(subset: Subset, target: int) -> memoryview:
                # Zero-copy mmap view of the sealed on-disk I^t_S stream.
                return store.get_bytes((subset, target))

            def advance_own() -> None:
                # Feed own streams in store (= subset first-appearance)
                # order, never skipping ahead of an unfinished subset —
                # the external sort's chunk stream must replay the staged
                # reduce's key walk exactly.
                nonlocal own_fed
                while (
                    own_fed < len(subset_order)
                    and subset_order[own_fed] in completed
                ):
                    key = (subset_order[own_fed], rank)
                    with self.stage("reduce"):
                        for window in store.iter_batches(
                            key, plan_oc.input_window_records
                        ):
                            own_sorter.add(window)
                    own_fed += 1

            def complete_subset(subset: Subset) -> None:
                completed.add(subset)
                for target in targets[subset]:
                    store.seal((subset, target))
                advance_own()

            def window_stream():
                for fid in fids:
                    subset = self.subsets[fid]
                    in_subset = set(subset)
                    source = as_source(self.files[fid])
                    for window in source.iter_batches(
                        plan_oc.input_window_records
                    ):
                        meter.charge(window.nbytes, "map.window")
                        parts = hash_file(window, self.partitioner)
                        # Retained minority copied out, as in the staged
                        # path: keeping views would pin the full window.
                        store.append((subset, rank), parts[rank].copy())
                        for j in range(self.size):
                            if j != rank and j not in in_subset:
                                store.append((subset, j), parts[j].copy())
                        meter.discharge(window.nbytes)
                        self.fault_checkpoint()
                        yield True
                    remaining[subset] -= 1
                    if remaining[subset] == 0:
                        complete_subset(subset)

            stream = window_stream()

            def map_step() -> bool:
                return next(stream, False)

            def encode_for(gidx: int):
                return encode_packet(
                    rank, plan.groups[gidx], lookup
                ).to_parts()

            def consume(gidx: int, payloads: Dict[int, bytes]) -> None:
                packets = {
                    sender: CodedPacket.from_bytes(raw)
                    for sender, raw in payloads.items()
                }
                raw_value = recover_intermediate(
                    rank, plan.groups[gidx], packets, lookup
                )
                batch = RecordBatch.from_buffer(raw_value)
                meter.charge(batch.nbytes, "decode.recovered")
                chunk = sort_batch(batch)
                meter.discharge(batch.nbytes)
                run = keep_or_spill(
                    chunk, spill, plan_oc, meter, f"grp-{gidx}", owned=True
                )
                with self.stage("reduce"):
                    merger.feed(slot_of_group[gidx], run)

            def group_ready(gidx: int) -> bool:
                return all(s in completed for s in needed[gidx])

            self.shuffle_telemetry = overlapped_multicast_shuffle(
                self,
                plan.groups,
                my_groups,
                rounds,
                MULTICAST_TAG_BASE,
                encode_for,
                consume,
                map_step,
                group_ready,
            )

            store.finalize()
            with self.stage("reduce"):
                advance_own()
                for run in own_sorter.finish():
                    merger.feed(0, run)
                merged = merger.finish(
                    window_records=plan_oc.merge_window_records(
                        max(2, merger.pending_runs)
                    )
                )
                result = emit_output(merged, rank, self.output_dir, meter)
            return result
        finally:
            spill.cleanup()
            export_residency(self, meter, self.memory_budget)


def _coded_terasort_program(comm: Comm, payload: Tuple) -> CodedTeraSortProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    files, subsets, partitioner, redundancy, schedule, budget, outdir, overlap = payload
    return CodedTeraSortProgram(
        comm,
        files,
        subsets,
        partitioner,
        redundancy,
        schedule=schedule,
        memory_budget=budget,
        output_dir=outdir,
        overlap=overlap,
    )


def check_coded_params(size: int, redundancy: int, schedule: str) -> None:
    """Validate ``(K, r, schedule)``; raises :class:`ValueError` early.

    CodedPlacement itself allows r = K (one file everywhere), but the
    coded shuffle needs multicast groups of r+1 <= K nodes; rejecting
    before any cluster work keeps the error free of job-failure wrapping.
    """
    if not 1 <= redundancy <= size - 1:
        raise ValueError(
            f"redundancy must be in [1, K-1] = [1, {size - 1}], "
            f"got {redundancy}"
        )
    check_schedule(schedule)


def prepare_coded_terasort(
    size: int,
    data: Optional[Union[RecordBatch, DataSource]] = None,
    redundancy: int = 1,
    batches_per_subset: int = 1,
    sampled_partitioner: bool = False,
    sample_size: int = 10000,
    sample_seed: int = 7,
    schedule: str = "serial",
    memory_budget: Optional[int] = None,
    output_dir: Optional[str] = None,
    overlap: bool = False,
) -> PreparedJob:
    """Compile one CodedTeraSort over ``size`` nodes into a pool job.

    Coordinator-side: the shared partitioner, the coded placement, and
    each rank's ``{file_id: source}`` / ``{file_id: subset}`` maps —
    files are cut at the *descriptor* level
    (:meth:`~repro.core.placement.CodedPlacement.split_source`), so for
    file/teragen inputs every worker streams its own splits and the
    control plane ships only descriptors (inline batches keep the seed's
    ship-by-value behavior).  The coding plan itself is rebuilt by every
    node during CodeGen (that cost is part of the measured stage, as in
    the paper) and once more in ``finalize`` for the run metadata.
    """
    check_coded_params(size, redundancy, schedule)
    source = as_source(data)
    partitioner = _build_partitioner_from_source(
        source, size, sampled_partitioner, sample_size, sample_seed
    )
    placement = CodedPlacement(size, redundancy, batches_per_subset)
    file_sources = placement.split_source(source)

    per_node_files: List[Dict[int, DataSource]] = [dict() for _ in range(size)]
    per_node_subsets: List[Dict[int, Subset]] = [dict() for _ in range(size)]
    for file_id, file_source in enumerate(file_sources):
        subset = placement.subset_of_file(file_id)
        for node in subset:
            per_node_files[node][file_id] = file_source
            per_node_subsets[node][file_id] = subset

    payloads: List[Any] = [
        (
            per_node_files[rank],
            per_node_subsets[rank],
            partitioner,
            redundancy,
            schedule,
            memory_budget,
            output_dir,
            overlap,
        )
        for rank in range(size)
    ]
    input_records = source.num_records

    def finalize(result: ClusterResult) -> SortRun:
        plan = build_coding_plan(size, redundancy)
        meta = {
            "algorithm": "coded_terasort",
            "num_nodes": size,
            "redundancy": redundancy,
            "batches_per_subset": batches_per_subset,
            "input_records": input_records,
            "num_files": placement.num_files,
            "files_per_node": placement.files_per_node(),
            "num_groups": plan.num_groups,
            "total_multicasts": plan.total_multicasts,
            "schedule": schedule,
            "schedule_turns": len(plan.schedule),
            "input_kind": type(source).__name__,
        }
        if memory_budget is not None:
            meta["memory_budget"] = memory_budget
            meta.update(residency_meta(result.per_node_times))
        if schedule == "parallel":
            meta.update(parallel_schedule_meta(plan, result.per_node_times))
        meta["kernel_stats"] = kernels.stats_meta(result.per_node_times)
        if overlap:
            meta["overlap"] = overlap_meta(result.per_node_times)
        return SortRun(
            partitions=list(result.results),
            stage_times=result.stage_times,
            traffic=result.traffic,
            partitioner=partitioner,
            meta=meta,
        )

    return PreparedJob(
        builder=_coded_terasort_program, payloads=payloads, finalize=finalize
    )


def run_coded_terasort(
    cluster,
    data: RecordBatch,
    redundancy: int,
    batches_per_subset: int = 1,
    sampled_partitioner: bool = False,
    sample_size: int = 10000,
    sample_seed: int = 7,
    schedule: str = "serial",
) -> SortRun:
    """Sort ``data`` with CodedTeraSort on ``cluster`` (one-shot shim).

    Equivalent to submitting a :class:`repro.session.CodedTeraSortSpec`
    to a fresh one-job :class:`repro.session.Session`; amortize the
    cluster setup across many sorts by holding a session open instead.

    Args:
        cluster: a :class:`~repro.runtime.inproc.ThreadCluster` or
            :class:`~repro.runtime.process.ProcessCluster`.
        data: the full input batch.
        redundancy: ``r ∈ [1, K-1]`` — each file is mapped on ``r`` nodes.
        batches_per_subset: input files per node subset (``N = b * C(K, r)``).
        sampled_partitioner / sample_size / sample_seed: see
            :func:`repro.core.terasort.run_terasort`.
        schedule: ``"serial"`` (paper, Fig. 9(b)) or ``"parallel"``
            (pipelined conflict-free rounds); output is byte-identical.

    Returns:
        A :class:`~repro.core.terasort.SortRun` whose ``meta`` carries the
        coding-plan statistics (groups, packets, schedule turns/rounds).
    """
    from repro.session import CodedTeraSortSpec, Session

    with Session(cluster) as session:
        return session.submit(
            CodedTeraSortSpec(
                data=data,
                redundancy=redundancy,
                batches_per_subset=batches_per_subset,
                sampled_partitioner=sampled_partitioner,
                sample_size=sample_size,
                sample_seed=sample_seed,
                schedule=schedule,
            )
        ).result()
