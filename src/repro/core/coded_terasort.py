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

:class:`CodedTeraSortProgram` walks them in **one pipeline** — sources →
windowed map → keyed store → shuffle engine → frontier → sink — under a
*law* that supplies its three record-specific parts: the map step, the
keyed store and the frontier.  :class:`SortLaw` is the sort's;
:class:`~repro.core.cmr.MapReduceLaw` runs any Coded MapReduce job on the
same body.  It is every program's body: the two uncoded ones override
its shuffle — :class:`~repro.core.terasort.TeraSortProgram` (the sort at
``r = 1``, with the map window and budgeted store it ships) and
:class:`~repro.core.cmr.UncodedCMRProgram` both walk
:meth:`CodedTeraSortProgram._turn_walk`.  :class:`SortSpec` and
:class:`SortRun`, which both sorts share, live here too.  For the coded
sort, the spec fields pick three policies:

* **map window** — each file whole (one ``hash_file`` call, and one map
  step of the overlapped loop), or ``OutOfCorePlan.input_window_records``
  under a ``memory_budget``.  The map step gathers only the retained
  targets, each into a buffer of its own — the one copy a retained value
  costs before the encoder reads it — and they are
  appended per ``(subset, target)`` to one
  :class:`~repro.kvpairs.spill.StreamStore` (spilling under a budget,
  resident without) whose append order — files ascending, windows
  ascending, sized from the spec alone — is identical on every replica
  of a subset, which is what XOR coding requires of ``I^t_S``.
* **send gate** (:meth:`CodedTeraSortProgram._shuffle`) — by default the
  one non-blocking event loop
  (:func:`~repro.runtime.program.streaming_multicast_shuffle`): staged
  ``"parallel"`` — the §VI "asynchronous execution" future work — posts
  every packet in the greedily colored round order
  (:meth:`~repro.core.groups.CodingPlan.rounds_for`; no inter-round
  barrier) once Map is done; ``overlap`` lets the loop drive the map
  itself and opens a group the moment every subset it draws on is
  mapped, under either schedule's posting order.  Staged ``"serial"``,
  asked for by name, is the paper's Fig. 9(b) execution: one
  ``(group, sender)`` turn at a time behind a cluster barrier, Encode
  fully preceding Shuffle preceding Decode — the faithful baseline the
  paper measures, and what its tables and figures are reproduced with.
* **merge frontier** (:class:`~repro.core.outofcore.MergeFrontier`) —
  in memory, own values and decoded groups are collected and sorted once
  at the end, staged or overlapped; under a budget they become sorted
  runs for one external merge, pre-merged eagerly as they arrive when
  ``overlap``.

Stage-time attribution under the event loop stays *exclusive*: encode
and decode work done inside the loop is charged to the ``encode`` /
``decode`` stages and only the remaining span (communication plus
waiting) to ``shuffle``, so the six stage times still sum to wall-clock;
``SortRun.meta["shuffle_span_seconds"]`` preserves the full span.  Every
combination of the policies produces byte-identical sorted output.

Placed files arrive as :class:`~repro.kvpairs.datasource.DataSource`
descriptors (workers stream their own splits; the control plane carries
no record bytes for file/teragen inputs).  The store is keyed by file
*subset*: with ``batches_per_subset > 1`` the files of a subset are
concatenated before encoding, as in the batched CMR scheme of [9].

The compute hot path is Map's partition pass (the MSB radix kernel of
:mod:`repro.kvpairs.kernels`) and Reduce's one-word stable sort
(:mod:`repro.kvpairs.sorting`), which is also every merge, in memory and
over spilled run files.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from dataclasses import KW_ONLY, dataclass, field
from itertools import combinations
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import (
    CodingPlan,
    build_coding_plan,
    check_coded_params,
    parallel_schedule_meta,
)
from repro.core.mapper import hash_file, map_windows, record_windows
from repro.core.outofcore import (
    MergeFrontier,
    OutOfCore,
    check_memory_budget,
    out_of_core,
    residency_meta,
    stats_meta,
)
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement
from repro.core.theory import CodedWorkload
from repro.kvpairs.datasource import DataSource, as_source
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.spill import StreamStore
from repro.runtime.api import Comm
from repro.runtime.program import (
    ClusterResult,
    JobSpec,
    NodeProgram,
    PreparedJob,
    overlap_meta,
    serial_multicast_shuffle,
    streaming_multicast_shuffle,
)
from repro.runtime.traffic import TrafficLog
from repro.utils.subsets import Subset, k_subsets, without
from repro.utils.timer import StageTimes

#: Tag base for multicast shuffle; group index is added per packet.
MULTICAST_TAG_BASE = 10_000

STAGES_CODED = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]


class SortLaw:
    """The sort's law for the coded pipeline.

    Map step: ``hash_file`` of the kept targets per record window.
    Keyed store: a :class:`~repro.kvpairs.spill.StreamStore` of raw
    record streams (spilling under a budget).  Frontier: a
    :class:`~repro.core.outofcore.MergeFrontier`, whose one stable sort
    (or external merge) is the Reduce.
    """

    windows = staticmethod(record_windows)

    def __init__(self, partitioner: RangePartitioner) -> None:
        self.partitioner = partitioner

    def map(
        self, file_id: int, window: RecordBatch, keep: Sequence[int]
    ) -> List[RecordBatch]:
        return hash_file(window, self.partitioner, keep)

    def store(self, oc: Optional[OutOfCore]) -> StreamStore:
        if oc is None:
            return StreamStore(None, 0)
        return StreamStore(oc.spill, oc.plan.flush_bytes, oc.meter)

    def frontier(
        self, num_slots: int, eager: bool, oc: Optional[OutOfCore]
    ) -> MergeFrontier:
        return MergeFrontier(num_slots, eager=eager, oc=oc)


class CodedTeraSortProgram(NodeProgram):
    """Per-node coded pipeline: CodedTeraSort, and Coded MapReduce.

    The body knows files, subsets, retention and the coding plan; the
    ``law`` knows the records: ``windows(payload, window_records)`` and
    ``map(file_id, window, keep)`` (pieces by target rank, only ``keep``'s
    filled), ``store(oc)``
    (``append`` / ``seal`` / ``take`` / ``get_bytes`` per ``(S, t)``) and
    ``frontier(num_slots, eager, oc)`` (``feed_stream`` / ``feed_decoded``
    / ``finish``).

    Args:
        comm: communication endpoint.
        spec: the job's spec, input stripped — read for ``redundancy``,
            ``schedule``, ``overlap``, ``group_size``, ``memory_budget``
            and ``output_dir`` (see :class:`CodedTeraSortSpec`).
        files: file id -> payload for every file placed on this node.
        subsets: file id -> node subset ``S`` (``rank ∈ S``).
        law: the job's map step, keyed store and frontier.
    """

    STAGES = STAGES_CODED

    #: The map's abandon predicate, polled before every window (none:
    #: every map runs to completion).
    _abandon: Optional[Callable[[], bool]] = None

    def __init__(
        self,
        comm: Comm,
        spec: Any,
        files: Dict[int, Any],
        subsets: Dict[int, Subset],
        law: Any,
    ) -> None:
        super().__init__(comm)
        self.spec = spec
        self.files = files
        self.subsets = subsets
        self.law = law
        g = spec.group_size or self.size
        first = self.rank - self.rank % g
        #: The ``g`` ranks of this rank's coding group (all ``K`` ungrouped).
        self.peers: Tuple[int, ...] = tuple(range(first, first + g))

    def run(self) -> Any:
        with out_of_core(self, self.spec.memory_budget, "cts") as oc:
            return self._run_pipeline(oc)

    def _subset_plan(self):
        """Per-subset map bookkeeping, deterministic from the placement.

        Returns ``(fids, subset_order, remaining, targets)``: file ids in
        map order, subsets in first-appearance order (== the store's own-
        entry order), files left per subset, and each subset's retained
        targets (this rank first, then ascending peers ``j ∉ S`` — the
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
                    for j in self.peers
                    if j != rank and j not in in_subset
                ]
            remaining[subset] += 1
        return fids, subset_order, remaining, targets

    def _run_pipeline(self, oc: Optional[OutOfCore]) -> Any:
        """Sources → windowed map → store → shuffle engine → frontier → sink.

        Determinism note: the store's append order is (file id ascending,
        window ascending) with windows sized from the spec alone, so
        every replica of subset ``S`` lays out byte-identical ``I^t_S``
        streams — XOR encode/decode work on mmap views of spilled
        streams exactly as on resident buffers.  Byte-identity of the
        final output follows from the frontier's slot order: own store
        entries in store order, then the inbound ``I^rank_S`` in lex
        order of ``S`` (= the order of the groups ``M = S ∪ {rank}``
        that decode them) — the concatenation the plain staged run
        stably sorts.
        """
        rank, overlap = self.rank, self.spec.overlap
        codegen = self._codegen()
        fids, subset_order, remaining, targets = self._subset_plan()
        window = self._map_window(oc)
        store = self._store(oc)
        others = [p for p in self.peers if p != rank]
        inbound = combinations(others, self.spec.redundancy)
        slot_of = {
            subset: slot
            for slot, subset in enumerate([*subset_order, *inbound])
        }
        frontier = self.law.frontier(len(slot_of), overlap, oc)
        completed: set = set()
        own_fed = 0  # subsets whose own value has entered the frontier

        def advance_own() -> None:
            # Own values enter in store (= subset first-appearance)
            # order, never skipping ahead of an unfinished subset: under
            # a budget the external sort's chunk stream spans subsets
            # and must replay the staged reduce's key walk exactly.
            nonlocal own_fed
            while (
                own_fed < len(subset_order)
                and subset_order[own_fed] in completed
            ):
                frontier.feed_stream(
                    own_fed, store.take((subset_order[own_fed], rank), window)
                )
                own_fed += 1

        def complete_subset(subset: Subset) -> None:
            """A subset's last file is mapped: seal its values for the
            shuffle and, when overlapped, start Reduce on the own one."""
            completed.add(subset)
            self._seal(store, [(subset, t) for t in targets[subset][1:]])
            if overlap:
                with self.stage("reduce"):
                    advance_own()

        def retain(subset: Subset, pieces: Sequence[Any]) -> None:
            # Retention rule: I^rank_S plus I^j_S for j outside S,
            # appended in window order.
            for target in targets[subset]:
                store.append((subset, target), pieces[target])

        def map_steps() -> Iterator[bool]:
            meter = oc.meter if oc is not None else None
            for fid in fids:
                subset = self.subsets[fid]
                yield from self._map_file(
                    fid,
                    self.files[fid],
                    targets[subset],
                    window,
                    functools.partial(retain, subset),
                    self._abandon,
                    meter,
                )
                remaining[subset] -= 1
                if remaining[subset] == 0:
                    complete_subset(subset)
            frontier.map_done()

        steps = map_steps()
        if not overlap:
            with self.stage("map"):
                for _ in steps:
                    pass
        self._shuffle(codegen, steps, completed, store, frontier, slot_of)
        with self.stage("reduce"):
            advance_own()
            return frontier.finish(self, self.spec.output_dir)

    # -- the policies a program at another corner overrides ----------------

    def _map_window(self, oc: Optional[OutOfCore]) -> Optional[int]:
        """The budget's window, else each file whole (one map step per
        file is also the overlapped loop's granularity)."""
        return oc.plan.input_window_records if oc is not None else None

    def _store(self, oc: Optional[OutOfCore]) -> Any:
        return self.law.store(oc)

    def _seal(self, store: Any, keys: List[Tuple[Subset, int]]) -> None:
        """Seal what the coder will look up: never the own-target value,
        which only Reduce reads.  Sealing copies nothing for a one-piece
        value held in memory; it joins several pieces, or flushes the
        tail under a budget."""
        with self.stage("encode"):
            for key in keys:
                store.seal(key)

    def _map_file(
        self, fid, payload, keep, window, retain, abandon=None, meter=None
    ) -> Iterator[bool]:
        """One file through the law's map step, window by window
        (:func:`~repro.core.mapper.map_windows`); ``keep``'s pieces go to
        ``retain``."""
        return map_windows(
            self,
            self.law.windows(payload, window),
            functools.partial(self.law.map, fid, keep=keep),
            retain,
            abandon,
            meter,
        )

    def _lookup(self, store: Any) -> Callable[[Subset, int], Any]:
        """Zero-copy views of the sealed ``I^t_S`` (mmap if spilled),
        kept: every value is looked up once to encode, again to decode."""
        views: Dict[Tuple[Subset, int], Any] = {}

        def lookup(subset: Subset, target: int) -> Any:
            view = views.get((subset, target))
            if view is None:
                view = views[subset, target] = store.get_bytes((subset, target))
            return view

        return lookup

    def _deliver(self, frontier, slot_of, subset: Subset, buf: Any) -> None:
        """``I^rank_S`` has arrived (decoded, or as sent): into the
        frontier.  Overlapped, that is charged to Reduce (under a budget
        the frontier sorts and merges here); staged it only collects — or
        sorts one run — in the caller's scope."""
        slot = slot_of[subset]
        with self.stage("reduce") if self.spec.overlap else nullcontext():
            frontier.feed_decoded(slot, buf, tag=f"grp-{slot}")

    def _turn_walk(self, tag: int, send, receive) -> None:
        """The designated-sender unicast walk (Fig. 1(a); Fig. 9(a) at
        ``r = 1``).  Every node walks every ``r``-subset ``S`` in lex
        order; ``S``'s first member unicasts ``send(S, t)`` to each
        ``t ∉ S`` in ring order — ``(min(S) + i) % K`` for
        ``i = 1 … K-1`` — and ``t`` hands the arena view to
        ``receive(S, raw)`` before the next turn.

        A turn starts as soon as its sender has heard from every earlier
        sender, so the ring order puts the next sender first: at
        ``r = 1`` rank ``k`` starts after ``k`` message times and the
        walk's critical path is ``2(K-1)`` messages, against
        ``K(K-1)/2 + K-1`` when each sender serves its targets
        ascending (rank ``k`` is then rank ``k-1``'s ``k``-th target).
        No target order does better inside this walk: every rank hears
        from rank 0 before its own turn, so the rank that rank 0 serves
        last cannot start before ``K-1`` message times, and then sends
        ``K-1`` of its own."""
        rank, comm, size = self.rank, self.comm, self.size
        with self.stage("shuffle"):
            for subset in k_subsets(size, self.spec.redundancy):
                sender = min(subset)
                for step in range(1, size):
                    target = (sender + step) % size
                    if target in subset:
                        continue
                    if rank == sender:
                        comm.send(target, tag, send(subset, target))
                    elif rank == target:
                        receive(subset, comm.recv(sender, tag, copy=False))

    def _codegen(self) -> Tuple[CodingPlan, Any, Dict[int, List[Subset]]]:
        """CodeGen: the coding plan over this rank's peers, the event
        loop's posting order, and (overlapped) each group's subsets."""
        rank, overlap = self.rank, self.spec.overlap
        schedule = self.spec.schedule
        with self.stage("codegen"):
            plan = build_coding_plan(
                len(self.peers), self.spec.redundancy
            ).on(self.peers)
            rounds = (
                plan.rounds_for(schedule)
                if overlap or schedule == "parallel"
                else None
            )
            # This rank's packet for group ``M`` XORs ``{I^t_{M\{t}} :
            # t ∈ M\{rank}}`` (every such subset contains this rank), and
            # decoding the group's inbound packets XORs local copies of
            # the *same* subsets back out — so one monotone predicate
            # ("all of ``needed[gidx]`` fully mapped") gates both the
            # send and the decode of a group.
            needed: Dict[int, List[Subset]] = {
                gidx: [
                    without(plan.groups[gidx], t)
                    for t in plan.groups[gidx]
                    if t != rank
                ]
                for gidx in (plan.groups_of_node[rank] if overlap else ())
            }
        return plan, rounds, needed

    def _shuffle(
        self,
        codegen: Tuple[CodingPlan, Any, Dict[int, List[Subset]]],
        steps: Iterator[bool],
        completed: set,
        store: Any,
        frontier: Any,
        slot_of: Dict[Subset, int],
    ) -> None:
        """Encode / multicast / decode (Algorithms 1 and 2) under the
        send-gate policy, from the sealed ``store`` into the
        ``frontier``'s ``slot_of`` slots.  Staged ``"serial"`` encodes
        every packet, walks the Fig. 9(b) turns, then decodes, each step
        its own stage; anything else is the one event loop, which,
        overlapped, also drives ``steps``, the rest of the map."""
        rank, overlap = self.rank, self.spec.overlap
        plan, rounds, needed = codegen
        lookup = self._lookup(store)
        deliver = functools.partial(self._deliver, frontier, slot_of)

        def encode_for(gidx: int):
            # Gather-list wire form: the XOR arena travels as a payload
            # part next to the header, never joined into one buffer.
            return encode_packet(rank, plan.groups[gidx], lookup).to_parts()

        def recover(gidx: int, raw_packets: Dict[int, Any]) -> None:
            """Algorithm 2 for one group, straight into the frontier.

            Zero-copy end to end: parsed packets keep their payloads as
            views into the receive arenas, and ``recover_intermediate``
            decodes every segment into one preallocated output buffer.
            """
            packets = {
                sender: CodedPacket.from_bytes(raw)
                for sender, raw in raw_packets.items()
            }
            group = plan.groups[gidx]
            deliver(
                without(group, rank),
                recover_intermediate(rank, group, packets, lookup),
            )

        my_groups = plan.groups_of_node[rank]
        if self.spec.schedule == "serial" and not overlap:
            with self.stage("encode"):
                packets_out = {gidx: encode_for(gidx) for gidx in my_groups}
            with self.stage("shuffle"):
                received = serial_multicast_shuffle(
                    self, plan.groups, my_groups, plan.schedule,
                    MULTICAST_TAG_BASE, packets_out,
                )
            with self.stage("decode"):
                for gidx in my_groups:
                    recover(gidx, received[gidx])
            return
        streaming_multicast_shuffle(
            self,
            plan.groups,
            my_groups,
            rounds,
            MULTICAST_TAG_BASE,
            encode_for,
            recover,
            map_step=(lambda: next(steps, False)) if overlap else None,
            ready=(
                (lambda gidx: all(s in completed for s in needed[gidx]))
                if overlap
                else None
            ),
        )


@dataclass
class SortRun:
    """Result of a full distributed sort run.

    Attributes:
        partitions: per-rank sorted output partitions (ascending key
            ranges).  Resident :class:`~repro.kvpairs.records.RecordBatch`
            objects for in-memory runs; for out-of-core runs with an
            ``output_dir`` each entry is the worker's
            :class:`~repro.kvpairs.datasource.FileSource` output
            descriptor (``len()`` works on both; stream big ones with
            ``iter_batches`` instead of ``load()``).
        stage_times: merged per-stage breakdown (max over nodes).
        traffic: the run's traffic log (None if backend doesn't collect one).
        partitioner: the partitioner used (for validation / inspection).
        meta: algorithm-specific extras (e.g. coding plan statistics).
    """

    partitions: List[RecordBatch]
    stage_times: StageTimes
    traffic: Optional[TrafficLog]
    partitioner: RangePartitioner
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def total_records(self) -> int:
        return sum(len(p) for p in self.partitions)


@dataclass(frozen=True)
class SortSpec(JobSpec):
    """What the two sort specs share: the input, the memory plane, the
    partitioner and the overlap switch (``data`` is the one positional
    field; everything else is keyword-only).

    Attributes:
        data: the full input batch (the coordinator's view); mutually
            exclusive with ``input``.  Ships to the workers by value.
        input: a :class:`~repro.kvpairs.datasource.DataSource` descriptor
            (``FileSource`` / ``TeragenSource`` / ``InlineSource``) —
            workers read their own splits, the control plane ships only
            ~100-byte descriptors for file/teragen kinds.
        memory_budget: per-worker cap (bytes) on resident record buffers,
            at least :data:`~repro.core.outofcore.MIN_MEMORY_BUDGET`;
            ``None`` keeps everything in memory, a value bounds the map
            window, spills chunks as sorted runs and merges externally
            (byte-identical output).
        output_dir: with a budget (required), workers stream their sorted
            partition to ``<output_dir>/part-<rank>`` (a worker-local or
            shared path) and the run's partitions are ``FileSource``
            results instead of resident batches.
        sampled_partitioner: use sampled quantile splitters instead of
            uniform ones (needed for skewed keys).
        sample_size / sample_seed: splitter sample parameters
            (``sample_size >= 1``).  Inline data is sampled uniformly at
            random under ``sample_seed``; other kinds draw through the
            source's own :meth:`~repro.kvpairs.datasource.DataSource.sample`,
            which never materializes the dataset.
        overlap: open the pipeline's send gate as the map goes (map ↔
            shuffle overlap), so makespan approaches ``max(compute,
            comm)`` instead of their sum.  In memory Reduce is still one
            sort at the end; under a ``memory_budget`` arrivals are also
            pre-merged while the shuffle is in flight (shuffle ↔ reduce
            overlap).  Output stays byte-identical to the staged
            schedule; composes with ``memory_budget``.
    """

    data: Optional[RecordBatch] = None
    _: KW_ONLY
    input: Optional[DataSource] = None
    memory_budget: Optional[int] = None
    output_dir: Optional[str] = None
    sampled_partitioner: bool = False
    sample_size: int = 10000
    sample_seed: int = 7
    overlap: bool = False

    @property
    def source(self) -> DataSource:
        """The job's input as a descriptor, whichever field carried it."""
        return as_source(self.input if self.input is not None else self.data)

    @property
    def input_bytes(self) -> int:
        return self.source.nbytes

    def validate(self, size: int) -> None:
        if self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        if (self.data is None) == (self.input is None):
            raise ValueError(
                "exactly one of data= (a RecordBatch) or input= (a "
                "DataSource) must be given"
            )
        if self.data is not None and not isinstance(self.data, RecordBatch):
            raise ValueError(
                f"data must be a RecordBatch, got {type(self.data).__name__} "
                "(pass sources via input=)"
            )
        if self.input is not None and not isinstance(self.input, DataSource):
            raise ValueError(
                f"input must be a DataSource, got {type(self.input).__name__}"
            )
        check_memory_budget(self.memory_budget)
        if self.output_dir is not None and self.memory_budget is None:
            raise ValueError(
                "output_dir requires memory_budget (the in-memory path "
                "returns resident partitions)"
            )

    def _for_workers(self) -> "SortSpec":
        """The spec as the ranks get it: every option, none of the input
        (a payload carries its rank's split, never the job's dataset)."""
        return self.with_(data=None, input=None)

    def _partitioner(self, size: int) -> RangePartitioner:
        """The shared ``size``-way partitioner, built once on the coordinator."""
        if self.sampled_partitioner:
            sample = self.source.sample(self.sample_size, seed=self.sample_seed)
            if len(sample):
                return RangePartitioner.from_sample(sample, size)
        return RangePartitioner.uniform(size)

    def _input_meta(self) -> Dict[str, object]:
        """What ``SortRun.meta`` says about the input — taken once, in
        ``prepare`` (a ``FileSource`` without a count stats its file)."""
        source = self.source
        return {
            "input_records": source.num_records,
            "input_kind": type(source).__name__,
        }

    def _sort_run(
        self,
        result: ClusterResult,
        partitioner: RangePartitioner,
        meta: Dict[str, object],
    ) -> SortRun:
        """``finalize``'s shared half: the option-derived meta + the run."""
        meta["kernel_stats"] = stats_meta(result.per_node_times)
        if self.overlap:
            meta["overlap"] = overlap_meta(result.per_node_times)
        if self.memory_budget is not None:
            meta["memory_budget"] = self.memory_budget
            meta.update(residency_meta(result.per_node_times))
        return SortRun(
            partitions=list(result.results),
            stage_times=result.stage_times,
            traffic=result.traffic,
            partitioner=partitioner,
            meta=meta,
        )


def _coded_terasort_program(comm: Comm, payload: Tuple) -> CodedTeraSortProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    spec, files, subsets, partitioner = payload
    return CodedTeraSortProgram(
        comm, spec, files, subsets, SortLaw(partitioner)
    )


@dataclass(frozen=True)
class CodedTeraSortSpec(SortSpec):
    """CodedTeraSort (§IV): coded placement + XOR multicast shuffle.

    Input, memory plane and partitioner fields: see :class:`SortSpec`
    (``data`` and ``redundancy`` are the positional fields; everything
    else is keyword-only).

    Attributes:
        redundancy: the computation load ``r ∈ [1, g-1]`` — each file is
            mapped on ``r`` nodes (of every coding group).
        batches_per_subset: input files per node subset
            (``N = b * C(g, r)``, ``b >= 1``); the files of a subset are
            concatenated before encoding, as in the batched CMR scheme
            of [9].
        schedule: ``"parallel"`` (default: the barrier-free event loop,
            packets posted in conflict-free round order) or ``"serial"``
            — the paper's measured execution, Fig. 9(b) turns behind
            cluster barriers; whatever reproduces the paper asks for it
            by name.  Byte-identical output.
        overlap: as on :class:`SortSpec`; here the
            event loop also drives the map, and a multicast group is
            encoded and sent as soon as all of its contributing file
            subsets are mapped (the unit pre-merged under a budget is a
            decoded group).  Composes with either ``schedule``, which
            then only fixes the posting priority.
        group_size: group-based coding (§VI "Scalable Coding"): the ``K``
            workers code inside ``K/g`` groups of ``g`` consecutive
            ranks, each holding the whole input — CodeGen falls from
            ``C(K, r+1)`` to ``C(g, r+1)`` groups, the load rises to
            ``(1/r)(1 - r/g)`` and each node maps ``r/g`` of the input.
            Must divide ``K``; ``None`` (default) is ``g = K``.  Picks
            the coding plan only: composes with every other field.
    """

    redundancy: int = 1
    _: KW_ONLY
    batches_per_subset: int = 1
    schedule: str = "parallel"
    group_size: Optional[int] = None

    def validate(self, size: int) -> None:
        check_coded_params(
            size, self.redundancy, self.schedule, self.group_size
        )
        if self.batches_per_subset < 1:
            raise ValueError(
                f"batches_per_subset must be >= 1, "
                f"got {self.batches_per_subset}"
            )
        super().validate(size)

    def shrink_to(self, free: int) -> Optional[int]:
        # Coded geometry: (K', r) stays valid only while r <= K'-1, so
        # the smallest shrink target is r+1 workers (1604.07086's
        # tradeoff constraint); validate() enforces the rest — with a
        # group_size, only its multiples.
        return self._shrink_by_validate(free, floor=self.redundancy + 1)

    def prepare(self, size: int) -> PreparedJob:
        """Compile one CodedTeraSort over ``size`` nodes into a pool job.

        Coordinator-side: the shared partitioner, the coded placement,
        and each rank's ``{file_id: source}`` / ``{file_id: subset}``
        maps next to the input-less spec — files are cut at the
        *descriptor* level
        (:meth:`~repro.core.placement.CodedPlacement.split_source`), so
        for file/teragen inputs every worker streams its own splits and
        the control plane ships only descriptors (inline batches keep
        the seed's ship-by-value behavior).  With ``group_size = g`` the
        placement is built on ``g`` members and replicated on every
        coding group (:meth:`~repro.core.placement.CodedPlacement.assign`),
        so every group stores the whole input (``r/g`` of it per node).  The
        coding plan itself is looked up by every node during CodeGen
        (built on a process's first job of that ``(g, r)``, as the
        measured stage of the paper is; memoised from then on);
        ``finalize`` takes its counts from closed forms and reads the
        plan only for the parallel schedule's round count.
        """
        self.validate(size)
        g = self.group_size or size
        r = self.redundancy
        partitioner = self._partitioner(size)
        placement = CodedPlacement(g, r, self.batches_per_subset)
        spec = self._for_workers()
        input_meta = self._input_meta()
        payloads: List[Any] = [
            (spec, files, subsets, partitioner)
            for files, subsets in placement.assign(
                placement.split_source(self.source), size
            )
        ]

        def finalize(result: ClusterResult) -> SortRun:
            # ``num_groups``: the multicast groups one node's CodeGen
            # enumerates; ``total_multicasts`` / ``node_groups`` are
            # cluster-wide; ``schedule_turns``: one coding group's serial
            # walk.
            work = CodedWorkload(size, r, 0, self.group_size)
            b = self.batches_per_subset
            # The wire next to the load: an application multicast leaves
            # its sender once per receiver, so wire / load = r.
            load = result.traffic.load_bytes("shuffle")
            wire = result.traffic.wire_bytes("shuffle")
            meta: Dict[str, object] = {
                "algorithm": "coded_terasort",
                "num_nodes": size,
                "redundancy": r,
                "batches_per_subset": b,
                "num_files": placement.num_files,
                "files_per_node": b * work.files_per_node,
                "group_size": g,
                "node_groups": work.node_groups,
                "num_groups": work.num_groups,
                "total_multicasts": work.total_multicasts,
                "schedule": self.schedule,
                "schedule_turns": work.total_multicasts // work.node_groups,
                "wire_bytes": wire,
                "wire_per_load": wire / load if load else 0.0,
                **input_meta,
            }
            if self.schedule == "parallel":
                meta.update(
                    parallel_schedule_meta(g, r, result.per_node_times)
                )
            return self._sort_run(result, partitioner, meta)

        return PreparedJob(
            builder=_coded_terasort_program, payloads=payloads, finalize=finalize
        )
