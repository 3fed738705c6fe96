"""TeraSort: the uncoded baseline (§III).

Five stages per node, exactly as the paper's implementation (§V-A):

1. **Map** — hash the node's single input file into ``K`` per-partition
   intermediate values;
2. **Pack** — serialize each intermediate value into one contiguous buffer
   so a single flow carries it;
3. **Shuffle** — serial unicast (Fig. 9(a)): senders take turns in rank
   order; during node ``j``'s turn it unicasts ``I^k_{j}`` to every other
   node ``k`` back-to-back;
4. **Unpack** — deserialize the ``K-1`` received buffers;
5. **Reduce** — locally sort partition ``P_k``.

:class:`TeraSortProgram` walks them in **one pipeline** — source →
windowed map → channel loop → merge frontier → sink — and the spec
fields pick three policies rather than a different program:

========================  ==========================================
policy                    picked by
========================  ==========================================
**map window**            whole file at once (no ``memory_budget``,
                          not ``overlap``: one ``hash_file`` call);
                          ``OutOfCorePlan.input_window_records``
                          under a budget; ~32 windows per shard
                          (:func:`shard_window`) for in-memory
                          ``overlap`` and speculation.
**send gate**             staged: Map finishes, then the Fig. 9(a)
(the channel loop)        turn walk with blocking ``send``/``recv``,
                          one message per channel; ``overlap``: every
                          chunk is posted (``isend``) the moment the
                          map produces it and arrivals are consumed
                          between windows (chunk frames, then END).
**merge frontier**        what Reduce does with an arriving chunk —
(:class:`~repro.core.     collect and sort once at the end (in memory,
outofcore.MergeFrontier`) staged or overlapped); under a budget sorted
                          runs + one external merge, pre-merged
                          eagerly as they arrive when ``overlap``.
========================  ==========================================

A chunk is one map window's partition in memory (unsorted; the receiver
sorts) or one sealed sorted run of the budget-shared
:class:`~repro.core.outofcore.PartitionSpiller` (shipped as an mmap
view, spilled again on arrival if it does not fit).  Output is
byte-identical across all of it: one stable grouping per window makes
the windowed map equal the whole-shard map per partition, and the
frontier's slot order — own chunks, then each sender's chunks in rank
order — replays the stable ``sort_batches([own] + incoming)`` of the
plain staged run.

Speculative map re-execution (``speculation``; staged, in memory) is
the same pipeline with an abandon predicate on the windowed map and one
branch in the shuffle: frames carry either the data or a redirect to
the backup rank that re-mapped the shard.

The program runs on any :class:`~repro.runtime.api.Comm` backend.
:class:`TeraSortSpec` *is* the job: it declares every option once
(name, default, meaning, validity), its
:meth:`~TeraSortSpec.prepare` compiles one sort into a pool-runnable
:class:`~repro.runtime.program.PreparedJob` (placement, the shared
partitioner, result assembly) and the ranks read their options from the
spec they are handed.  Submit it to a :class:`repro.session.Session`, or
run it once with :func:`repro.run`.  Inputs are
:class:`~repro.kvpairs.datasource.DataSource` descriptors (each rank
materializes or streams its split locally — the control plane never
carries record bytes for file/teragen sources).

The compute hot path is Map's partition pass (the MSB radix kernel of
:mod:`repro.kvpairs.kernels`) and Reduce's one-word stable sort
(:mod:`repro.kvpairs.sorting`) — which is also every merge: in memory
``overlap`` hides Map behind the shuffle and Reduce stays one sort at
the end; the incremental merge exists only under a budget, over plain
run files.
"""

from __future__ import annotations

import struct
import time
from dataclasses import KW_ONLY, dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.core.mapper import hash_file
from repro.core.outofcore import (
    MIN_MEMORY_BUDGET,
    MergeFrontier,
    OutOfCore,
    PartitionSpiller,
    out_of_core,
    residency_meta,
    stats_meta,
)
from repro.core.partitioner import RangePartitioner
from repro.core.placement import UncodedPlacement
from repro.kvpairs.datasource import DataSource, FileSource, InlineSource, as_source
from repro.kvpairs.records import BufferLike, RecordBatch
from repro.kvpairs.serialization import pack_batches_parts, unpack_batches
from repro.kvpairs.spill import Run
from repro.runtime.api import Comm, Request, wait_all
from repro.runtime.program import (
    ClusterResult,
    JobSpec,
    NodeProgram,
    PreparedJob,
    export_overlap,
    overlap_meta,
)
from repro.utils.timer import StageTimes

from repro.runtime.traffic import TrafficLog

#: User tag carrying shuffled intermediate values.
SHUFFLE_TAG = 1000

#: Backup -> straggler: "my copy of your map shard is complete" (empty
#: payload).  A straggler only abandons its own map after this arrives,
#: which guarantees the backup's copy exists before anyone is redirected.
SPEC_READY_TAG = 1100
#: ``SPEC_DATA_TAG + shard``: the backup ships that shard's partition.
SPEC_DATA_TAG = 1200

#: Bounds on the per-window record count of a windowed in-memory map.
#: Arrival polls, abandon-polls and injected-slowdown pacing happen at
#: window boundaries: ~SPEC_WINDOWS_PER_SHARD windows per shard, clamped
#: so tiny shards still poll and huge ones don't poll too often.
SPEC_MAP_WINDOW = 32768
SPEC_MIN_WINDOW = 512
SPEC_WINDOWS_PER_SHARD = 32


def shard_window(num_records: int) -> int:
    """Map-window size giving ~SPEC_WINDOWS_PER_SHARD windows per shard."""
    per = -(-num_records // SPEC_WINDOWS_PER_SHARD)
    return max(SPEC_MIN_WINDOW, min(SPEC_MAP_WINDOW, per))


#: First byte of a speculative primary shuffle frame.
_FRAME_DATA = 1  # the shard's packed partition chunks follow
_FRAME_YIELD = 0  # uint32 backup rank follows: fetch the shard from there

#: First byte of a streaming-overlap shuffle frame (same marker protocol,
#: different meaning: many frames per channel instead of one).
_FRAME_CHUNK = 1  # one packed partition chunk follows
_FRAME_END = 0  # sender's map is complete; no more chunks on this channel

STAGES_TERASORT = ["map", "pack", "shuffle", "unpack", "reduce"]

#: One unit of map output bound for one destination.
Chunk = Union[RecordBatch, Run]


def _pack_chunks(chunks: List[Chunk], first: int = 0) -> List[BufferLike]:
    """A channel's chunks as one gather list, tagged with their index.

    A 20-byte frame header per chunk, then its records as a view — the
    mapper's partition bytes (or a spilled run's mmap pages) are never
    copied between Map and the socket.
    """
    return pack_batches_parts(
        (first + i, chunk.load() if isinstance(chunk, Run) else chunk)
        for i, chunk in enumerate(chunks)
    )


class TeraSortProgram(NodeProgram):
    """Per-node TeraSort execution.

    Args:
        comm: communication endpoint.
        spec: the job's :class:`TeraSortSpec`, input stripped — the
            program reads ``memory_budget``, ``output_dir`` and
            ``overlap`` from it (their meaning is documented there).
        file_data: this node's input file ``F_{k}`` — a resident
            :class:`~repro.kvpairs.records.RecordBatch` or a
            :class:`~repro.kvpairs.datasource.DataSource` descriptor the
            node materializes/streams locally.
        partitioner: the shared ``K``-way range partitioner.
        spec_splits: all ranks' shard descriptors — enables speculative
            map re-execution (any rank can re-map a straggler's shard),
            directed over the pool job's control channel
            (``comm.job_control``) on every backend.
    """

    STAGES = STAGES_TERASORT

    def __init__(
        self,
        comm: Comm,
        spec: "TeraSortSpec",
        file_data: Union[RecordBatch, DataSource],
        partitioner: RangePartitioner,
        spec_splits: Optional[List[DataSource]] = None,
    ) -> None:
        super().__init__(comm)
        self.spec = spec
        self.source = as_source(file_data)
        self.partitioner = partitioner
        self.spec_splits = spec_splits

    def run(self) -> Union[RecordBatch, FileSource]:
        with out_of_core(self, self.spec.memory_budget, "ts") as oc:
            return self._run_pipeline(oc)

    def _map_windows(
        self,
        source: DataSource,
        window_records: Optional[int],
        retain: Callable[[int, RecordBatch], None],
        abandon: Optional[Callable[[], bool]] = None,
        oc: Optional[OutOfCore] = None,
    ) -> Iterator[bool]:
        """The windowed map: window → ``hash_file`` → ``retain`` → checkpoint.

        A generator that yields after every window, so the caller decides
        what happens between windows (nothing when staged; arrival polls
        when overlapped).  ``abandon`` makes the map preemptible: it is
        polled before every window and throughout an injected slowdown,
        and the generator just ends when it fires — callers re-evaluate
        it after exhaustion to tell abandonment from completion.
        """
        for window in (
            source.iter_batches(window_records)
            if window_records
            else [source.load()]
        ):
            if abandon is not None and abandon():
                return
            if oc is not None:
                oc.meter.charge(window.nbytes, "map.window")
            for dst, part in enumerate(hash_file(window, self.partitioner)):
                retain(dst, part)
            if oc is not None:
                oc.meter.discharge(window.nbytes)
            if self.fault_checkpoint(abandon):
                return
            yield True

    def _run_pipeline(
        self, oc: Optional[OutOfCore]
    ) -> Union[RecordBatch, FileSource]:
        """Source → windowed map → channel loop → merge frontier → sink.

        Byte-identity across the policies rests on one invariant,
        maintained at every step: each per-destination stream travels as
        chunks *in stream order* (sorted chunks are stably sorted), and
        the frontier breaks ties toward the earlier slot and the earlier
        chunk — which reproduces exactly the stable
        ``sort_batches([own] + incoming)`` of the plain staged run.
        """
        k, rank, comm = self.size, self.rank, self.comm
        peers = [p for p in range(k) if p != rank]
        slot_of = {rank: 0, **{s: 1 + i for i, s in enumerate(peers)}}
        streaming = self.spec.overlap
        speculative = (
            self.spec_splits is not None and comm.job_control is not None
        )
        frontier = MergeFrontier(k, eager=streaming, oc=oc)
        #: Staged: every destination's chunks, held for its one message.
        held: List[List[Chunk]] = [[] for _ in range(k)]
        #: Overlapped: in-flight (request, frame) pairs of the chunk stream.
        sends: List[Tuple[Request, Any]] = []
        sent = [0] * k
        received = [0] * k

        def feed(shard: int, chunks: List[Chunk]) -> None:
            for chunk in chunks:
                frontier.feed(
                    slot_of[shard], chunk,
                    presorted=oc is not None, tag=f"recv-{shard}",
                )

        def emit(dst: int, chunk: Chunk) -> None:
            """One chunk of map output for ``dst`` is complete."""
            if not streaming:
                held[dst].append(chunk)
            elif dst == rank:
                with self.stage("reduce"):
                    feed(rank, [chunk])
            elif isinstance(chunk, Run) or len(chunk):
                with self.stage("pack"):
                    frame = [
                        bytes([_FRAME_CHUNK]),
                        *_pack_chunks([chunk], first=sent[dst]),
                    ]
                sent[dst] += 1
                # Posted under the shuffle stage (the map scope is open
                # around us) so the frame's traffic is attributed like
                # the staged schedule's.
                with self.stage("shuffle"):
                    sends.append((comm.isend(dst, SHUFFLE_TAG, frame), frame))

        def consume(sender: int, raw: BufferLike) -> None:
            """One message of ``sender``'s channel: unpack, feed Reduce."""
            with self.stage("unpack"):
                chunks = []
                for tag, batch in unpack_batches(raw, copy=False):
                    if tag != received[sender]:
                        raise RuntimeError(
                            f"chunk {received[sender]} from sender "
                            f"{sender} tagged {tag}"
                        )
                    received[sender] += 1
                    chunks.append(batch)
            # Under a budget the frontier copies (or spills) each chunk
            # out of the receive arena, so no arena outlives this call;
            # in memory the views wait for the one sort.  Overlapped,
            # that is charged to Reduce (under a budget it sorts and
            # merges); staged it only collects or spills, inside the
            # caller's scope.
            if streaming:
                with self.stage("reduce"):
                    feed(sender, chunks)
            else:
                feed(sender, chunks)

        backup: Optional[int] = None
        ready_req: Optional[Request] = None

        def backup_finished() -> bool:
            """Speculation's abandon predicate: the backup signalled READY."""
            nonlocal backup, ready_req
            if backup is None:
                backup = comm.job_control.backup_for(rank)
                if backup is not None:
                    ready_req = comm.irecv(backup, SPEC_READY_TAG)
            return ready_req is not None and ready_req.test()

        abandon = backup_finished if speculative else None
        if oc is not None:
            spiller = PartitionSpiller(
                k, oc.spill, oc.plan.flush_bytes, oc.meter, on_run=emit
            )

        # The map-window policy: the budget's window; ~32 per shard when
        # an in-memory run must act between windows; else the whole file.
        if oc is not None:
            window: Optional[int] = oc.plan.input_window_records
        elif streaming or speculative:
            window = shard_window(len(self.source))
        else:
            window = None

        def map_steps() -> Iterator[bool]:
            yield from self._map_windows(
                self.source,
                window,
                spiller.add if oc is not None else emit,
                abandon,
                oc,
            )
            if oc is not None:
                spiller.finish()  # the tails: every stream's last run

        steps = map_steps()

        if streaming:
            # The chunk/END stream: sends are posted from inside the map
            # (``emit``), arrivals are consumed between windows.
            with self.stage("shuffle") as scope:
                recvs = {
                    s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in peers
                }

                def poll() -> bool:
                    progressed = False
                    for s in list(recvs):
                        if not recvs[s].test():
                            continue
                        payload = recvs[s].wait()
                        progressed = True
                        if payload[0] == _FRAME_END:
                            del recvs[s]
                            continue
                        consume(s, memoryview(payload)[1:])
                        del payload  # release the receive arena
                        recvs[s] = comm.irecv(s, SHUFFLE_TAG, copy=False)
                    # Drop completed sends (their frame buffers with them).
                    sends[:] = [p for p in sends if not p[0].test()]
                    return progressed

                mapping = True
                while mapping:
                    with self.stage("map"):
                        mapping = next(steps, False)
                    poll()
                end = bytes([_FRAME_END])
                for dst in peers:
                    sends.append((comm.isend(dst, SHUFFLE_TAG, end), end))
                while recvs:
                    if not poll():
                        # Every send is posted: block on the first open
                        # channel instead of polling.
                        next(iter(recvs.values())).wait()
                wait_all([req for req, _ in sends])
            export_overlap(self, scope)
        else:
            with self.stage("map"):
                map_t0 = time.perf_counter()
                for _ in steps:
                    pass
                if speculative and backup_finished():
                    # The backup's copy is complete (even if it only beat
                    # us to the finish line): yield, so exactly one copy
                    # of the shard enters the shuffle.  Pseudo-stage (not
                    # in STAGES): flags the abandoned map, its sunk time.
                    self.stopwatch.add(
                        "spec_map_abandoned", time.perf_counter() - map_t0
                    )
                    held = None
            if speculative:
                arrived = self._speculative_exchange(held, backup)
                for shard in range(k):
                    got = arrived[shard]
                    if isinstance(got, list):
                        feed(shard, got)
                    else:
                        consume(shard, got)
            else:
                feed(rank, held[rank])
                with self.stage("pack"):
                    outgoing = {dst: _pack_chunks(held[dst]) for dst in peers}
                # Fig. 9(a): one sender at a time, in rank order.  Each
                # inbound message is consumed (a nested Unpack scope)
                # before the next receive, so under a budget at most one
                # receive arena is ever resident.
                with self.stage("shuffle"):
                    for sender in range(k):
                        if sender == rank:
                            for dst in peers:
                                comm.send(dst, SHUFFLE_TAG, outgoing[dst])
                        else:
                            raw = comm.recv(sender, SHUFFLE_TAG, copy=False)
                            consume(sender, raw)
                            del raw

        with self.stage("reduce"):
            return frontier.finish(self, self.spec.output_dir)

    # -- speculative map re-execution ---------------------------------------

    def _speculative_exchange(
        self, held: Optional[List[List[Chunk]]], backup: Optional[int]
    ) -> Dict[int, Any]:
        """The staged shuffle with driver-directed speculative execution.

        The map ran windowed so this rank could abandon its shard the
        moment a backup copy (launched by the driver on an
        already-finished worker) signalled completion.  The shuffle is
        an event loop: every rank sends its frames up front, each either
        a *data* frame (marker byte + packed partition chunks) or a
        *yield* frame naming the backup rank to fetch that shard's
        partition from instead.  A shard's partitions are a
        deterministic function of its descriptor, so whichever copy wins
        the race the output is byte-identical to the plain run.

        Also services this rank's backup duty: when the driver names
        this rank as backup for a straggling shard, the duty map runs
        synchronously inside the loop (all receives are polled, so
        nothing blocks on this rank meanwhile).

        Args:
            held: this rank's map output per destination, or ``None``
                when it abandoned its own map (``backup`` then ships our
                partition of our own shard like any redirected shard).

        Returns:
            ``shard -> `` this rank's partition of it: the packed chunks
            as received, or the chunk list itself where it never left
            this rank (own map, backup duty).
        """
        k, rank, comm = self.size, self.rank, self.comm
        control = comm.job_control
        peers = [p for p in range(k) if p != rank]
        arrived: Dict[int, Any] = {}
        redirected: Dict[int, Request] = {}
        with self.stage("pack"):
            if held is not None:
                frames: Dict[int, Any] = {
                    dst: [bytes([_FRAME_DATA]), *_pack_chunks(held[dst])]
                    for dst in peers
                }
                arrived[rank] = held[rank]
            else:
                frames = dict.fromkeys(
                    peers, bytes([_FRAME_YIELD]) + struct.pack("<I", backup)
                )
        with self.stage("shuffle"):
            for dst in peers:
                comm.send(dst, SHUFFLE_TAG, frames[dst])
            if held is None:
                redirected[rank] = comm.irecv(
                    backup, SPEC_DATA_TAG + rank, copy=False
                )
            primary = {
                s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in peers
            }
            pending = set(primary)
            duty_parts: Dict[int, Optional[List[List[Chunk]]]] = {}
            while pending or redirected:
                progressed = False

                duty = control.backup_duty(rank)
                if duty is not None and duty != rank and duty not in duty_parts:
                    # None: the shard was already delivered.
                    duty_parts[duty] = (
                        self._run_backup_duty(duty, primary[duty])
                        if duty in pending
                        else None
                    )
                    progressed = True

                for s in list(pending):
                    if not primary[s].test():
                        continue
                    payload = primary[s].wait()
                    pending.discard(s)
                    progressed = True
                    if payload[0] == _FRAME_DATA:
                        arrived[s] = memoryview(payload)[1:]
                        continue
                    (holder,) = struct.unpack_from("<I", payload, 1)
                    if holder != rank:
                        redirected[s] = comm.irecv(
                            holder, SPEC_DATA_TAG + s, copy=False
                        )
                        continue
                    # We are the backup: a straggler yields only after our
                    # READY, so the duty copy is guaranteed complete — ship
                    # it to everyone else, keep our own partition locally.
                    parts = duty_parts.get(s)
                    if parts is None:
                        raise RuntimeError(
                            f"shard {s} yielded to rank {rank} before its "
                            f"backup copy completed"
                        )
                    for dst in peers:
                        comm.send(
                            dst, SPEC_DATA_TAG + s, _pack_chunks(parts[dst])
                        )
                    arrived[s] = parts[rank]

                for s in list(redirected):
                    if redirected[s].test():
                        arrived[s] = redirected.pop(s).wait()
                        progressed = True

                if not progressed:
                    # Not a wait(): the loop also watches the driver's
                    # control mailbox, which no request completes.
                    time.sleep(0.0005)
        return arrived

    def _run_backup_duty(
        self, shard: int, straggler_req: Request
    ) -> Optional[List[List[Chunk]]]:
        """Map the straggler's shard; abort if its own frame lands first.

        Returns the shard's chunks per destination, or ``None`` when the
        straggler finished while we were still duplicating (its primary
        frame then carries the real bytes).  On completion, READY is
        signalled to the straggler — its next window-boundary poll will
        make it yield, and the resolution (its primary frame's marker)
        tells us whether to ship the duty copy or discard it.
        """
        assert self.spec_splits is not None
        t0 = time.perf_counter()
        split = self.spec_splits[shard]
        parts: List[List[Chunk]] = [[] for _ in range(self.size)]
        for _ in self._map_windows(
            split,
            shard_window(len(split)),
            lambda dst, part: parts[dst].append(part),
            straggler_req.test,
        ):
            pass
        if straggler_req.test():
            return None
        self.comm.send(shard, SPEC_READY_TAG, b"")
        # Pseudo-stage: duty time, visible in this node's raw stage dict.
        self.stopwatch.add("spec_backup", time.perf_counter() - t0)
        return parts


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


def _terasort_program(comm: Comm, payload: Tuple) -> TeraSortProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    return TeraSortProgram(comm, *payload)


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
        if (
            self.memory_budget is not None
            and self.memory_budget < MIN_MEMORY_BUDGET
        ):
            raise ValueError(
                f"memory_budget must be >= {MIN_MEMORY_BUDGET} bytes, "
                f"got {self.memory_budget}"
            )
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


@dataclass(frozen=True)
class TeraSortSpec(SortSpec):
    """The uncoded baseline sort (§III): serial unicast shuffle.

    Input, memory plane, partitioner and ``overlap`` fields: see
    :class:`SortSpec`.

    Attributes:
        speculation: enable speculative re-execution of straggling map
            shards (live pool backends only): the driver watches stage
            heartbeats and launches a backup copy of a slow shard's map
            on an already-finished worker — first finisher wins, output
            stays byte-identical (map output per shard is deterministic).
            Staged and in-memory, and the backup must be able to re-read
            the straggler's split: requires ``input=`` (a re-readable
            descriptor, not an ``InlineSource``), no ``memory_budget``
            and no ``overlap`` — :meth:`validate` names each rejected
            cell (``"overlap x speculation"``, …).
        speculation_wait_factor / speculation_min_wait: a shard is
            declared straggling once the job has run
            ``max(min_wait, wait_factor x median map completion time)``
            seconds and at least half the workers finished their map
            (``wait_factor >= 1``, ``min_wait >= 0``).
    """

    _: KW_ONLY
    speculation: bool = False
    speculation_wait_factor: float = 1.5
    speculation_min_wait: float = 0.2

    def validate(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        super().validate(size)
        if not self.speculation:
            return
        if self.overlap:
            raise ValueError(
                "overlap x speculation: mutually exclusive — speculation runs "
                "on the staged shuffle only (hide communication with overlap, "
                "or run stragglers with speculation)"
            )
        if isinstance(self.source, InlineSource):
            given = self.data if self.input is None else self.input
            raise ValueError(
                "speculation x inline data: speculation requires input= (a "
                "re-readable DataSource descriptor: a backup worker must be "
                "able to read the straggler's split); got "
                f"{type(given).__name__}"
            )
        if self.memory_budget is not None:
            raise ValueError(
                "speculation x memory_budget: speculation is only supported "
                "on the in-memory path (no memory_budget)"
            )
        if self.speculation_wait_factor < 1.0:
            raise ValueError(
                f"speculation_wait_factor must be >= 1.0, "
                f"got {self.speculation_wait_factor}"
            )
        if self.speculation_min_wait < 0.0:
            raise ValueError(
                f"speculation_min_wait must be >= 0, "
                f"got {self.speculation_min_wait}"
            )

    def shrink_to(self, free: int) -> Optional[int]:
        # The uncoded sort re-splits at the descriptor level: any K' >= 2
        # is a valid (smaller) re-plan of the same spec.
        return self._shrink_by_validate(free, floor=2)

    def prepare(self, size: int) -> PreparedJob:
        """Compile one TeraSort over ``size`` nodes into a pool-runnable job.

        Builds the shared range partitioner once on the coordinator and
        cuts the input into per-rank splits *at the descriptor level*:
        each rank's payload is the input-less spec, a
        :class:`~repro.kvpairs.datasource.DataSource` subrange and the
        partitioner, so for file/teragen inputs the control plane ships
        ~100-byte descriptors, never record bytes (an
        :class:`~repro.kvpairs.datasource.InlineSource` — the plain
        ``data=`` call style — still ships its records by value, the
        seed behavior).  ``finalize`` assembles the pool's
        :class:`~repro.runtime.program.ClusterResult` into a
        :class:`SortRun`.  With ``speculation`` every rank also gets all
        the splits, and the job asks the pool's driver loop to watch the
        map stage's heartbeats.
        """
        self.validate(size)
        partitioner = self._partitioner(size)
        splits = UncodedPlacement(size).split_source(self.source)
        spec = self._for_workers()
        input_meta = self._input_meta()
        spec_splits = list(splits) if self.speculation else None
        payloads: List[Any] = [
            (spec, splits[rank], partitioner, spec_splits)
            for rank in range(size)
        ]

        def finalize(result: ClusterResult) -> SortRun:
            meta: Dict[str, object] = {
                "algorithm": "terasort",
                "num_nodes": size,
                **input_meta,
            }
            if self.speculation:
                # Which ranks ran a backup copy / abandoned their own map
                # (from the pseudo-stage stamps in the raw per-node times).
                meta["speculation"] = {
                    "backups": [
                        r
                        for r, t in enumerate(result.per_node_times)
                        if "spec_backup" in t
                    ],
                    "abandoned": [
                        r
                        for r, t in enumerate(result.per_node_times)
                        if "spec_map_abandoned" in t
                    ],
                }
            return self._sort_run(result, partitioner, meta)

        return PreparedJob(
            builder=_terasort_program,
            payloads=payloads,
            finalize=finalize,
            speculation=(
                {
                    "stage": "map",
                    "wait_factor": self.speculation_wait_factor,
                    "min_wait": self.speculation_min_wait,
                }
                if self.speculation
                else None
            ),
        )
