"""TeraSort: the uncoded baseline (§III).

Five stages per node, exactly as the paper's implementation (§V-A):

1. **Map** — hash the node's single input file into ``K`` per-partition
   intermediate values;
2. **Pack** — serialize each intermediate value into one contiguous buffer
   so a single flow carries it;
3. **Shuffle** — serial unicast (Fig. 9(a)): senders take turns in rank
   order; during node ``j``'s turn it unicasts ``I^k_{j}`` to every other
   node ``k`` back-to-back, in ring order ``k = j+1, …, K-1, 0, …, j-1``,
   so the next sender is served first and starts its turn while ``j``
   still sends;
4. **Unpack** — deserialize the ``K-1`` received buffers;
5. **Reduce** — locally sort partition ``P_k``.

Uncoded TeraSort is the ``r = 1`` corner of the coded tradeoff, and
:class:`TeraSortProgram` runs it as such: the one coded pipeline
(:mod:`repro.core.coded_terasort`, which describes its policies) under
:class:`~repro.core.coded_terasort.SortLaw` on the ``r = 1`` placement,
where file ``k`` is subset ``(k,)`` on rank ``k``.  What the uncoded sort
adds is no coding:

* its in-memory map runs ~32 windows per shard (:func:`shard_window`)
  when it must act between windows (``overlap``, speculation);
* under a budget it keeps each destination's stream as the sorted runs
  of a keyed :class:`~repro.kvpairs.spill.ExternalSorter` — what the
  budgeted wire carries, and what the receiver merges as they are;
* its ``_shuffle`` ships each destination's chunks framed
  (:func:`_pack_chunks`): on the designated-sender turn walk (staged,
  Fig. 9(a)), as a chunk/END stream posted as the map produces them
  (``overlap``), or as one data-or-yield frame per channel under
  speculative map re-execution (``speculation``; staged, in memory).

:class:`TeraSortSpec` *is* the job: it declares every option once (name,
default, meaning, validity), its :meth:`~TeraSortSpec.prepare` compiles
one sort into a pool-runnable :class:`~repro.runtime.program.PreparedJob`
(placement, the shared partitioner, result assembly) and the ranks read
their options from the spec they are handed.  Submit it to a
:class:`repro.session.Session`, or run it once with :func:`repro.run`.
"""

from __future__ import annotations

import struct
import time
from contextlib import nullcontext
from dataclasses import KW_ONLY, dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.coded_terasort import (
    CodedTeraSortProgram,
    SortLaw,
    SortRun,
    SortSpec,
)
from repro.core.outofcore import OutOfCore
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement
from repro.kvpairs.datasource import DataSource, InlineSource
from repro.kvpairs.records import BufferLike, RecordBatch
from repro.kvpairs.serialization import pack_batches_parts, unpack_batches
from repro.kvpairs.spill import ExternalSorter, Run
from repro.runtime.api import Comm, Request, wait_all
from repro.runtime.program import ClusterResult, PreparedJob, export_overlap
from repro.utils.subsets import Subset

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


class TeraSortProgram(CodedTeraSortProgram):
    """Per-node TeraSort: the coded pipeline at ``r = 1`` under the
    uncoded shuffle.

    Args:
        comm: communication endpoint.
        spec: the job's :class:`TeraSortSpec`, input stripped (its
            ``memory_budget``, ``output_dir`` and ``overlap`` are read).
        files / subsets: the ``r = 1`` placement's ``{rank: F_rank}`` /
            ``{rank: (rank,)}``; the file a resident
            :class:`~repro.kvpairs.records.RecordBatch` or a
            :class:`~repro.kvpairs.datasource.DataSource` the node streams.
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
        files: Dict[int, Union[RecordBatch, DataSource]],
        subsets: Dict[int, Subset],
        partitioner: RangePartitioner,
        spec_splits: Optional[List[DataSource]] = None,
    ) -> None:
        super().__init__(comm, spec, files, subsets, SortLaw(partitioner))
        self.spec_splits = spec_splits
        self.speculative = (
            spec_splits is not None and comm.job_control is not None
        )
        #: Speculation: the rank re-mapping our shard, once the driver
        #: names one, and the receive of its READY.
        self._backup: Optional[int] = None
        self._ready: Optional[Request] = None
        if self.speculative:
            self._abandon = self._backup_finished

    def _codegen(self) -> None:
        """Nothing to plan: the shuffle is uncoded."""

    def _map_window(self, oc: Optional[OutOfCore]) -> Optional[int]:
        # In memory, overlap and speculation act between windows (post
        # chunks, poll arrivals and the abandon predicate).
        if oc is None and (self.spec.overlap or self.speculative):
            return shard_window(len(self.files[self.rank]))
        return super()._map_window(oc)

    def _store(self, oc: Optional[OutOfCore]) -> Any:
        # Under a budget each destination's stream is kept as the sorted
        # runs the budgeted wire carries (the receiver merges them as
        # they are); in memory, as the map's pieces.
        if oc is None:
            return super()._store(oc)
        return ExternalSorter(oc.spill, oc.plan.flush_bytes, oc.meter, "part")

    def _seal(self, store: Any, keys: List[Tuple[Subset, int]]) -> None:
        # Nothing is encoded; under a budget the tails become each
        # stream's last run.
        if self.spec.memory_budget is not None:
            store.finish()

    def _shuffle(self, codegen, steps, completed, store, frontier, slot_of):
        """Ship each destination's chunks out of ``store`` and feed the
        arrivals into ``frontier`` (the body feeds this rank's own).

        Byte-identity rests on each per-destination stream travelling as
        chunks *in stream order* (sorted chunks are stably sorted): the
        frontier breaks ties toward the earlier slot and the earlier
        chunk, replaying the stable ``sort_batches([own] + incoming)`` of
        the plain staged run.
        """
        rank = self.rank
        received = [0] * self.size
        presorted = self.spec.memory_budget is not None

        def feed(shard: int, chunks: List[Chunk]) -> None:
            # Under a budget the frontier copies (or spills) each chunk
            # out of the receive arena; in memory the views wait for the
            # one sort.  Overlapped that is Reduce work; staged it runs
            # in the caller's scope.
            with self.stage("reduce") if self.spec.overlap else nullcontext():
                for chunk in chunks:
                    frontier.feed(
                        slot_of[(shard,)], chunk,
                        presorted=presorted, tag=f"recv-{shard}",
                    )

        def consume(sender: int, raw: BufferLike) -> None:
            """One message of ``sender``'s stream: unpack, feed Reduce."""
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
            feed(sender, chunks)

        def take(dst: int) -> List[Chunk]:
            return list(store.take(((rank,), dst)))

        if self.spec.overlap:
            self._stream(steps, take, consume)
        elif self.speculative:
            self._speculate(take, feed, consume)
        else:
            with self.stage("pack"):
                outgoing = {
                    dst: _pack_chunks(take(dst))
                    for dst in range(self.size) if dst != rank
                }
            # Each outbound message is dropped once sent, so a sent
            # partition is freed while the rest of the shuffle runs.
            self._turn_walk(
                SHUFFLE_TAG,
                lambda subset, dst: outgoing.pop(dst),
                lambda subset, raw: consume(subset[0], raw),
            )

    def _stream(self, steps, take, consume) -> None:
        """The chunk/END stream: the loop drives the map; after each
        window every completed chunk is posted (``isend``) and whatever
        has arrived is consumed."""
        rank, comm = self.rank, self.comm
        peers = [p for p in range(self.size) if p != rank]
        sends: List[Tuple[Request, Any]] = []  # in flight, with frames
        sent = [0] * self.size
        with self.stage("shuffle") as scope:
            recvs = {s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in peers}

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
                for dst in peers:
                    for chunk in take(dst):
                        with self.stage("pack"):
                            frame = [
                                bytes([_FRAME_CHUNK]),
                                *_pack_chunks([chunk], first=sent[dst]),
                            ]
                        sent[dst] += 1
                        sends.append(
                            (comm.isend(dst, SHUFFLE_TAG, frame), frame)
                        )
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

    # -- speculative map re-execution ---------------------------------------

    def _backup_finished(self) -> bool:
        """Speculation's abandon predicate: the backup signalled READY."""
        if self._backup is None:
            self._backup = self.comm.job_control.backup_for(self.rank)
            if self._backup is not None:
                self._ready = self.comm.irecv(self._backup, SPEC_READY_TAG)
        return self._ready is not None and self._ready.test()

    def _speculate(self, take, feed, consume) -> None:
        """The staged shuffle with driver-directed speculative execution.

        The map ran windowed so this rank could abandon its shard the
        moment a backup copy (launched by the driver on an
        already-finished worker) signalled completion; if one did — even
        if it only beat us to the finish line — we yield, so exactly one
        copy of the shard enters the shuffle.  Every rank sends its
        frames up front, each either a *data* frame (marker byte +
        packed partition chunks) or a *yield* frame naming the backup
        rank to fetch that shard's partition from instead.  A shard's
        partitions are a deterministic function of its descriptor, so
        whichever copy wins the race the output is byte-identical.

        The loop also serves this rank's backup duty: when the driver
        names it backup for a straggling shard, the duty map runs inside
        the loop (every receive is polled, so nothing blocks on us).
        """
        k, rank, comm = self.size, self.rank, self.comm
        peers = [p for p in range(k) if p != rank]
        abandoned = self._backup_finished()
        if abandoned:
            # Pseudo-stage (not in STAGES): flags the abandoned map, its
            # sunk time.  Its output leaves the store unused.
            self.stopwatch.add(
                "spec_map_abandoned", self.stopwatch.times().get("map", 0.0)
            )
            for dst in range(k):
                take(dst)
        with self.stage("pack"):
            if abandoned:
                frames: Dict[int, Any] = dict.fromkeys(
                    peers,
                    bytes([_FRAME_YIELD]) + struct.pack("<I", self._backup),
                )
            else:
                frames = {
                    dst: [bytes([_FRAME_DATA]), *_pack_chunks(take(dst))]
                    for dst in peers
                }
        with self.stage("shuffle"):
            for dst in peers:
                comm.send(dst, SHUFFLE_TAG, frames.pop(dst))
            # Primary frames, and shards redirected to their backup.
            primary = {s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in peers}
            redirected: Dict[int, Request] = {}
            if abandoned:
                redirected[rank] = comm.irecv(
                    self._backup, SPEC_DATA_TAG + rank, copy=False
                )
            duty_parts: Dict[int, Optional[List[List[Chunk]]]] = {}
            while primary or redirected:
                progressed = False
                duty = comm.job_control.backup_duty(rank)
                if duty is not None and duty != rank and duty not in duty_parts:
                    # None: the shard was already delivered.
                    duty_parts[duty] = (
                        self._run_backup_duty(duty, primary[duty])
                        if duty in primary
                        else None
                    )
                    progressed = True
                for s, req in list(primary.items()):
                    if not req.test():
                        continue
                    del primary[s]
                    progressed = True
                    payload = req.wait()
                    if payload[0] == _FRAME_DATA:
                        consume(s, memoryview(payload)[1:])
                        continue
                    (holder,) = struct.unpack_from("<I", payload, 1)
                    if holder != rank:
                        redirected[s] = comm.irecv(
                            holder, SPEC_DATA_TAG + s, copy=False
                        )
                        continue
                    # We are the backup: a straggler yields only after our
                    # READY, so the duty copy is complete — ship it to
                    # everyone else, keep our own partition.
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
                    feed(s, parts[rank])
                for s, req in list(redirected.items()):
                    if req.test():
                        del redirected[s]
                        consume(s, req.wait())
                        progressed = True
                if not progressed:
                    # Not a wait(): the loop also watches the driver's
                    # control mailbox, which no request completes.
                    time.sleep(0.0005)

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
        t0 = time.perf_counter()
        split = self.spec_splits[shard]
        parts: List[List[Chunk]] = [[] for _ in range(self.size)]

        def retain(pieces: List[RecordBatch]) -> None:
            for dst, piece in enumerate(pieces):
                parts[dst].append(piece)

        for _ in self._map_file(
            shard, split, range(self.size), shard_window(len(split)),
            retain, straggler_req.test,
        ):
            pass
        if straggler_req.test():
            return None
        self.comm.send(shard, SPEC_READY_TAG, b"")
        # Pseudo-stage: duty time, visible in this node's raw stage dict.
        self.stopwatch.add("spec_backup", time.perf_counter() - t0)
        return parts


def _terasort_program(comm: Comm, payload: Tuple) -> TeraSortProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    return TeraSortProgram(comm, *payload)


@dataclass(frozen=True)
class TeraSortSpec(SortSpec):
    """The uncoded baseline sort (§III): serial unicast shuffle — the
    Fig. 9(a) turn walk, each sender serving the others in ring order
    from itself (``j+1, …, j-1``).

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

    # The coded body's other policies, fixed at the uncoded corner (not
    # fields): every file on one node, no coding groups.
    redundancy = 1
    group_size = None

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
        cuts the input into the ``r = 1`` placement's files *at the
        descriptor level*: each rank's payload is the input-less spec,
        its ``{rank: file}`` / ``{rank: (rank,)}`` maps and the
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
        placement = CodedPlacement(size, 1)
        splits = placement.split_source(self.source)
        spec = self._for_workers()
        input_meta = self._input_meta()
        spec_splits = list(splits) if self.speculation else None
        payloads: List[Any] = [
            (spec, files, subsets, partitioner, spec_splits)
            for files, subsets in placement.assign(splits, size)
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
