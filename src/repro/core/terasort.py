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

The program runs on any :class:`~repro.runtime.api.Comm` backend.
:func:`prepare_terasort` compiles one sort into a pool-runnable
:class:`~repro.runtime.program.PreparedJob` (placement, the shared
partitioner, result assembly); the declarative driver API is
:class:`repro.session.TeraSortSpec` submitted to a
:class:`repro.session.Session`, and :func:`run_terasort` is its one-shot
shim.

Out-of-core execution: inputs are
:class:`~repro.kvpairs.datasource.DataSource` descriptors (each rank
materializes or streams its split locally — the control plane never
carries record bytes for file/teragen sources), and with a
``memory_budget`` the node program switches from materialize-everything
to the bounded-memory pipeline: chunked Map (windows hashed and spilled
as sorted per-partition runs), a shuffle that ships runs as mmap views
and spills what it receives, and a streaming Reduce (external k-way merge
instead of one in-RAM sort).  Output is byte-identical to the in-memory
path — the merge's run ordering reproduces the stable sort exactly.

The compute hot path (Map's partition pass, Reduce's k-way merge) runs
on the kernels of :mod:`repro.kvpairs.kernels` — MSB radix partition
and the offset-value-coded merge (spilled runs carry persisted ``.ovc``
code sidecars) — with ``REPRO_KERNELS=classic`` selecting the plain
``searchsorted`` implementations; both are byte-identical.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.core.mapper import hash_file
from repro.core.outofcore import (
    OutOfCorePlan,
    PartitionSpiller,
    emit_output,
    export_residency,
    keep_or_spill,
    residency_meta,
)
from repro.core.partitioner import RangePartitioner
from repro.core.placement import UncodedPlacement
from repro.kvpairs.datasource import DataSource, FileSource, InlineSource, as_source
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.serialization import (
    pack_batch_parts,
    pack_batches_parts,
    unpack_batch,
    unpack_batches,
)
from repro.kvpairs import kernels
from repro.kvpairs.sorting import sort_batch, sort_batches
from repro.kvpairs.spill import (
    IncrementalMerger,
    Run,
    SpillDir,
    merge_runs,
)
from repro.runtime.api import Comm
from repro.runtime.program import (
    ClusterResult,
    NodeProgram,
    PreparedJob,
    export_overlap,
    overlap_meta,
)
from repro.utils.residency import ResidencyMeter
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

#: Bounds on the per-window record count in speculative mode.  The map
#: runs windowed so abandon-polls (and injected-slowdown pacing) happen
#: at window boundaries: ~SPEC_WINDOWS_PER_SHARD windows per shard,
#: clamped so tiny shards still poll and huge ones don't poll too often.
SPEC_MAP_WINDOW = 32768
SPEC_MIN_WINDOW = 512
SPEC_WINDOWS_PER_SHARD = 32


def _spec_window(num_records: int) -> int:
    """Map-window size giving ~SPEC_WINDOWS_PER_SHARD polls per shard."""
    per = -(-num_records // SPEC_WINDOWS_PER_SHARD)
    return max(SPEC_MIN_WINDOW, min(SPEC_MAP_WINDOW, per))

#: First byte of a speculative primary shuffle frame.
_FRAME_DATA = 1  # packed partition bytes follow
_FRAME_YIELD = 0  # uint32 backup rank follows: fetch the shard from there

#: First byte of a streaming-overlap shuffle frame (same marker protocol,
#: different meaning: many frames per channel instead of one).
_FRAME_CHUNK = 1  # one map window's packed partition chunk follows
_FRAME_END = 0  # sender's map is complete; no more chunks on this channel

STAGES_TERASORT = ["map", "pack", "shuffle", "unpack", "reduce"]


class TeraSortProgram(NodeProgram):
    """Per-node TeraSort execution.

    Args:
        comm: communication endpoint.
        file_data: this node's input file ``F_{k}`` — a resident
            :class:`~repro.kvpairs.records.RecordBatch` or a
            :class:`~repro.kvpairs.datasource.DataSource` descriptor the
            node materializes/streams locally.
        partitioner: the shared ``K``-way range partitioner.
        memory_budget: cap (bytes) on resident record buffers; ``None``
            runs the seed in-memory path, a value runs the out-of-core
            pipeline (byte-identical output).
        output_dir: with a budget, stream the sorted partition to
            ``<output_dir>/part-<rank>`` and return a ``FileSource``
            instead of materializing it.
        spec_splits: all ranks' shard descriptors — enables speculative
            map re-execution (any rank can re-map a straggler's shard).
            Requires a live pool backend (a driver control channel);
            without one the program degrades to the plain path.
        overlap: streaming-overlap execution — ship each map window's
            partition chunks as they complete and merge arriving chunks
            incrementally (byte-identical to the serial schedule).
    """

    STAGES = STAGES_TERASORT

    def __init__(
        self,
        comm: Comm,
        file_data: Union[RecordBatch, DataSource],
        partitioner: RangePartitioner,
        memory_budget: Optional[int] = None,
        output_dir: Optional[str] = None,
        spec_splits: Optional[List[DataSource]] = None,
        overlap: bool = False,
    ) -> None:
        super().__init__(comm)
        self.source = as_source(file_data)
        self.partitioner = partitioner
        self.memory_budget = memory_budget
        self.output_dir = output_dir
        self.spec_splits = spec_splits
        self.overlap = overlap
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
        if self.spec_splits is not None and self.comm.job_control is not None:
            return self._run_speculative()
        k = self.size
        rank = self.rank

        with self.stage("map"):
            parts = hash_file(self.source.load(), self.partitioner)

        with self.stage("pack"):
            # Gather lists [frame header, records-view]: the mapper's
            # partition bytes are never copied between Map and the socket.
            outgoing = {
                dst: pack_batch_parts(parts[dst], tag=rank)
                for dst in range(k)
                if dst != rank
            }
            own = parts[rank]

        with self.stage("shuffle"):
            received: Dict[int, bytes] = {}
            # Fig. 9(a): one sender at a time, in rank order.
            for sender in range(k):
                if sender == rank:
                    for dst in range(k):
                        if dst != rank:
                            self.comm.send(dst, SHUFFLE_TAG, outgoing[dst])
                else:
                    received[sender] = self.comm.recv(
                        sender, SHUFFLE_TAG, copy=False
                    )

        with self.stage("unpack"):
            incoming: List[RecordBatch] = []
            for sender in sorted(received):
                tag, batch = unpack_batch(received[sender], copy=False)
                if tag != sender:
                    raise RuntimeError(
                        f"shuffle frame tag {tag} does not match sender {sender}"
                    )
                incoming.append(batch)

        with self.stage("reduce"):
            result = sort_batches([own] + incoming)
        return result

    # -- streaming overlap ---------------------------------------------------

    def _run_overlap(self) -> RecordBatch:
        """In-memory TeraSort with map↔shuffle↔reduce streaming overlap.

        One single-threaded event loop: each map window's partition
        chunks are posted as non-blocking sends the moment the window
        completes, and arriving chunks are sorted and fed into the
        incremental merge frontier between windows — so communication
        rides behind map compute on the send side and behind merge
        compute on the receive side, and the final merge only has the
        leftovers.  Byte-identity with the plain path: one stable argsort
        per window makes the windowed map equal the whole-shard map per
        partition (the speculation path's invariant), and the stable
        merge over [own windows, then each sender's windows in rank
        order] reproduces the plain path's stable
        ``sort_batch(concat([own] + incoming))`` exactly.
        """
        k = self.size
        rank = self.rank
        comm = self.comm
        senders = [s for s in range(k) if s != rank]
        slot_of = {s: 1 + i for i, s in enumerate(senders)}
        merger = IncrementalMerger(k)
        send_reqs: List[Tuple[Any, Any]] = []
        end_frame = bytes([_FRAME_END])

        with self.stage("shuffle") as scope:
            recvs = {
                s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in senders
            }

            def poll_arrivals() -> bool:
                progressed = False
                for s in list(recvs):
                    req = recvs[s]
                    if not req.test():
                        continue
                    payload = req.wait()
                    progressed = True
                    if payload[0] == _FRAME_END:
                        del recvs[s]
                        continue
                    with self.stage("unpack"):
                        tag, batch = unpack_batch(
                            memoryview(payload)[1:], copy=False
                        )
                        if tag != s:
                            raise RuntimeError(
                                f"overlap chunk tag {tag} does not match "
                                f"sender {s}"
                            )
                    with self.stage("reduce"):
                        # sort_batch copies out of the receive arena, so
                        # the payload view is not retained past the call.
                        merger.feed(slot_of[s], sort_batch(batch))
                    recvs[s] = comm.irecv(s, SHUFFLE_TAG, copy=False)
                # Drop completed sends (their frame buffers with them).
                send_reqs[:] = [
                    pair for pair in send_reqs if not pair[0].test()
                ]
                return progressed

            window_records = _spec_window(self.source.num_records)
            for window in self.source.iter_batches(window_records):
                with self.stage("map"):
                    wparts = hash_file(window, self.partitioner)
                with self.stage("pack"):
                    frames = {
                        dst: [bytes([_FRAME_CHUNK]),
                              *pack_batch_parts(wparts[dst], tag=rank)]
                        for dst in senders
                        if len(wparts[dst])
                    }
                for dst, frame in frames.items():
                    send_reqs.append(
                        (comm.isend(dst, SHUFFLE_TAG, frame), frame)
                    )
                with self.stage("reduce"):
                    merger.feed(0, sort_batch(wparts[rank]))
                self.fault_checkpoint()
                poll_arrivals()
            for dst in senders:
                send_reqs.append(
                    (comm.isend(dst, SHUFFLE_TAG, end_frame), end_frame)
                )
            while recvs or send_reqs:
                if not poll_arrivals():
                    time.sleep(0.0005)
        export_overlap(self, scope)

        with self.stage("reduce"):
            chunks = list(merger.finish())
            return (
                RecordBatch.concat(chunks) if chunks else RecordBatch.empty()
            )

    # -- speculative map re-execution ---------------------------------------

    def _run_speculative(self) -> RecordBatch:
        """In-memory TeraSort with driver-directed speculative execution.

        Map runs windowed so a rank can abandon its shard the moment a
        backup copy (launched by the driver on an already-finished
        worker) signals completion.  The shuffle becomes an event loop:
        every rank sends its frames up front, each either a *data* frame
        (marker byte + packed partition) or a *yield* frame naming the
        backup rank to fetch that shard's partition from instead.  A
        shard's partitions are a deterministic function of its
        descriptor, so whichever copy wins the race the output is
        byte-identical to the plain path.
        """
        k = self.size
        rank = self.rank

        with self.stage("map"):
            map_t0 = time.perf_counter()
            parts, my_backup = self._speculative_map()
            if parts is None:
                # Pseudo-stage (not in STAGES): flags the abandoned map
                # and its sunk time in this node's raw stage dict.
                self.stopwatch.add(
                    "spec_map_abandoned", time.perf_counter() - map_t0
                )

        with self.stage("pack"):
            if parts is not None:
                outgoing: Dict[int, Any] = {
                    dst: [bytes([_FRAME_DATA]),
                          *pack_batch_parts(parts[dst], tag=rank)]
                    for dst in range(k)
                    if dst != rank
                }
                own: Optional[RecordBatch] = parts[rank]
            else:
                redirect = bytes([_FRAME_YIELD]) + struct.pack(
                    "<I", my_backup
                )
                outgoing = {dst: redirect for dst in range(k) if dst != rank}
                own = None

        with self.stage("shuffle"):
            for dst in range(k):
                if dst != rank:
                    self.comm.send(dst, SHUFFLE_TAG, outgoing[dst])
            raw_frames, local_batches, own_raw = (
                self._speculative_shuffle_loop(my_backup if own is None else None)
            )

        with self.stage("unpack"):
            if own is None:
                tag, own = unpack_batch(own_raw, copy=False)
                if tag != rank:
                    raise RuntimeError(
                        f"backup frame tag {tag} does not match shard {rank}"
                    )
            incoming: List[RecordBatch] = []
            for sender in range(k):
                if sender == rank:
                    continue
                if sender in local_batches:
                    incoming.append(local_batches[sender])
                    continue
                tag, batch = unpack_batch(raw_frames[sender], copy=False)
                if tag != sender:
                    raise RuntimeError(
                        f"shuffle frame tag {tag} does not match "
                        f"shard {sender}"
                    )
                incoming.append(batch)

        with self.stage("reduce"):
            result = sort_batches([own] + incoming)
        return result

    def _speculative_map(
        self,
    ) -> Tuple[Optional[List[RecordBatch]], Optional[int]]:
        """Windowed map, preemptible by a backup's READY signal.

        Returns ``(parts, backup)``: the ``K`` partitions, or ``None``
        if this rank abandoned its shard because the backup's copy
        finished first; ``backup`` is the rank holding that copy
        (``None`` when no backup was ever assigned).
        """
        k = self.size
        control = self.comm.job_control
        acc: List[List[RecordBatch]] = [[] for _ in range(k)]
        backup: Optional[int] = None
        ready_req = None

        def backup_finished() -> bool:
            nonlocal backup, ready_req
            if backup is None:
                backup = control.backup_for(self.rank)
                if backup is not None:
                    ready_req = self.comm.irecv(backup, SPEC_READY_TAG)
            return ready_req is not None and ready_req.test()

        window_records = _spec_window(self.source.num_records)
        for window in self.source.iter_batches(window_records):
            wparts = hash_file(window, self.partitioner)
            for dst in range(k):
                acc[dst].append(wparts[dst])
            if self.fault_checkpoint(backup_finished) or backup_finished():
                return None, backup
        if backup_finished():
            # The backup beat us even to the finish line: still yield,
            # so exactly one copy of the shard enters the shuffle.
            return None, backup
        return [RecordBatch.concat(pieces) for pieces in acc], backup

    def _speculative_shuffle_loop(
        self, fetch_own_from: Optional[int]
    ) -> Tuple[Dict[int, Any], Dict[int, RecordBatch], Optional[Any]]:
        """Collect one partition frame per shard, re-routing yielded ones.

        Runs inside the ``shuffle`` stage after this rank's own frames
        went out.  Also services this rank's backup duty: when the
        driver names this rank as backup for a straggling shard, the
        duty map runs synchronously here (all receives are polled, so
        nothing blocks on this rank meanwhile).

        Args:
            fetch_own_from: set when this rank abandoned its own map —
                the backup rank shipping our partition of our shard.

        Returns:
            ``(raw_frames, local_batches, own_raw)``: packed-partition
            frames by shard, partitions kept locally from backup duty,
            and the raw frame holding our own partition (``None`` unless
            ``fetch_own_from``).
        """
        k = self.size
        rank = self.rank
        comm = self.comm
        control = comm.job_control

        primary = {
            s: comm.irecv(s, SHUFFLE_TAG, copy=False)
            for s in range(k)
            if s != rank
        }
        pending = set(primary)
        spec_reqs: Dict[int, Any] = {}
        raw_frames: Dict[int, Any] = {}
        local_batches: Dict[int, RecordBatch] = {}
        duty_parts: Dict[int, Optional[List[RecordBatch]]] = {}
        own_req = None
        own_raw: Optional[Any] = None
        if fetch_own_from is not None:
            own_req = comm.irecv(
                fetch_own_from, SPEC_DATA_TAG + rank, copy=False
            )

        while pending or spec_reqs or own_req is not None:
            progressed = False

            duty = control.backup_duty(rank)
            if duty is not None and duty != rank and duty not in duty_parts:
                if duty in pending:
                    duty_parts[duty] = self._run_backup_duty(
                        duty, primary[duty]
                    )
                else:
                    duty_parts[duty] = None  # shard already delivered
                progressed = True

            for s in list(pending):
                if not primary[s].test():
                    continue
                payload = primary[s].wait()
                pending.discard(s)
                progressed = True
                if payload[0] == _FRAME_DATA:
                    raw_frames[s] = memoryview(payload)[1:]
                    continue
                (backup,) = struct.unpack_from("<I", payload, 1)
                if backup != rank:
                    spec_reqs[s] = comm.irecv(
                        backup, SPEC_DATA_TAG + s, copy=False
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
                for dst in range(k):
                    if dst != rank:
                        comm.send(
                            dst,
                            SPEC_DATA_TAG + s,
                            pack_batch_parts(parts[dst], tag=s),
                        )
                local_batches[s] = parts[rank]

            for s in list(spec_reqs):
                if spec_reqs[s].test():
                    raw_frames[s] = spec_reqs.pop(s).wait()
                    progressed = True

            if own_req is not None and own_req.test():
                own_raw = own_req.wait()
                own_req = None
                progressed = True

            if not progressed:
                time.sleep(0.0005)

        return raw_frames, local_batches, own_raw

    def _run_backup_duty(
        self, shard: int, straggler_req: Any
    ) -> Optional[List[RecordBatch]]:
        """Map the straggler's shard; abort if its own frame lands first.

        Returns the shard's ``K`` partitions, or ``None`` when the
        straggler finished while we were still duplicating (its primary
        frame then carries the real bytes).  On completion, READY is
        signalled to the straggler — its next window-boundary poll will
        make it yield, and the resolution (its primary frame's marker)
        tells us whether to ship the duty copy or discard it.
        """
        assert self.spec_splits is not None
        t0 = time.perf_counter()
        k = self.size
        split = self.spec_splits[shard]
        acc: List[List[RecordBatch]] = [[] for _ in range(k)]
        for window in split.iter_batches(_spec_window(split.num_records)):
            if straggler_req.test():
                return None
            wparts = hash_file(window, self.partitioner)
            for dst in range(k):
                acc[dst].append(wparts[dst])
            if self.fault_checkpoint(straggler_req.test):
                return None
        if straggler_req.test():
            return None
        parts = [RecordBatch.concat(pieces) for pieces in acc]
        self.comm.send(shard, SPEC_READY_TAG, b"")
        # Pseudo-stage: duty time, visible in this node's raw stage dict.
        self.stopwatch.add("spec_backup", time.perf_counter() - t0)
        return parts

    # -- bounded-memory pipeline --------------------------------------------

    def _run_out_of_core(self) -> Union[RecordBatch, FileSource]:
        """Chunked Map, run-streaming shuffle, external-merge Reduce.

        Byte-identity with :meth:`run`'s in-memory path rests on one
        invariant, maintained at every step: each per-destination stream
        travels as stably-sorted chunks *in stream order*, and every merge
        breaks ties toward the earlier run — which reproduces exactly the
        stable ``sort_batch(concat([own] + incoming))`` of the seed path.
        """
        if self.overlap:
            return self._run_out_of_core_overlap()
        k = self.size
        rank = self.rank
        assert self.memory_budget is not None
        plan = OutOfCorePlan.for_budget(self.memory_budget)
        meter = self.meter = ResidencyMeter()
        spill = SpillDir(tag=f"ts-r{rank}")
        try:
            with self.stage("map"):
                spiller = PartitionSpiller(
                    k, spill, plan.flush_bytes, meter
                )
                for window in self.source.iter_batches(
                    plan.input_window_records
                ):
                    meter.charge(window.nbytes, "map.window")
                    parts = hash_file(window, self.partitioner)
                    for dst in range(k):
                        spiller.add(dst, parts[dst])
                    meter.discharge(window.nbytes)
                runs_by_dst = spiller.finish()

            with self.stage("pack"):
                # Per destination: one frame whose sub-frames are the
                # sorted runs in chunk order.  Spilled runs enter the
                # gather list as mmap views — record bytes go from disk
                # pages to the socket without a resident copy.
                outgoing = {
                    dst: pack_batches_parts(
                        (i, run.load())
                        for i, run in enumerate(runs_by_dst[dst])
                    )
                    for dst in range(k)
                    if dst != rank
                }

            received_runs: Dict[int, List[Run]] = {}
            # Fig. 9(a) turn order, but each inbound frame is unpacked and
            # spilled immediately so at most one receive arena is ever
            # resident.
            for sender in range(k):
                if sender == rank:
                    with self.stage("shuffle"):
                        for dst in range(k):
                            if dst != rank:
                                self.comm.send(dst, SHUFFLE_TAG, outgoing[dst])
                else:
                    with self.stage("shuffle"):
                        raw = self.comm.recv(sender, SHUFFLE_TAG, copy=False)
                    with self.stage("unpack"):
                        runs = []
                        for i, (tag, batch) in enumerate(
                            unpack_batches(raw, copy=False)
                        ):
                            if tag != i:
                                raise RuntimeError(
                                    f"run {i} from sender {sender} "
                                    f"tagged {tag}"
                                )
                            runs.append(
                                keep_or_spill(
                                    batch, spill, plan, meter,
                                    f"recv-{sender}",
                                )
                            )
                        received_runs[sender] = runs
                        del raw  # release the receive arena

            with self.stage("reduce"):
                ordered: List[Run] = list(runs_by_dst[rank])
                for sender in sorted(received_runs):
                    ordered.extend(received_runs[sender])
                merged = merge_runs(
                    ordered,
                    window_records=plan.merge_window_records(len(ordered)),
                    out_records=plan.out_records,
                    meter=meter,
                )
                result = emit_output(merged, rank, self.output_dir, meter)
            return result
        finally:
            spill.cleanup()
            export_residency(self, meter, self.memory_budget)

    def _run_out_of_core_overlap(self) -> Union[RecordBatch, FileSource]:
        """Bounded-memory TeraSort with streaming overlap.

        Same stability discipline as :meth:`_run_out_of_core`, but each
        per-destination run ships the moment the spiller seals it (one
        frame per run, tagged with its chunk index) and received runs
        feed the incremental merge frontier as they land.  The merge
        frontier adds at most ~1/8 budget of transient residency on top
        of the serial pipeline's peak (its pair merges stream through
        bounded windows).
        """
        k = self.size
        rank = self.rank
        comm = self.comm
        assert self.memory_budget is not None
        plan = OutOfCorePlan.for_budget(self.memory_budget)
        meter = self.meter = ResidencyMeter()
        spill = SpillDir(tag=f"ts-ov-r{rank}")
        senders = [s for s in range(k) if s != rank]
        slot_of = {s: 1 + i for i, s in enumerate(senders)}
        merger = IncrementalMerger(
            k,
            spill=spill,
            resident_limit=plan.memory_budget // 8,
            window_records=plan.merge_window_records(8),
            out_records=plan.out_records,
            meter=meter,
            tag="ov-merge",
        )
        send_reqs: List[Tuple[Any, Any]] = []
        sent_counts = [0] * k
        end_frame = bytes([_FRAME_END])
        try:
            with self.stage("shuffle") as scope:
                recvs = {
                    s: comm.irecv(s, SHUFFLE_TAG, copy=False) for s in senders
                }
                recv_counts = {s: 0 for s in senders}

                def poll_arrivals() -> bool:
                    progressed = False
                    for s in list(recvs):
                        req = recvs[s]
                        if not req.test():
                            continue
                        payload = req.wait()
                        progressed = True
                        if payload[0] == _FRAME_END:
                            del recvs[s]
                            continue
                        with self.stage("unpack"):
                            tag, batch = unpack_batch(
                                memoryview(payload)[1:], copy=False
                            )
                            if tag != recv_counts[s]:
                                raise RuntimeError(
                                    f"run {recv_counts[s]} from sender {s} "
                                    f"tagged {tag}"
                                )
                            recv_counts[s] += 1
                            run = keep_or_spill(
                                batch, spill, plan, meter, f"recv-{s}"
                            )
                        del payload, batch  # release the receive arena
                        with self.stage("reduce"):
                            merger.feed(slot_of[s], run)
                        recvs[s] = comm.irecv(s, SHUFFLE_TAG, copy=False)
                    send_reqs[:] = [
                        pair for pair in send_reqs if not pair[0].test()
                    ]
                    return progressed

                def on_run(dst: int, run: Run) -> None:
                    if dst == rank:
                        with self.stage("reduce"):
                            merger.feed(0, run)
                        return
                    with self.stage("pack"):
                        # The frame holds the run's mmap view: disk pages
                        # flow to the socket without a resident copy.
                        frame = [
                            bytes([_FRAME_CHUNK]),
                            *pack_batch_parts(
                                run.load(), tag=sent_counts[dst]
                            ),
                        ]
                    sent_counts[dst] += 1
                    with self.stage("shuffle"):
                        # Posted under the shuffle stage so the frame's
                        # traffic is attributed like the serial schedule.
                        send_reqs.append(
                            (comm.isend(dst, SHUFFLE_TAG, frame), frame)
                        )

                with self.stage("map"):
                    spiller = PartitionSpiller(
                        k, spill, plan.flush_bytes, meter, on_run=on_run
                    )
                    for window in self.source.iter_batches(
                        plan.input_window_records
                    ):
                        meter.charge(window.nbytes, "map.window")
                        parts = hash_file(window, self.partitioner)
                        for dst in range(k):
                            spiller.add(dst, parts[dst])
                        meter.discharge(window.nbytes)
                        self.fault_checkpoint()
                        poll_arrivals()
                    spiller.finish()

                for dst in senders:
                    send_reqs.append(
                        (comm.isend(dst, SHUFFLE_TAG, end_frame), end_frame)
                    )
                while recvs or send_reqs:
                    if not poll_arrivals():
                        time.sleep(0.0005)
            export_overlap(self, scope)

            with self.stage("reduce"):
                merged = merger.finish(
                    window_records=plan.merge_window_records(
                        max(2, merger.pending_runs)
                    )
                )
                result = emit_output(merged, rank, self.output_dir, meter)
            return result
        finally:
            spill.cleanup()
            export_residency(self, meter, self.memory_budget)


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
    source, partitioner, memory_budget, output_dir, *rest = payload
    return TeraSortProgram(
        comm,
        source,
        partitioner,
        memory_budget=memory_budget,
        output_dir=output_dir,
        spec_splits=rest[0] if rest else None,
        overlap=bool(rest[1]) if len(rest) > 1 else False,
    )


def prepare_terasort(
    size: int,
    data: Optional[Union[RecordBatch, DataSource]] = None,
    sampled_partitioner: bool = False,
    sample_size: int = 10000,
    sample_seed: int = 7,
    memory_budget: Optional[int] = None,
    output_dir: Optional[str] = None,
    speculation: bool = False,
    speculation_wait_factor: float = 1.5,
    speculation_min_wait: float = 0.2,
    overlap: bool = False,
) -> PreparedJob:
    """Compile one TeraSort over ``size`` nodes into a pool-runnable job.

    Builds the shared range partitioner once on the coordinator and cuts
    the input into per-rank splits *at the descriptor level*: each rank's
    payload is a :class:`~repro.kvpairs.datasource.DataSource` subrange
    plus the partitioner, so for file/teragen inputs the control plane
    ships ~100-byte descriptors, never record bytes (an
    :class:`~repro.kvpairs.datasource.InlineSource` — the plain
    ``RecordBatch`` call style — still ships its records by value, the
    seed behavior).  ``finalize`` assembles the pool's
    :class:`~repro.runtime.program.ClusterResult` into a :class:`SortRun`.

    With ``speculation`` the compiled job additionally asks the pool's
    driver loop to watch per-stage heartbeats and launch a backup copy
    of a straggling map shard on an already-finished worker (first
    finisher wins; output stays byte-identical).  Requires a re-readable
    input descriptor (not an :class:`InlineSource`) and the in-memory
    path.
    """
    source = as_source(data)
    if speculation:
        if overlap:
            raise ValueError(
                "overlap and speculation are mutually exclusive: both "
                "replace the shuffle with their own event loop"
            )
        if isinstance(source, InlineSource):
            raise ValueError(
                "speculation requires a re-readable DataSource input "
                "(a backup worker must be able to read the straggler's "
                "split); got an InlineSource"
            )
        if memory_budget is not None:
            raise ValueError(
                "speculation is only supported on the in-memory path "
                "(no memory_budget)"
            )
    partitioner = _build_partitioner_from_source(
        source, size, sampled_partitioner, sample_size, sample_seed
    )
    splits = UncodedPlacement(size).split_source(source)
    spec_splits = list(splits) if speculation else None
    payloads: List[Any] = [
        (splits[rank], partitioner, memory_budget, output_dir, spec_splits,
         overlap)
        for rank in range(size)
    ]
    input_records = source.num_records

    def finalize(result: ClusterResult) -> SortRun:
        meta: Dict[str, object] = {
            "algorithm": "terasort",
            "num_nodes": size,
            "input_records": input_records,
            "input_kind": type(source).__name__,
        }
        meta["kernel_stats"] = kernels.stats_meta(result.per_node_times)
        if overlap:
            meta["overlap"] = overlap_meta(result.per_node_times)
        if memory_budget is not None:
            meta["memory_budget"] = memory_budget
            meta.update(residency_meta(result.per_node_times))
        if speculation:
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
        return SortRun(
            partitions=list(result.results),
            stage_times=result.stage_times,
            traffic=result.traffic,
            partitioner=partitioner,
            meta=meta,
        )

    return PreparedJob(
        builder=_terasort_program,
        payloads=payloads,
        finalize=finalize,
        speculation=(
            {
                "stage": "map",
                "wait_factor": speculation_wait_factor,
                "min_wait": speculation_min_wait,
            }
            if speculation
            else None
        ),
    )


def run_terasort(
    cluster,
    data: RecordBatch,
    sampled_partitioner: bool = False,
    sample_size: int = 10000,
    sample_seed: int = 7,
) -> SortRun:
    """Sort ``data`` with TeraSort on ``cluster`` (one-shot session shim).

    Equivalent to submitting a :class:`repro.session.TeraSortSpec` to a
    fresh one-job :class:`repro.session.Session`; amortize the cluster
    setup across many sorts by holding a session open instead.

    Args:
        cluster: a :class:`~repro.runtime.inproc.ThreadCluster` or
            :class:`~repro.runtime.process.ProcessCluster`.
        data: the full input batch (the coordinator's view).
        sampled_partitioner: use sampled quantile splitters instead of the
            uniform ones (needed for skewed keys).
        sample_size: number of records sampled for the splitter.
        sample_seed: RNG seed for the sample.

    Returns:
        A :class:`SortRun`; ``partitions[k]`` is node ``k``'s sorted output.
    """
    from repro.session import Session, TeraSortSpec

    with Session(cluster) as session:
        return session.submit(
            TeraSortSpec(
                data=data,
                sampled_partitioner=sampled_partitioner,
                sample_size=sample_size,
                sample_seed=sample_seed,
            )
        ).result()


def _build_partitioner(
    data: RecordBatch,
    k: int,
    sampled: bool,
    sample_size: int,
    sample_seed: int,
) -> RangePartitioner:
    """Coordinator-side partitioner construction shared by both drivers."""
    if not sampled:
        return RangePartitioner.uniform(k)
    import numpy as np

    rng = np.random.default_rng(sample_seed)
    n = len(data)
    take = min(sample_size, n)
    if take == 0:
        return RangePartitioner.uniform(k)
    idx = rng.choice(n, size=take, replace=False)
    return RangePartitioner.from_sample(data.take(idx), k)


def _build_partitioner_from_source(
    source: DataSource,
    k: int,
    sampled: bool,
    sample_size: int,
    sample_seed: int,
) -> RangePartitioner:
    """Partitioner from any source kind.

    Inline sources keep the seed's exact RNG sampling (byte-identical
    splitters for existing callers); other kinds draw through the
    source's own :meth:`~repro.kvpairs.datasource.DataSource.sample`,
    which never materializes the dataset.
    """
    if isinstance(source, InlineSource):
        return _build_partitioner(
            source.batch, k, sampled, sample_size, sample_seed
        )
    if not sampled:
        return RangePartitioner.uniform(k)
    sample = source.sample(sample_size, seed=sample_seed)
    if len(sample) == 0:
        return RangePartitioner.uniform(k)
    return RangePartitioner.from_sample(sample, k)
