"""General Coded MapReduce (§II): arbitrary map/reduce jobs, coded shuffle.

This is the framework of [7]-[9] that CodedTeraSort instantiates for
sorting: ``K`` nodes compute ``Q`` output functions from ``N`` input files,
with each file mapped on ``r`` nodes so that coded multicasts cut the
shuffle load ``r``-fold.

Three schemes are provided (matching the paper's Fig. 1 comparison):

* **uncoded, r = 1** — every file mapped once, all remote intermediate
  values unicast (Fig. 1(a));
* **uncoded, r > 1** — redundant placement but *no coding*: for each file
  subset ``S`` and target ``t ∉ S`` a single designated member of ``S``
  (the minimum rank) unicasts ``I^t_S``;
* **coded, r > 1** — redundant placement plus Algorithm 1/2 XOR multicast.

Function ``q`` is reduced at node ``q mod K``; the intermediate value
``I^t_S`` packs, for every file of subset ``S`` and every function owned by
node ``t``, the map output — built in deterministic (file id, function id)
order so that all ``r`` mappers of a file serialize byte-identical values
(a requirement of XOR coding).

Jobs must therefore have deterministic ``map_file`` output serialization;
the bundled jobs in :mod:`repro.core.jobs` comply.

Out-of-core execution: file payloads may be
:class:`~repro.kvpairs.datasource.DataSource` descriptors — each mapper
materializes its own splits locally, so the control plane ships ~100-byte
descriptors instead of payload bytes (the CMR papers' model, where
workers own their input splits).  A ``memory_budget`` additionally keeps
the serialized intermediate-value store on disk: once the resident store
passes the budget every ``I^t_S`` blob is spilled to a per-job temp file
and read back through zero-copy mmap views — the encoder's ``lookup``,
the decoder, and ``deserialize`` (whose contract is bytes-like, not
``bytes``) all operate on the views unchanged.  Record-granular chunked
Map and streaming Reduce live in the sort programs
(:mod:`repro.core.terasort`, :mod:`repro.core.coded_terasort`), where
record streams make them meaningful; the generic engine's unit of work
is one opaque file payload.
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import (
    build_coding_plan,
    check_schedule,
    parallel_schedule_meta,
)
from repro.core.placement import CodedPlacement
from repro.kvpairs.datasource import DataSource
from repro.kvpairs.spill import SpillDir, spill_blob
from repro.runtime.api import Comm
from repro.runtime.program import (
    ClusterResult,
    JobSpec,
    NodeProgram,
    PreparedJob,
    execute_multicast_shuffle,
)
from repro.runtime.traffic import TrafficLog
from repro.utils.subsets import Subset, binomial, k_subsets, without
from repro.utils.timer import StageTimes

UNICAST_TAG = 2000
MULTICAST_TAG_BASE = 20_000


class MapReduceJob(ABC):
    """A user job: Q output functions over N input files (Eq. (1)).

    Subclasses define the map and reduce laws; serialization defaults to
    pickle protocol 4 (deterministic for the standard container types used
    by the bundled jobs).
    """

    #: Human-readable job name (reports / logs).
    name: str = "job"

    def num_functions(self, num_nodes: int) -> int:
        """``Q``; defaults to one function per node."""
        return num_nodes

    @abstractmethod
    def map_file(self, file_id: int, payload: Any) -> Mapping[int, Any]:
        """Map one file: returns ``{function id q -> intermediate value}``.

        Functions absent from the mapping contribute nothing for this file.
        Must be deterministic: replicas of the file on different nodes must
        produce identical (serialization-identical) outputs.
        """

    @abstractmethod
    def reduce(self, q: int, values: Sequence[Tuple[int, Any]]) -> Any:
        """Reduce function ``q`` from ``(file_id, value)`` pairs.

        ``values`` is sorted by file id and contains one entry per file
        whose map emitted something for ``q``.
        """

    def serialize(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=4)

    def deserialize(self, buf: bytes) -> Any:
        """Inverse of :meth:`serialize`.

        ``buf`` may be any bytes-like object — the shuffle hands received
        intermediate values over as zero-copy arena views, so overriding
        jobs must not assume ``bytes`` (slice through ``bytes(...)`` or a
        ``memoryview`` as needed; ``pickle.loads`` takes buffers as-is).
        """
        return pickle.loads(buf)


@dataclass
class CMRRun:
    """Outcome of a Coded MapReduce run."""

    outputs: Dict[int, Any]
    stage_times: StageTimes
    traffic: Optional[TrafficLog]
    meta: Dict[str, object] = field(default_factory=dict)


def _owner_of(q: int, num_nodes: int) -> int:
    """Node reducing function ``q`` (round-robin assignment)."""
    return q % num_nodes


def _build_intermediate(
    job: MapReduceJob,
    target: int,
    num_nodes: int,
    num_functions: int,
    map_outputs: Dict[int, Mapping[int, Any]],
) -> List[Tuple[int, int, Any]]:
    """Deterministic ``I^target_S`` structure from a subset's map outputs.

    Returns sorted ``(file_id, q, value)`` triples for every function owned
    by ``target``.
    """
    out: List[Tuple[int, int, Any]] = []
    for file_id in sorted(map_outputs):
        emitted = map_outputs[file_id]
        for q in sorted(emitted):
            if not 0 <= q < num_functions:
                raise ValueError(
                    f"map emitted function id {q} outside [0, {num_functions})"
                )
            if _owner_of(q, num_nodes) == target:
                out.append((file_id, q, emitted[q]))
    return out


class _CMRProgramBase(NodeProgram):
    """Shared map/reduce plumbing for the three shuffle schemes.

    Args:
        comm: communication endpoint.
        spec: the job's :class:`MapReduceSpec`, files stripped — the
            programs read ``job``, ``redundancy``, ``schedule`` and
            ``memory_budget`` from it.
        files: file id -> payload for every file placed on this node.
        subsets: file id -> node subset ``S`` (``rank ∈ S``).
    """

    def __init__(
        self,
        comm: Comm,
        spec: "MapReduceSpec",
        files: Dict[int, Any],
        subsets: Dict[int, Subset],
    ) -> None:
        super().__init__(comm)
        self.spec = spec
        self.job = spec.job
        self.files = files
        self.subsets = subsets
        self.num_functions = self.job.num_functions(comm.size)
        self._spill: Optional[SpillDir] = None

    # -- spill lifecycle ----------------------------------------------------

    def _spill_dir(self) -> SpillDir:
        if self._spill is None:
            self._spill = SpillDir(tag=f"cmr-r{self.rank}")
        return self._spill

    def _cleanup_spill(self) -> None:
        if self._spill is not None:
            self._spill.cleanup()
            self._spill = None

    def run(self) -> Dict[int, Any]:
        # Spill hygiene: the per-job dir goes away on success and on any
        # failure path (the control loop reports the error after this).
        try:
            return self._run()
        finally:
            self._cleanup_spill()

    def _run(self) -> Dict[int, Any]:
        raise NotImplementedError

    # -- map --------------------------------------------------------------

    def _map_all(self) -> Dict[Subset, Dict[int, Mapping[int, Any]]]:
        """Map every local file (materializing descriptors), by subset."""
        by_subset: Dict[Subset, Dict[int, Mapping[int, Any]]] = {}
        for file_id in sorted(self.files):
            subset = self.subsets[file_id]
            payload = self.files[file_id]
            if isinstance(payload, DataSource):
                # Workers own their splits: the descriptor resolves to
                # records here, never on the control plane.
                payload = payload.load()
            by_subset.setdefault(subset, {})[file_id] = self.job.map_file(
                file_id, payload
            )
        return by_subset

    def _serialized_store(
        self, by_subset: Dict[Subset, Dict[int, Mapping[int, Any]]]
    ) -> Dict[Tuple[Subset, int], bytes]:
        """``(S, t) -> serialized I^t_S`` under the retention rule.

        With a ``memory_budget``, blobs past the budget live in spill
        files and the store holds zero-copy mmap views instead of owned
        ``bytes`` — downstream consumers already accept bytes-likes.
        """
        store: Dict[Tuple[Subset, int], bytes] = {}
        resident = 0
        spilling = False
        for subset, outputs in by_subset.items():
            in_subset = set(subset)
            for target in range(self.size):
                if target != self.rank and target in in_subset:
                    continue  # retention rule: target computes it locally
                value = _build_intermediate(
                    self.job, target, self.size, self.num_functions, outputs
                )
                blob = self.job.serialize(value)
                if self.spec.memory_budget is not None and not spilling:
                    resident += len(blob)
                    spilling = resident > self.spec.memory_budget
                if spilling:
                    blob = spill_blob(self._spill_dir(), blob, "ival")
                store[(subset, target)] = blob
        return store

    # -- reduce -------------------------------------------------------------

    def _reduce(
        self,
        store: Dict[Tuple[Subset, int], bytes],
        received: List[bytes],
    ) -> Dict[int, Any]:
        """Merge own + received intermediates and reduce owned functions."""
        entries: List[Tuple[int, int, Any]] = []
        for (subset, target), buf in store.items():
            if target == self.rank and self.rank in subset:
                entries.extend(self.job.deserialize(buf))
        for buf in received:
            entries.extend(self.job.deserialize(buf))
        per_q: Dict[int, List[Tuple[int, Any]]] = {}
        for file_id, q, value in entries:
            per_q.setdefault(q, []).append((file_id, value))
        outputs: Dict[int, Any] = {}
        for q in range(self.num_functions):
            if _owner_of(q, self.size) != self.rank:
                continue
            values = sorted(per_q.get(q, []), key=lambda e: e[0])
            outputs[q] = self.job.reduce(q, values)
        return outputs


class UncodedCMRProgram(_CMRProgramBase):
    """Uncoded shuffle at any computation load ``r`` (Fig. 1(a)/(b) left).

    For each file subset ``S`` and target ``t ∉ S``, the minimum-rank member
    of ``S`` unicasts ``I^t_S`` — redundancy reduces the load from
    ``1 - 1/K`` to ``1 - r/K`` but no coding gain is taken.
    """

    STAGES = ["map", "pack", "shuffle", "unpack", "reduce"]

    def _run(self) -> Dict[int, Any]:
        with self.stage("map"):
            by_subset = self._map_all()

        with self.stage("pack"):
            store = self._serialized_store(by_subset)
            # The serial schedule is global: every node walks the full
            # subset list (derivable from K and r), not just its own files.
            all_subsets = list(k_subsets(self.size, self.spec.redundancy))

        with self.stage("shuffle"):
            received_raw: List[bytes] = []
            # Serial schedule: subsets in lex order, targets ascending.
            for subset in all_subsets:
                sender = min(subset)
                for target in range(self.size):
                    if target in subset:
                        continue
                    if self.rank == sender:
                        self.comm.send(
                            target, UNICAST_TAG, store[(subset, target)]
                        )
                    elif self.rank == target:
                        # Zero-copy views; deserialization reads them in
                        # place during Unpack/Reduce.
                        received_raw.append(
                            self.comm.recv(sender, UNICAST_TAG, copy=False)
                        )

        with self.stage("unpack"):
            received = list(received_raw)

        with self.stage("reduce"):
            return self._reduce(store, received)


class CodedCMRProgram(_CMRProgramBase):
    """Coded shuffle (Fig. 1(b) right): Algorithm 1/2 over generic payloads.

    Supports both shuffle schedules (see
    :mod:`repro.core.coded_terasort`): ``"parallel"`` (default) runs the
    non-blocking event loop over conflict-free rounds, overlapping
    Encode / Shuffle / Decode, while ``"serial"`` walks the Fig. 9(b)
    turns with a barrier handing the fabric from turn to turn.  Outputs
    are identical either way (reduction merges in deterministic file-id
    order).
    """

    STAGES = ["codegen", "map", "encode", "shuffle", "decode", "reduce"]

    def _run(self) -> Dict[int, Any]:
        rank = self.rank
        schedule = self.spec.schedule

        with self.stage("codegen"):
            plan = build_coding_plan(self.size, self.spec.redundancy)
            my_groups = plan.groups_of_node[rank]
            rounds = (
                plan.rounds_for("parallel") if schedule == "parallel" else None
            )

        with self.stage("map"):
            by_subset = self._map_all()

        with self.stage("encode"):
            store = self._serialized_store(by_subset)

        def lookup(subset: Subset, target: int) -> bytes:
            return store[(subset, target)]

        def encode_for(gidx: int):
            return encode_packet(rank, plan.groups[gidx], lookup).to_parts()

        def recover_group(gidx: int, raw_packets: Dict[int, bytes]) -> bytes:
            packets = {
                s: CodedPacket.from_bytes(raw) for s, raw in raw_packets.items()
            }
            return recover_intermediate(
                rank, plan.groups[gidx], packets, lookup
            )

        recovered, _ = execute_multicast_shuffle(
            self,
            plan.groups,
            my_groups,
            schedule,
            plan.schedule,
            rounds,
            MULTICAST_TAG_BASE,
            encode_for,
            recover_group,
        )

        with self.stage("reduce"):
            received = [recovered[gidx] for gidx in my_groups]
            return self._reduce(store, received)


def _cmr_program(comm: Comm, payload: Tuple) -> NodeProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    program = CodedCMRProgram if payload[0].scheme == "coded" else UncodedCMRProgram
    return program(comm, *payload)


@dataclass(frozen=True)
class MapReduceSpec(JobSpec):
    """A general (Coded) MapReduce job (§II) over arbitrary file payloads.

    Attributes:
        job: the map/reduce law; must be a module-level class so the
            process backend can pickle it to pool workers (the bundled
            jobs in :mod:`repro.core.jobs` all qualify).
        files: the ``N`` input file payloads; ``N`` must be a positive
            multiple of ``C(K, r)`` (the batched placement).  Payloads
            that are :class:`~repro.kvpairs.datasource.DataSource`
            descriptors ship as descriptors and are materialized
            worker-side, budget or not.
        redundancy: ``r``; each file is mapped on ``r`` nodes.  With
            ``scheme="uncoded"`` and ``r = 1`` this is plain MapReduce.
        scheme: ``"uncoded"`` (designated-sender unicast shuffle; only
            needs the placement, so ``r = K`` is legal) or ``"coded"``
            (Algorithm 1/2 XOR multicast within groups of ``r + 1 <= K``
            nodes; at ``r = 1`` groups have two members and coding
            degenerates to unicast).
        schedule: coded-shuffle schedule, ``"parallel"`` (default: the
            barrier-free event loop) or ``"serial"`` (the paper's
            measured Fig. 9(b) turn walk, asked for by name); identical
            outputs.  Only meaningful with ``scheme="coded"``.
        memory_budget: per-worker cap (bytes, ``>= 1``) on the resident
            serialized intermediate store; overflow spills to per-job
            temp files.
    """

    job: MapReduceJob
    files: Sequence[Any]
    redundancy: int = 1
    scheme: str = "uncoded"
    schedule: str = "parallel"
    memory_budget: Optional[int] = None

    @property
    def input_bytes(self) -> int:
        total = 0
        for payload in self.files:
            nbytes = getattr(payload, "nbytes", None)
            if isinstance(nbytes, int):
                total += nbytes
            elif isinstance(payload, (bytes, bytearray, memoryview)):
                total += len(payload)
        return total

    def validate(self, size: int) -> None:
        if self.memory_budget is not None and self.memory_budget < 1:
            raise ValueError(
                f"memory_budget must be >= 1, got {self.memory_budget}"
            )
        if self.scheme not in ("coded", "uncoded"):
            raise ValueError(
                f'scheme must be "coded" or "uncoded", got {self.scheme!r}'
            )
        check_schedule(self.schedule)
        max_r = size - 1 if self.scheme == "coded" else size
        if not 1 <= self.redundancy <= max_r:
            raise ValueError(
                f"redundancy must be in [1, {max_r}] for "
                f"scheme={self.scheme!r} on K={size} nodes, "
                f"got {self.redundancy}"
            )
        base = binomial(size, self.redundancy)
        n = len(self.files)
        if n == 0 or n % base != 0:
            raise ValueError(
                f"number of files ({n}) must be a positive multiple of "
                f"C(K={size}, r={self.redundancy}) = {base}"
            )

    def prepare(self, size: int) -> PreparedJob:
        """Compile one MapReduce run over ``size`` nodes into a pool job.

        Each rank's payload carries the file-less spec (hence the job
        object) plus its placed files and their subsets.  ``finalize``
        merges the per-node function outputs into one :class:`CMRRun`.
        """
        self.validate(size)
        n = len(self.files)
        coded = self.scheme == "coded"
        placement = CodedPlacement(
            size, self.redundancy, n // binomial(size, self.redundancy)
        )
        per_node_files: List[Dict[int, Any]] = [{} for _ in range(size)]
        per_node_subsets: List[Dict[int, Subset]] = [{} for _ in range(size)]
        for file_id in range(n):
            subset = placement.subset_of_file(file_id)
            for node in subset:
                per_node_files[node][file_id] = self.files[file_id]
                per_node_subsets[node][file_id] = subset

        spec = self.with_(files=())
        payloads: List[Any] = [
            (spec, per_node_files[rank], per_node_subsets[rank])
            for rank in range(size)
        ]

        def finalize(result: ClusterResult) -> CMRRun:
            outputs: Dict[int, Any] = {}
            for node_outputs in result.results:
                overlap = set(outputs) & set(node_outputs)
                if overlap:
                    raise RuntimeError(
                        f"functions reduced twice: {sorted(overlap)}"
                    )
                outputs.update(node_outputs)
            meta: Dict[str, object] = {
                "job": self.job.name,
                "num_nodes": size,
                "num_files": n,
                "redundancy": self.redundancy,
                "coded": coded,
                "schedule": self.schedule if coded else "serial",
            }
            if coded and self.schedule == "parallel":
                plan = build_coding_plan(size, self.redundancy)
                meta.update(parallel_schedule_meta(plan, result.per_node_times))
            return CMRRun(
                outputs=outputs,
                stage_times=result.stage_times,
                traffic=result.traffic,
                meta=meta,
            )

        return PreparedJob(
            builder=_cmr_program, payloads=payloads, finalize=finalize
        )
