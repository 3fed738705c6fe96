"""General Coded MapReduce (§II): arbitrary map/reduce jobs, coded shuffle.

The framework of [7]-[9] that CodedTeraSort instantiates, run on the one
coded pipeline (:class:`~repro.core.coded_terasort.CodedTeraSortProgram`)
under :class:`MapReduceLaw`: a job supplies only what its map emits and
what Reduce does; function ``q`` is reduced at node ``q mod K``.
``I^t_S`` is the ``(file id, q, value)`` triples of ``S``'s files for
``t``'s functions in (file id, q) order, so every replica serializes it
byte-identically.  Schemes (Fig. 1): uncoded ``r = 1``, uncoded ``r > 1``
(:class:`UncodedCMRProgram`: the body with the designated-sender walk,
:meth:`~repro.core.coded_terasort.CodedTeraSortProgram._turn_walk`, that
uncoded TeraSort walks too), coded (the body as it is).
"""

from __future__ import annotations

import pickle
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.coded_terasort import CodedTeraSortProgram
from repro.core.groups import check_schedule, parallel_schedule_meta
from repro.core.mapper import payload_nbytes
from repro.core.outofcore import (
    OutOfCore,
    check_memory_budget,
    residency_meta,
)
from repro.core.placement import CodedPlacement
from repro.kvpairs.datasource import DataSource
from repro.kvpairs.spill import spill_blob
from repro.runtime.api import Comm
from repro.runtime.program import ClusterResult, JobSpec, PreparedJob
from repro.runtime.traffic import TrafficLog
from repro.utils.subsets import Subset, binomial
from repro.utils.timer import StageTimes

UNICAST_TAG = 2000

#: One map output entry, ``(file id, function id, value)``, and its key.
Triple = Tuple[int, int, Any]
Key = Tuple[Subset, int]


class MapReduceJob(ABC):
    """A user job: Q output functions over N input files (Eq. (1)).
    Serialization defaults to pickle protocol 4 (deterministic for the
    standard container types the bundled jobs use)."""

    #: Human-readable job name (reports / logs).
    name: str = "job"

    def num_functions(self, num_nodes: int) -> int:
        """``Q``; defaults to one function per node.  The worker calls
        this once, before any :meth:`map_file` or :meth:`reduce` — the
        bundled jobs cache ``Q`` here."""
        return num_nodes

    @abstractmethod
    def map_file(self, file_id: int, payload: Any) -> Mapping[int, Any]:
        """Map one file: ``{function id q -> intermediate value}``.  Must
        be deterministic: every replica of the file must produce
        serialization-identical outputs."""

    @abstractmethod
    def reduce(self, q: int, values: Sequence[Tuple[int, Any]]) -> Any:
        """Reduce function ``q`` from ``(file_id, value)`` pairs: one per
        file whose map emitted something for ``q``, sorted by file id."""

    def serialize(self, obj: Any) -> bytes:
        return pickle.dumps(obj, protocol=4)

    def deserialize(self, buf: bytes) -> Any:
        """Inverse of :meth:`serialize`.  ``buf`` may be any bytes-like
        object (received values are zero-copy arena or mmap views), so
        overrides must not assume ``bytes``."""
        return pickle.loads(buf)


@dataclass
class CMRRun:
    """Outcome of a Coded MapReduce run."""

    outputs: Dict[int, Any]
    stage_times: StageTimes
    traffic: Optional[TrafficLog]
    meta: Dict[str, object] = field(default_factory=dict)


class _TripleStore:
    """The keyed store: triples per ``(S, t)``; :meth:`seal` serializes
    a key once, spilling the blob if it does not fit the budget."""

    def __init__(self, job: MapReduceJob, oc: Optional[OutOfCore]) -> None:
        self._job, self._oc = job, oc
        self._triples: Dict[Key, List[Triple]] = {}
        self._blobs: Dict[Key, Any] = {}

    def append(self, key: Key, triples: List[Triple]) -> None:
        self._triples.setdefault(key, []).extend(triples)

    def take(self, key: Key, window_records: Optional[int]) -> List[Triple]:
        return self._triples.pop(key, [])  # own triples: never serialized

    def get_bytes(self, key: Key) -> Any:
        return self._blobs[key]

    def seal(self, key: Key) -> None:
        blob = self._job.serialize(self._triples.pop(key, []))
        oc = self._oc
        if oc is not None:
            if oc.meter.resident_bytes + len(blob) > oc.plan.memory_budget:
                oc.meter.spilled(len(blob))
                blob = spill_blob(oc.spill, blob, "ival")
            else:
                oc.meter.charge(len(blob), "store.sealed")
        self._blobs[key] = blob


class _ReduceFrontier:
    """The frontier: the triples this rank reduces — own ones as mapped,
    inbound ones deserialized — then ``job.reduce`` per owned function."""

    def __init__(self, job: MapReduceJob, num_functions: int) -> None:
        self._job, self._num_functions = job, num_functions
        self._triples: List[Triple] = []

    def feed_stream(self, slot: int, triples: List[Triple]) -> None:
        self._triples.extend(triples)

    def feed_decoded(self, slot: int, buf: Any, tag: str = "") -> None:
        self._triples.extend(self._job.deserialize(buf))

    def map_done(self) -> None:
        pass

    def finish(self, program: CodedTeraSortProgram, output_dir) -> Dict:
        per_q: Dict[int, List[Tuple[int, Any]]] = {}
        for file_id, q, value in sorted(self._triples, key=itemgetter(0)):
            per_q.setdefault(q, []).append((file_id, value))
        return {
            q: self._job.reduce(q, per_q.get(q, []))
            for q in range(program.rank, self._num_functions, program.size)
        }


class MapReduceLaw:
    """A general job's law: ``job.map_file`` as the map step (one window
    per file, its triples keyed by reducer, only the kept targets'
    retained), a triple store, a reduce frontier."""

    def __init__(self, job: MapReduceJob, num_nodes: int) -> None:
        self.job, self.num_nodes = job, num_nodes
        self.num_functions = job.num_functions(num_nodes)

    @staticmethod
    def windows(payload: Any, window_records: Optional[int]) -> List[Any]:
        return [payload.load() if isinstance(payload, DataSource) else payload]

    def map(
        self, file_id: int, payload: Any, keep: Sequence[int]
    ) -> List[List[Triple]]:
        pieces: List[List[Triple]] = [[] for _ in range(self.num_nodes)]
        kept = set(keep)
        emitted = self.job.map_file(file_id, payload)
        for q in sorted(emitted):
            if not 0 <= q < self.num_functions:
                raise ValueError(
                    f"map emitted function id {q} outside "
                    f"[0, {self.num_functions})"
                )
            target = q % self.num_nodes
            if target in kept:
                pieces[target].append((file_id, q, emitted[q]))
        return pieces

    def store(self, oc: Optional[OutOfCore]) -> _TripleStore:
        return _TripleStore(self.job, oc)

    def frontier(self, num_slots: int, eager: bool, oc) -> _ReduceFrontier:
        return _ReduceFrontier(self.job, self.num_functions)


class UncodedCMRProgram(CodedTeraSortProgram):
    """Uncoded shuffle at any ``r`` (Fig. 1(a), left half of Fig. 1(b)):
    the pipeline with CodeGen + shuffle replaced by the designated-sender
    walk.  ``encode`` / ``decode`` are plain (de)serialization here."""

    STAGES = ["map", "encode", "shuffle", "decode", "reduce"]

    def _codegen(self) -> None:
        """Nothing to plan: the shuffle is uncoded."""

    def _shuffle(self, codegen, steps, completed, store, frontier, slot_of):
        def receive(subset: Subset, raw: Any) -> None:
            with self.stage("decode"):
                self._deliver(frontier, slot_of, subset, raw)

        self._turn_walk(UNICAST_TAG, self._lookup(store), receive)


def _cmr_program(comm: Comm, payload: Tuple) -> CodedTeraSortProgram:
    """Pool builder (module-level for pickling): payload -> node program."""
    spec, files, subsets = payload
    coded = spec.scheme == "coded"
    program = CodedTeraSortProgram if coded else UncodedCMRProgram
    law = MapReduceLaw(spec.job, comm.size)
    return program(comm, spec, files, subsets, law)


@dataclass(frozen=True)
class MapReduceSpec(JobSpec):
    """A general (Coded) MapReduce job (§II) over arbitrary file payloads.

    Attributes:
        job: the :class:`MapReduceJob` (a module-level class, so process
            workers can unpickle it).
        files: ``N`` payloads, a positive multiple of ``C(K, r)``;
            :class:`~repro.kvpairs.datasource.DataSource` ones are
            materialized worker-side.
        redundancy: ``r``, the nodes each file is mapped on.
        scheme: ``"uncoded"`` (designated-sender unicast; ``r = K`` is
            legal) or ``"coded"`` (XOR multicast, ``r + 1 <= K``).
        schedule: the coded shuffle's, as on
            :class:`~repro.core.coded_terasort.CodedTeraSortSpec`.
        memory_budget: as on :class:`~repro.core.coded_terasort.SortSpec`;
            sealed values that do not fit spill to disk.
    """

    job: MapReduceJob
    files: Sequence[Any]
    redundancy: int = 1
    scheme: str = "uncoded"
    schedule: str = "parallel"
    memory_budget: Optional[int] = None

    # The pipeline's other policies, fixed for a general job (not fields).
    overlap = False
    group_size = None
    output_dir = None

    @property
    def input_bytes(self) -> int:
        return sum(payload_nbytes(payload) for payload in self.files)

    def validate(self, size: int) -> None:
        if not isinstance(self.job, MapReduceJob):
            raise ValueError(
                f"job must be a MapReduceJob, got {type(self.job).__name__}"
            )
        check_memory_budget(self.memory_budget)
        if self.scheme not in ("coded", "uncoded"):
            raise ValueError(
                f'scheme must be "coded" or "uncoded", got {self.scheme!r}'
            )
        check_schedule(self.schedule)
        max_r = size - 1 if self.scheme == "coded" else size
        if not 1 <= self.redundancy <= max_r:
            raise ValueError(
                f"redundancy must be in [1, {max_r}] for scheme="
                f"{self.scheme!r} on K={size} nodes, got {self.redundancy}"
            )
        base = binomial(size, self.redundancy)
        n = len(self.files)
        if n == 0 or n % base != 0:
            raise ValueError(
                f"number of files ({n}) must be a positive multiple of "
                f"C(K={size}, r={self.redundancy}) = {base}"
            )

    def prepare(self, size: int) -> PreparedJob:
        """Compile one run into a pool job: each rank gets the file-less
        spec plus its placed files and their subsets."""
        self.validate(size)
        n, r = len(self.files), self.redundancy
        coded = self.scheme == "coded"
        placement = CodedPlacement(size, r, n // binomial(size, r))
        spec = self.with_(files=())
        payloads: List[Any] = [
            (spec, files, subsets)
            for files, subsets in placement.assign(self.files, size)
        ]

        def finalize(result: ClusterResult) -> CMRRun:
            # Ranks reduce disjoint functions, each in ascending order.
            outputs = {q: v for out in result.results for q, v in out.items()}
            meta: Dict[str, object] = dict(
                job=self.job.name, num_nodes=size, num_files=n, redundancy=r,
                coded=coded, schedule=self.schedule if coded else "serial",
            )
            if coded and self.schedule == "parallel":
                times = result.per_node_times
                meta.update(parallel_schedule_meta(size, r, times))
            if self.memory_budget is not None:
                meta["memory_budget"] = self.memory_budget
                meta.update(residency_meta(result.per_node_times))
            return CMRRun(outputs, result.stage_times, result.traffic, meta)

        return PreparedJob(_cmr_program, payloads, finalize)
