"""Node programs, the cluster-result container, and the shuffle engines.

A :class:`NodeProgram` is the unit both sort algorithms are written as: a
class instantiated once per node with a :class:`~repro.runtime.api.Comm`
endpoint, whose :meth:`run` method walks the algorithm's stages.  The same
program runs unmodified on the threaded backend (functional tests, byte
accounting) and the multiprocessing backend (real parallel execution) —
mirroring how the paper's single MPI program runs on any cluster size.

The coded programs' Encode / Shuffle / Decode block has two engines, and
the coded body (``CodedTeraSortProgram._shuffle``) picks between them (the
pipeline's *send gate* policy):

* :func:`serial_multicast_shuffle` — the paper's Fig. 9(b) execution, kept
  as the named reproduction the tables measure: one ``(group, sender)``
  turn at a time behind a cluster barrier, Encode fully preceding Shuffle
  preceding Decode.  Its multicasts are blocking ``bcast`` calls, which
  forward along a root-relative chain: with one multicast in flight
  cluster-wide, the turn's root sends one copy and the members
  forward the rest, so no link carries more than one copy a turn.
* :func:`streaming_multicast_shuffle` — one non-blocking event loop (the
  §VI "asynchronous execution" future work made concrete), the default:
  it posts every receive up front via ``ibcast``, encodes and multicasts
  each group as soon as the send gate opens it, and from then on is
  driven by arrivals — a landed packet is relayed to this rank's
  binomial-tree children (every worker's egress is already busy with its
  own packets, so the tree's shorter critical path is what counts here),
  a complete group decoded, and the idle loop sleeps until
  *any* receive has a frame.  With the map already done the gate is open from
  the start and the loop is the barrier-free ``schedule="parallel"``
  execution; handed a ``map_step`` and a ``ready`` predicate it also
  drives the caller's map, one window per pass, and a group opens the
  moment the map has produced what its packets draw on (streaming
  overlap).

The round schedule *orders* transmissions (node-disjoint groups are posted
adjacently, which keeps concurrent transfers largely conflict-free) but
rounds are deliberately not synchronized at runtime: there is no
inter-round barrier, so a fast node may run ahead — that asynchrony is the
point.  The strictly round-synchronized execution (a barrier after every
round, one multicast time per round) is the closed-form model's
``schedule="rounds"`` (:mod:`repro.sim.model`), an idealized prediction
for it.

Stage attribution inside the event loop: map, encode and decode work
performed in the loop is still charged to the ``map`` / ``encode`` /
``decode`` stages (compute attribution), and the ``shuffle`` stage is
charged the *remaining* span — communication plus waiting.  The per-stage
numbers therefore stay exclusive (they sum to wall-clock time, like the
serial tables).  The Encode / Shuffle / Decode span — exclusive shuffle
time plus the encode and decode work performed inside the loop — is
stamped as the ``shuffle_span`` pseudo-stage, so the gain stays visible.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.runtime.api import BACKEND_TIMEOUT, BufferParts, Comm, Request, wait_all
from repro.runtime.traffic import TrafficLog
from repro.testing import faults
from repro.utils.timer import StageTimes, Stopwatch


class NodeProgram(ABC):
    """Base class for per-node distributed programs.

    Subclasses implement :meth:`run`, using ``self.comm`` for communication
    and ``self.stopwatch`` (via ``self.stage(name)``) for per-stage timing.
    """

    #: Ordered stage names, used to merge breakdowns; subclasses override.
    STAGES: List[str] = []

    def __init__(self, comm: Comm) -> None:
        self.comm = comm
        self.rank = comm.rank
        self.size = comm.size
        self.stopwatch = Stopwatch()
        # Injected-slowdown pacers for the currently open stage scopes
        # (see repro.testing.faults); empty unless a fault plan matched.
        self._fault_pacers: List[faults.Pacer] = []

    def stage(self, name: str) -> "_StageScope":
        """Enter stage ``name``: times it and attributes traffic to it.

        Scopes nest: on exit the previous traffic-attribution stage is
        restored, so a pipelined engine can charge a slice of work inside
        one stage's span to another stage (overlapped execution).
        """
        return _StageScope(self, name)

    def fault_checkpoint(
        self, poll: Optional[Callable[[], bool]] = None
    ) -> bool:
        """Apply any injected stage slowdown at a work-window boundary.

        Programs with windowed inner loops (e.g. the speculative map) call
        this per window so an injected ``stage.slow`` fault stretches the
        stage *incrementally* — letting a straggler be observed (and
        preempted) mid-stage rather than sleeping the whole delay at once.
        No-op unless a fault plan installed a pacer for an open stage.

        ``poll``: optional abandon-check; the injected sleep runs in
        short slices and the method returns ``True`` (dropping whatever
        delay remains) as soon as the check fires — so a preemptible
        program can be preempted mid-slowdown too.
        """
        for pacer in self._fault_pacers:
            if pacer.checkpoint(poll):
                return True
        return False

    @abstractmethod
    def run(self) -> Any:
        """Execute the node's share of the computation; return its result."""


class _StageScope:
    """Times a stage (via the stopwatch) and restores the previous traffic
    stage on exit."""

    __slots__ = ("_program", "_name", "_prev", "_timer", "_pacer")

    def __init__(self, program: NodeProgram, name: str) -> None:
        self._program = program
        self._name = name
        self._prev = ""
        self._timer = None
        self._pacer = None

    def __enter__(self) -> "_StageScope":
        comm = self._program.comm
        self._prev = comm.stage
        comm.set_stage(self._name)
        self._timer = self._program.stopwatch.stage(self._name).__enter__()
        # Stage-entry fault point: crash/delay fire here (inside the timer,
        # so injected latency is attributed to this stage); a slowdown
        # installs a pacer driven by fault_checkpoint() and stage exit.
        self._pacer = faults.stage_enter(
            comm.rank, self._name, comm.job_seq
        )
        if self._pacer is not None:
            self._program._fault_pacers.append(self._pacer)
        return self

    def __exit__(self, *exc) -> None:
        if self._pacer is not None:
            self._program._fault_pacers.remove(self._pacer)
            if exc[0] is None:
                self._pacer.checkpoint()
        self._timer.__exit__(*exc)
        self._program.comm.set_stage(self._prev)

    @property
    def elapsed(self) -> float:
        """Full span of the scope (valid after exit)."""
        return self._timer.elapsed

    @property
    def exclusive(self) -> float:
        """Span minus nested scopes — what the stage was charged."""
        return self._timer.exclusive


#: A factory building the program for one node given its Comm endpoint.
ProgramFactory = Callable[[Comm], NodeProgram]


class JobControl:
    """Worker-side mailbox for mid-job driver control messages.

    The worker's control-channel reader thread makes one per job frame
    and delivers driver payloads into it; the pool control loop installs
    it as the job's ``comm.job_control``.  Two messages exist today: the
    speculation directive ``("speculate", straggler, backup)`` (run a
    backup copy of ``straggler``'s map shard on rank ``backup``) and the
    abort directive ``("abort", reason)`` — the service coordinator's
    way of unblocking the surviving members of a subset job it has
    already failed (their receives poll :meth:`abort_reason` and bail
    out instead of waiting the full receive timeout).

    Programs poll the accessors between work windows — all methods are
    lock-protected and non-blocking.  Every pool job has one, on every
    backend; a comm used outside a pool job has none
    (``comm.job_control is None``) and programs then run plain.
    """

    def __init__(self, job_seq: int) -> None:
        self.job_seq = job_seq
        self._lock = threading.Lock()
        self._speculations: List[Tuple[int, int]] = []
        self._abort_reason: Optional[str] = None

    def deliver(self, payload: Any) -> None:
        """Called from the control reader thread with one driver message."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 3
            and payload[0] == "speculate"
        ):
            with self._lock:
                self._speculations.append((int(payload[1]), int(payload[2])))
        elif (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "abort"
        ):
            with self._lock:
                if self._abort_reason is None:
                    self._abort_reason = str(payload[1])

    def abort_reason(self) -> Optional[str]:
        """Why the coordinator aborted this job, or ``None`` while live."""
        with self._lock:
            return self._abort_reason

    def backup_for(self, rank: int) -> Optional[int]:
        """The rank running a backup of ``rank``'s map shard, if any."""
        with self._lock:
            for straggler, backup in self._speculations:
                if straggler == rank:
                    return backup
        return None

    def backup_duty(self, rank: int) -> Optional[int]:
        """The straggler shard ``rank`` was asked to back up, if any."""
        with self._lock:
            for straggler, backup in self._speculations:
                if backup == rank:
                    return straggler
        return None


@dataclass(frozen=True)
class JobSpec(ABC):
    """A declarative description of one job — the job's single source of
    truth for every option's name, default, meaning and validity.

    Subclasses are frozen dataclasses living next to the program they
    describe (:class:`~repro.core.terasort.TeraSortSpec`,
    :class:`~repro.core.coded_terasort.CodedTeraSortSpec`;
    :class:`~repro.core.cmr.MapReduceSpec` next to its law for the coded
    pipeline).  :meth:`validate` raises
    :class:`ValueError` for parameters that cannot run on a ``size``-node
    cluster — called synchronously at submission
    (:meth:`repro.session.Session.submit`, ``SortService.submit``) and
    again at the top of :meth:`prepare`, nowhere else — and
    :meth:`prepare` is the coordinator-side compile into a pool-runnable
    :class:`PreparedJob`.  Node programs receive the spec itself (with
    its input stripped) and read their options from it.
    """

    @abstractmethod
    def validate(self, size: int) -> None:
        """Raise :class:`ValueError` if the spec cannot run on ``size`` nodes."""

    @abstractmethod
    def prepare(self, size: int) -> "PreparedJob":
        """Validate, then compile the spec for a ``size``-node worker pool."""

    @property
    def input_bytes(self) -> int:
        """Best-effort input size, for the service's byte quotas.

        Advisory capacity planning, not a security boundary (the depth
        quotas are the hard gate): shapes a spec cannot size count 0.
        """
        return 0

    def with_(self, **overrides: Any) -> "JobSpec":
        """A copy of this spec with the given fields replaced.

        A checked :func:`dataclasses.replace` wrapper: unknown field
        names raise :class:`TypeError` — so the elastic re-planner and
        user code stop hand-copying ten-field specs::

            paper = CodedTeraSortSpec(data=data, redundancy=3).with_(
                schedule="serial"
            )
        """
        bad = set(overrides) - set(type(self).__dataclass_fields__)
        if bad:
            raise TypeError(
                f"{type(self).__name__}.with_() got unknown field(s) "
                f"{sorted(bad)}; valid fields: "
                f"{sorted(type(self).__dataclass_fields__)}"
            )
        return replace(self, **overrides)

    def shrink_to(self, free: int) -> Optional[int]:
        """The largest worker count ``K' <= free`` this spec can re-plan
        to, or ``None`` when it cannot shrink.

        Powers the scheduler's ``shrink_to_fit`` policy: a queued K-wide
        job may run now on fewer free workers instead of waiting for the
        mesh to regrow.  The base spec is not shrinkable; the sort specs
        override this (uncoded: any ``K' >= 2``; coded: the largest
        ``K'`` with a valid ``(K', r)`` per the tradeoff constraints).
        """
        return None

    def _shrink_by_validate(self, free: int, floor: int) -> Optional[int]:
        """Largest ``K' in [floor, free]`` accepted by :meth:`validate`."""
        for k in range(free, floor - 1, -1):
            try:
                self.validate(k)
            except ValueError:
                continue
            return k
        return None


@dataclass
class PreparedJob:
    """One job compiled for a session worker pool.

    The coordinator-side half of a :class:`JobSpec`
    (:meth:`JobSpec.prepare` builds it): the driver does all global
    preparation (partitioner, placement) once, then the pool ships
    ``builder`` + ``payloads[rank]`` to each worker.

    Attributes:
        builder: ``(comm, payload) -> NodeProgram`` constructing rank's
            program.  Must be a *module-level* callable — the process pool
            pickles it by reference to workers forked before the job
            existed (closures would not survive the control channel).
        payloads: one picklable per-rank payload, ``len(payloads) == K``.
        finalize: coordinator-side mapping from the pool's
            :class:`ClusterResult` to the driver-facing result object
            (e.g. a ``SortRun``); may be a closure.
        speculation: when set, the pool's driver loop watches per-stage
            heartbeats and may launch a backup copy of a straggling
            shard; a dict like ``{"stage": "map", "wait_factor": 1.5,
            "min_wait": 0.2}``.  ``None`` disables speculation.
    """

    builder: Callable[[Comm, Any], NodeProgram]
    payloads: List[Any]
    finalize: Callable[["ClusterResult"], Any]
    speculation: Optional[Dict[str, Any]] = None

    def check_size(self, size: int) -> None:
        """Raise :class:`ValueError` unless compiled for ``size`` ranks."""
        if len(self.payloads) != size:
            raise ValueError(
                f"prepared job has {len(self.payloads)} payloads "
                f"for a size-{size} pool"
            )


def serial_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    schedule: Sequence[Tuple[int, int]],
    tag_base: int,
    packets_out: Dict[int, bytes],
) -> Dict[int, Dict[int, bytes]]:
    """Run the paper's serial multicast shuffle (Fig. 9(b)).

    One ``(group, sender)`` turn at a time: the cluster barrier after each
    turn hands the fabric from turn to turn, so no two multicasts ever
    overlap — the serialized regime whose wall-clock the paper's tables
    report.  Callers wrap this in their ``shuffle`` stage.

    Each turn is one blocking ``bcast``.  It runs on the root-relative
    chain, so the sender sends one copy and each other member forwards at
    most one.  On a binomial tree the sender would send
    ``ceil(log2(r + 1))`` copies a turn, and a sender's back-to-back turns
    would pile them onto its own paced link.

    Returns:
        ``group_idx -> {sender: raw packet}`` for every inbound packet.
    """
    rank = program.rank
    received: Dict[int, Dict[int, bytes]] = {g: {} for g in my_groups}
    for gidx, sender in schedule:
        group = groups[gidx]
        if rank in group:
            tag = tag_base + gidx
            if sender == rank:
                program.comm.bcast(group, rank, tag, packets_out[gidx])
            else:
                # copy=False: the raw packet stays a view into the receive
                # arena; decoding reads it without ever materializing bytes.
                received[gidx][sender] = program.comm.bcast(
                    group, sender, tag, copy=False
                )
        program.comm.barrier()
    return received


def streaming_multicast_shuffle(
    program: NodeProgram,
    groups: Sequence[Sequence[int]],
    my_groups: Sequence[int],
    rounds: Sequence[Sequence[Tuple[int, int]]],
    tag_base: int,
    encode: Callable[[int], BufferParts],
    decode: Callable[[int, Dict[int, bytes]], None],
    map_step: Optional[Callable[[], bool]] = None,
    ready: Optional[Callable[[int], bool]] = None,
) -> None:
    """Run (Map /) Encode / Shuffle / Decode as one non-blocking event loop.

    Every receive is posted up front (one ``ibcast`` per inbound packet;
    none starts a thread).  Each pass of the loop then performs one map
    step if the caller's map still has work, encodes and multicasts every
    group the send gate has opened, drives the receives ``Comm.wait_any``
    reports a frame for (O(1) an arrival; this is what relays an interior
    tree packet) and decodes every group that is complete — so
    transfers ride behind the remaining Map (and the Reduce work nested
    inside ``decode``) instead of extending the critical path.  With no
    ``map_step`` this is the §VI "asynchronous execution" of an already
    mapped job: everything is posted in round order on the first pass and
    the loop only decodes.

    Args:
        program: the calling node program (supplies comm + stopwatch).
        groups: all multicast groups (``CodingPlan.groups``).
        my_groups: group indices this rank belongs to.
        rounds: posting-priority schedule as rounds of ``(group_idx,
            sender)`` turns (``CodingPlan.rounds_for(...)``; singleton
            rounds for ``schedule="serial"``); each turn must appear
            exactly once.  The engine never barriers between rounds — the
            order only decides which open packet is posted first.
        tag_base: user tag base; each turn gets the distinct tag
            ``tag_base + group_idx * size + sender`` (all turns are in
            flight concurrently, and concurrent broadcasts must not share
            a ``(group, tag)`` pair).
        encode: ``group_idx -> wire payload`` for packets this rank sends;
            invoked right before the packet's send is posted and charged
            to the ``encode`` stage.
        decode: ``(group_idx, {sender: payload})`` consumer, charged to
            the ``decode`` stage; groups decode in ascending index order
            within a pass.
        map_step: performs one unit of map work, returns ``False`` once
            the input is exhausted.  Charged to the ``map`` stage; any
            encode/reduce work it triggers internally should open its own
            nested stage scopes.
        ready: the send gate — ``group_idx -> True`` once every local
            file subset the group's packets draw on is fully mapped.
            Gates both send (this rank's packet is a function of those
            subsets) and decode (recovering a segment XORs the local
            copies of the other senders' subsets back out).  Must be
            monotone and all-``True`` after ``map_step`` is exhausted.

    The stopwatch's ``shuffle`` entry receives the loop's span minus the
    nested map / encode / decode work, so per-stage times stay exclusive;
    the span minus the map work is stamped as ``shuffle_span``, and with a
    ``map_step`` the loop's overlap stamps (:func:`export_overlap`) too.
    """
    comm = program.comm
    rank = program.rank
    map_before = program.stopwatch.times().get("map", 0.0)

    def turn_tag(gidx: int, sender: int) -> int:
        return tag_base + gidx * comm.size + sender

    with program.stage("shuffle") as scope:
        # Every inbound packet's receive, under the key ``wait_any`` knows
        # it by; ``landed`` holds a group's packets until it is decoded.
        posted: Dict[Tuple[int, int], Tuple[int, int, Request]] = {}
        landed: Dict[int, Dict[int, bytes]] = {}
        for rnd in rounds:
            for gidx, sender in rnd:
                if sender == rank or rank not in groups[gidx]:
                    continue
                req = comm.ibcast(
                    groups[gidx], sender, turn_tag(gidx, sender), copy=False
                )
                posted[req.key] = (gidx, sender, req)
                landed[gidx] = {}
        complete: List[int] = []  # every packet in, not yet decoded
        unsent = [g for rnd in rounds for g, sender in rnd if sender == rank]
        # Own multicasts and relays, in the async sender's (FIFO) order.
        sends: Deque[Request] = deque()

        def post_open() -> None:
            """Encode + multicast every group the send gate has opened."""
            for gidx in list(unsent):
                if ready is not None and not ready(gidx):
                    continue
                unsent.remove(gidx)
                with program.stage("encode"):
                    packet = encode(gidx)
                sends.append(
                    comm.ibcast(
                        groups[gidx], rank, turn_tag(gidx, rank), packet
                    )
                )

        def land(timeout=0) -> None:
            """Drive each receive a frame has arrived for (which relays an
            interior one's packet onward) and count its group down."""
            for key in comm.wait_any(posted, timeout) if posted else ():
                gidx, sender, req = posted[key]
                req.test()  # its one frame is there: this lands it
                del posted[key]
                if req.forward is not None:
                    sends.append(req.forward)
                landed[gidx][sender] = req.wait()
                if len(landed[gidx]) == len(groups[gidx]) - 1:
                    complete.append(gidx)

        def sweep() -> bool:
            """Decode every decodable group, lowest index first, relaying
            whatever lands in between; report whether any was."""
            progressed = False
            while True:
                land()
                gidx = min(
                    (g for g in complete if ready is None or ready(g)),
                    default=None,
                )
                if gidx is None:
                    return progressed
                complete.remove(gidx)
                with program.stage("decode"):
                    decode(gidx, landed.pop(gidx))
                progressed = True

        mapping = map_step is not None
        while mapping or unsent or landed:
            if mapping:
                with program.stage("map"):
                    mapping = bool(map_step())
            post_open()
            if unsent and not mapping:
                raise RuntimeError(
                    f"rank {rank}: groups {sorted(unsent)} still not "
                    "encodable after map exhausted (ready() must be "
                    "all-true by then)"
                )
            # A completed send holds its encoded packet: let both go.
            while sends and sends[0].test():
                sends.popleft()
            if not sweep() and not mapping and landed:
                # Nothing to map, post or decode: sleep until any posted
                # receive has a frame — never on a chosen one, this rank
                # may be the tree relay of what that one's sender awaits.
                land(BACKEND_TIMEOUT)
        wait_all(sends)

    mapped = program.stopwatch.times().get("map", 0.0) - map_before
    # Pseudo-stage (not in STAGES): the Encode/Shuffle/Decode span — the
    # loop span with any map work peeled off — reaches the driver without
    # touching the merged stage table.
    program.stopwatch.add("shuffle_span", max(0.0, scope.elapsed - mapped))
    if map_step is not None:
        export_overlap(program, scope)


# ---------------------------------------------------------------------------
# Streaming-overlap telemetry (the "telemetry that can't lie" contract).
# ---------------------------------------------------------------------------

#: Pseudo-stage keys carrying per-node overlap telemetry to the driver.
OVERLAP_SPAN_KEY = "overlap_span"
OVERLAP_HIDDEN_KEY = "overlap_hidden"


def export_overlap(program: NodeProgram, scope: "_StageScope") -> None:
    """Stamp an overlapped loop's span + hidden-communication seconds.

    ``scope`` is the exited stage scope that wrapped the whole overlapped
    event loop: its ``elapsed`` is the loop span, its ``exclusive`` the
    exposed communication/wait time (nested compute scopes were charged
    to their own stages).  The difference — compute performed while
    transfers were concurrently in flight — is the upper bound on hidden
    communication, stamped as a pseudo-stage so the driver can aggregate
    it without touching the merged stage table.
    """
    program.stopwatch.add(OVERLAP_SPAN_KEY, scope.elapsed)
    program.stopwatch.add(
        OVERLAP_HIDDEN_KEY, max(0.0, scope.elapsed - scope.exclusive)
    )


def overlap_meta(per_node_times: Sequence[Dict[str, float]]) -> Dict[str, Any]:
    """Aggregate the per-node overlap stamps into the run-meta block."""
    spans = [t.get(OVERLAP_SPAN_KEY, 0.0) for t in per_node_times]
    hidden = [t.get(OVERLAP_HIDDEN_KEY, 0.0) for t in per_node_times]
    return {
        "span_seconds": max(spans, default=0.0),
        "hidden_seconds": max(hidden, default=0.0),
        "per_node_hidden_seconds": hidden,
    }


@dataclass
class ClusterResult:
    """Everything a cluster run returns to the driver.

    Attributes:
        results: per-rank return values of :meth:`NodeProgram.run`.
        stage_times: per-stage breakdown, max over nodes (barrier semantics,
            matching the paper's tables).
        per_node_times: raw per-rank stage dictionaries.
        traffic: the merged traffic log.
    """

    results: List[Any]
    stage_times: StageTimes
    per_node_times: List[Dict[str, float]] = field(default_factory=list)
    traffic: Optional[TrafficLog] = None

    @property
    def size(self) -> int:
        return len(self.results)


def assemble_cluster_result(
    results: List[Any],
    times: List[Dict[str, float]],
    traffic: Optional[TrafficLog],
    stages: List[str],
) -> ClusterResult:
    """Merge per-rank outputs into a :class:`ClusterResult`.

    Shared tail of every backend's run/pool collection loop; with no
    declared ``stages``, falls back to the union of observed stage names.
    """
    if not stages:
        stages = sorted({s for t in times for s in t})
    return ClusterResult(
        results=results,
        stage_times=StageTimes.merge_max(stages, times),
        per_node_times=times,
        traffic=traffic,
    )
