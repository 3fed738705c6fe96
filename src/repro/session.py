"""Sessions: persistent worker pools, declarative job specs, job futures.

The paper's EC2 experiments amortize cluster setup across a whole
benchmark campaign; this module gives the driver API the same shape.  A
:class:`Session` owns a long-lived worker pool on any backend
(:class:`~repro.runtime.inproc.ThreadCluster`,
:class:`~repro.runtime.process.ProcessCluster`, or the multi-host
:class:`~repro.runtime.tcp.TcpCluster`) and accepts many jobs:
on the process backend the fork + socketpair-mesh + reader-thread setup
is paid once per session instead of once per job, with workers running a
control loop over the existing :class:`~repro.runtime.api.Comm` (each
job shifted into its own reserved tag window, see
:meth:`~repro.runtime.api.Comm.begin_job`).

Jobs are *declarative*: the three algorithm entry points are unified as
validated spec dataclasses — :class:`TeraSortSpec`,
:class:`CodedTeraSortSpec`, and :class:`MapReduceSpec` (with
``scheme="coded" | "uncoded"``), all carrying their schedule /
partitioner / placement options.  The sort specs also carry the
out-of-core knobs: ``input=`` takes a
:class:`~repro.kvpairs.datasource.DataSource` descriptor (workers read
their own splits — the control plane stops shipping record bytes),
``memory_budget=`` caps each worker's resident record buffers (spilling
the rest to per-job temp files), and ``output_dir=`` streams sorted
partitions to part files.  Jobs are submitted through one call::

    from repro import Session, ProcessCluster, TeraSortSpec, CodedTeraSortSpec

    with Session(ProcessCluster(8)) as session:
        base = session.submit(TeraSortSpec(data=data))
        fast = session.submit(
            CodedTeraSortSpec(data=data, redundancy=3, schedule="parallel")
        )
        base.result().partitions  # JobHandle is a future
        fast.result().meta["schedule_rounds"]

:meth:`Session.submit` validates the spec synchronously (bad parameters
raise :class:`ValueError` in the caller) and returns a :class:`JobHandle`
future with ``result()`` / ``done()`` / ``wait()`` / ``exception()``;
jobs run strictly in submission order on a background driver thread.
Each job gets its own :class:`~repro.runtime.program.ClusterResult` —
stage times and traffic are isolated per job id, never merged across
jobs.  A failing job reports its error on *its* handle and the session
survives: subsequent jobs run normally (the worker pool re-forms its
mesh through its transport — re-fork, or TCP re-join; the thread pool
rebuilds its per-job mailboxes).

The legacy ``run_terasort`` / ``run_coded_terasort`` / ``run_mapreduce``
functions remain as thin one-shot-session shims with unchanged
signatures and results.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence

from repro.core.cmr import CMRRun, MapReduceJob, prepare_mapreduce
from repro.core.coded_terasort import prepare_coded_terasort
from repro.core.groups import check_coded_params, check_schedule
from repro.core.outofcore import MIN_MEMORY_BUDGET
from repro.core.terasort import (
    SortRun,
    check_terasort_options,
    prepare_terasort,
)
from repro.kvpairs.datasource import DataSource
from repro.kvpairs.records import RecordBatch
from repro.runtime.errors import WorkerFailure
from repro.runtime.program import ClusterResult, PreparedJob
from repro.utils.subsets import binomial

__all__ = [
    "JobSpec",
    "TeraSortSpec",
    "CodedTeraSortSpec",
    "MapReduceSpec",
    "JobAttempt",
    "JobHandle",
    "Session",
]


# ---------------------------------------------------------------------------
# Job specs — declarative, validated descriptions of one job.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec(ABC):
    """A declarative description of one job a :class:`Session` can run.

    Subclasses are frozen dataclasses naming an algorithm plus all of its
    options; :meth:`validate` raises :class:`ValueError` for parameters
    that cannot run on a ``size``-node cluster (called synchronously by
    :meth:`Session.submit`), and :meth:`prepare` compiles the spec into a
    pool-runnable :class:`~repro.runtime.program.PreparedJob`.
    """

    @abstractmethod
    def validate(self, size: int) -> None:
        """Raise :class:`ValueError` if the spec cannot run on ``size`` nodes."""

    @abstractmethod
    def prepare(self, size: int) -> PreparedJob:
        """Compile the spec for a ``size``-node worker pool."""

    def with_(self, **overrides: Any) -> "JobSpec":
        """A copy of this spec with the given fields replaced.

        A validated :func:`dataclasses.replace` wrapper: unknown field
        names raise :class:`TypeError` and the new spec's own field
        validation (``__post_init__`` where defined) runs on the copy —
        so the elastic re-planner and user code stop hand-copying
        ten-field specs::

            wider = CodedTeraSortSpec(data=data, redundancy=3).with_(
                schedule="parallel"
            )
        """
        bad = set(overrides) - {f for f in type(self).__dataclass_fields__}
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


def _check_input_fields(spec) -> None:
    """Shared validation of the sort specs' input/budget/output fields."""
    if (spec.data is None) == (spec.input is None):
        raise ValueError(
            "exactly one of data= (a RecordBatch) or input= (a DataSource) "
            "must be given"
        )
    if spec.data is not None and not isinstance(spec.data, RecordBatch):
        raise ValueError(
            f"data must be a RecordBatch, got {type(spec.data).__name__} "
            "(pass sources via input=)"
        )
    if spec.input is not None and not isinstance(spec.input, DataSource):
        raise ValueError(
            f"input must be a DataSource, got {type(spec.input).__name__}"
        )
    if spec.memory_budget is not None and spec.memory_budget < MIN_MEMORY_BUDGET:
        raise ValueError(
            f"memory_budget must be >= {MIN_MEMORY_BUDGET} bytes, "
            f"got {spec.memory_budget}"
        )
    if spec.output_dir is not None and spec.memory_budget is None:
        raise ValueError(
            "output_dir requires memory_budget (the in-memory path "
            "returns resident partitions)"
        )


@dataclass(frozen=True)
class TeraSortSpec(JobSpec):
    """The uncoded baseline sort (§III): serial unicast shuffle.

    Attributes:
        data: the full input batch (the coordinator's view); mutually
            exclusive with ``input``.
        input: a :class:`~repro.kvpairs.datasource.DataSource` descriptor
            (``FileSource`` / ``TeragenSource`` / ``InlineSource``) —
            workers read their own splits, the control plane ships only
            descriptors for file/teragen kinds.
        memory_budget: per-worker cap (bytes) on resident record buffers;
            enables the out-of-core pipeline (byte-identical output).
        output_dir: with a budget, workers stream their sorted partition
            to ``<output_dir>/part-<rank>`` (a worker-local or shared
            path) and the run's partitions are ``FileSource`` results.
        sampled_partitioner: use sampled quantile splitters instead of
            uniform ones (needed for skewed keys).
        sample_size / sample_seed: splitter sample parameters.
        speculation: enable speculative re-execution of straggling map
            shards (live pool backends only): the driver watches stage
            heartbeats and launches a backup copy of a slow shard's map
            on an already-finished worker — first finisher wins, output
            stays byte-identical (map output per shard is deterministic).
            Requires ``input=`` (shards must be re-readable descriptors),
            no ``memory_budget`` and no ``overlap`` — the unsupported
            cells are named by
            :func:`~repro.core.terasort.check_terasort_options`.
        speculation_wait_factor / speculation_min_wait: a shard is
            declared straggling once the job has run
            ``max(min_wait, wait_factor x median map completion time)``
            seconds and at least half the workers finished their map.
        overlap: open the pipeline's send gate as the map goes: each
            map window's partition chunks are shipped the moment the
            window completes and arrivals are consumed between windows
            (map ↔ shuffle overlap), so makespan approaches
            ``max(compute, comm)`` instead of their sum.  In memory
            Reduce is still one sort at the end; under a
            ``memory_budget`` arriving runs are also pre-merged while
            the shuffle is in flight (shuffle ↔ reduce overlap).
            Output stays byte-identical to the staged schedule.
            Composes with ``memory_budget``; not with ``speculation``,
            which runs on the staged shuffle only.
    """

    data: Optional[RecordBatch] = None
    input: Optional[DataSource] = None
    memory_budget: Optional[int] = None
    output_dir: Optional[str] = None
    sampled_partitioner: bool = False
    sample_size: int = 10000
    sample_seed: int = 7
    speculation: bool = False
    speculation_wait_factor: float = 1.5
    speculation_min_wait: float = 0.2
    overlap: bool = False

    def validate(self, size: int) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        if self.sample_size < 1:
            raise ValueError(
                f"sample_size must be >= 1, got {self.sample_size}"
            )
        _check_input_fields(self)
        check_terasort_options(
            self.input if self.input is not None else self.data,
            self.memory_budget,
            self.speculation,
            self.overlap,
        )
        if self.speculation:
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
        return prepare_terasort(
            size,
            self.input if self.input is not None else self.data,
            sampled_partitioner=self.sampled_partitioner,
            sample_size=self.sample_size,
            sample_seed=self.sample_seed,
            memory_budget=self.memory_budget,
            output_dir=self.output_dir,
            speculation=self.speculation,
            speculation_wait_factor=self.speculation_wait_factor,
            speculation_min_wait=self.speculation_min_wait,
            overlap=self.overlap,
        )


@dataclass(frozen=True)
class CodedTeraSortSpec(JobSpec):
    """CodedTeraSort (§IV): coded placement + XOR multicast shuffle.

    Attributes:
        data: the full input batch; mutually exclusive with ``input``.
        redundancy: the computation load ``r ∈ [1, g-1]``.
        input / memory_budget / output_dir: out-of-core input descriptor,
            per-worker residency cap, and streamed-output directory — see
            :class:`TeraSortSpec`.
        batches_per_subset: input files per node subset
            (``N = b * C(g, r)``).
        schedule: ``"serial"`` (paper, Fig. 9(b) turns) or ``"parallel"``
            (the barrier-free event loop, packets posted in conflict-free
            round order); byte-identical output.
        sampled_partitioner / sample_size / sample_seed: see
            :class:`TeraSortSpec`.
        overlap: the event loop also drives the map: each multicast
            group is encoded and sent as soon as all of its contributing
            file subsets are mapped (map ↔ shuffle).  In memory Reduce
            is still one sort at the end; under a ``memory_budget``
            decoded groups are also pre-merged as they arrive (shuffle
            ↔ reduce).  Composes with either ``schedule`` (the schedule
            fixes the posting priority) and with ``memory_budget``;
            output stays byte-identical.
        group_size: group-based coding (§VI "Scalable Coding"): the ``K``
            workers code inside ``K/g`` groups of ``g``, each holding the
            whole input — CodeGen falls from ``C(K, r+1)`` to
            ``C(g, r+1)`` groups, the load rises to ``(1/r)(1 - r/g)`` and
            each node maps ``r/g`` of the input.  Must divide ``K``;
            ``None`` (default) is ``g = K``.  Picks the coding plan only:
            composes with every other field.
    """

    data: Optional[RecordBatch] = None
    redundancy: int = 1
    input: Optional[DataSource] = None
    memory_budget: Optional[int] = None
    output_dir: Optional[str] = None
    batches_per_subset: int = 1
    schedule: str = "serial"
    sampled_partitioner: bool = False
    sample_size: int = 10000
    sample_seed: int = 7
    overlap: bool = False
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
        _check_input_fields(self)

    def shrink_to(self, free: int) -> Optional[int]:
        # Coded geometry: (K', r) stays valid only while r <= K'-1, so
        # the smallest shrink target is r+1 workers (1604.07086's
        # tradeoff constraint); validate() enforces the rest — with a
        # group_size, only its multiples.
        return self._shrink_by_validate(free, floor=self.redundancy + 1)

    def prepare(self, size: int) -> PreparedJob:
        return prepare_coded_terasort(
            size,
            self.input if self.input is not None else self.data,
            self.redundancy,
            batches_per_subset=self.batches_per_subset,
            sampled_partitioner=self.sampled_partitioner,
            sample_size=self.sample_size,
            sample_seed=self.sample_seed,
            schedule=self.schedule,
            memory_budget=self.memory_budget,
            output_dir=self.output_dir,
            overlap=self.overlap,
            group_size=self.group_size,
        )


@dataclass(frozen=True)
class MapReduceSpec(JobSpec):
    """A general (Coded) MapReduce job (§II) over arbitrary file payloads.

    Attributes:
        job: the map/reduce law; must be a module-level class so the
            process backend can pickle it to pool workers (the bundled
            jobs in :mod:`repro.core.jobs` all qualify).
        files: the ``N`` input file payloads; ``N`` must be a positive
            multiple of ``C(K, r)`` (the batched placement).
        redundancy: ``r``; each file is mapped on ``r`` nodes.
        scheme: ``"uncoded"`` (designated-sender unicast shuffle) or
            ``"coded"`` (Algorithm 1/2 XOR multicast).
        schedule: coded-shuffle schedule, ``"serial"`` or ``"parallel"``;
            only meaningful with ``scheme="coded"``.
        memory_budget: per-worker cap (bytes) on the resident serialized
            intermediate store; overflow spills to per-job temp files.
            File payloads that are ``DataSource`` descriptors are always
            materialized worker-side, budget or not.
    """

    job: MapReduceJob
    files: Sequence[Any]
    redundancy: int = 1
    scheme: str = "uncoded"
    schedule: str = "serial"
    memory_budget: Optional[int] = None

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
        # The coded shuffle multicasts within groups of r+1 <= K nodes;
        # the uncoded scheme only needs the placement, so r = K is legal.
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
        return prepare_mapreduce(
            size,
            self.job,
            list(self.files),
            redundancy=self.redundancy,
            coded=self.scheme == "coded",
            schedule=self.schedule,
            memory_budget=self.memory_budget,
        )


# ---------------------------------------------------------------------------
# Job futures.
# ---------------------------------------------------------------------------


@dataclass
class JobAttempt:
    """One execution attempt of a job (see :attr:`JobHandle.attempts`).

    Attributes:
        index: 0-based attempt number.
        duration: wall seconds this attempt ran on the pool.
        error: the typed failure that ended the attempt
            (:class:`~repro.runtime.errors.WorkerFailure` for the retried
            ones), or ``None`` for the successful attempt.
        replanned_k: when the sort service's ``shrink_to_fit`` policy
            re-planned this attempt onto fewer workers than the spec
            asked for, the K' it actually ran at; ``None`` otherwise.
    """

    index: int
    duration: float
    error: Optional[BaseException] = None
    replanned_k: Optional[int] = None


def retry_delay(attempt: int, backoff: float, cap: float = 30.0) -> float:
    """Seconds to sleep before re-submitting failed attempt ``attempt``.

    Bounded exponential: ``backoff * 2**attempt``, capped so a long retry
    budget cannot stall a driver for minutes.  Shared by the in-process
    :class:`Session` driver and the sort service's scheduler, so both
    retry with identical pacing.
    """
    return min(cap, backoff * (2 ** attempt))


class JobHandle:
    """Future for one submitted job.

    Completed by the session's driver thread; all methods are safe to
    call from any thread, any number of times.

    Attributes:
        attempts: per-attempt history, appended by the driver as each
            attempt ends.  One entry for a job that ran cleanly; a job
            that survived worker failures records every failed attempt
            (with its typed :class:`~repro.runtime.errors.WorkerFailure`)
            before the successful one.
    """

    def __init__(self, job_id: int, spec: JobSpec) -> None:
        self.job_id = job_id
        self.spec = spec
        self.attempts: List[JobAttempt] = []
        self._event = threading.Event()
        self._result: Any = None
        self._cluster_result: Optional[ClusterResult] = None
        self._error: Optional[BaseException] = None

    # -- completion (driver side) -----------------------------------------

    def _complete(
        self, result: Any, cluster_result: ClusterResult
    ) -> None:
        self._result = result
        self._cluster_result = cluster_result
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    # -- future API --------------------------------------------------------

    def done(self) -> bool:
        """True once the job has finished (successfully or not)."""
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the job finishes; True if it did within ``timeout``."""
        return self._event.wait(timeout)

    def result(self, timeout: Optional[float] = None) -> Any:
        """The job's result (:class:`~repro.core.terasort.SortRun` for the
        sort specs, :class:`~repro.core.cmr.CMRRun` for MapReduce).

        Blocks until completion; re-raises the job's error if it failed,
        and :class:`TimeoutError` if ``timeout`` expires first.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def exception(
        self, timeout: Optional[float] = None
    ) -> Optional[BaseException]:
        """The job's error (None on success); blocks like :meth:`result`."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job_id} did not finish within {timeout}s"
            )
        return self._error

    def cluster_result(
        self, timeout: Optional[float] = None
    ) -> ClusterResult:
        """This job's raw :class:`~repro.runtime.program.ClusterResult`.

        Per-job isolation: stage times and the traffic log cover exactly
        this job id's transfers, nothing from neighbouring jobs on the
        same session.
        """
        self.result(timeout)  # propagate errors / wait
        assert self._cluster_result is not None
        return self._cluster_result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if not self.done()
            else ("failed" if self._error is not None else "done")
        )
        return (
            f"JobHandle(job_id={self.job_id}, "
            f"spec={type(self.spec).__name__}, {state})"
        )


# ---------------------------------------------------------------------------
# The session.
# ---------------------------------------------------------------------------


class Session:
    """A standing cluster accepting many jobs (context manager).

    Args:
        cluster: a :class:`~repro.runtime.inproc.ThreadCluster` or
            :class:`~repro.runtime.process.ProcessCluster` (anything with
            ``size`` and ``create_pool()``).  The cluster object only
            carries configuration; the session owns the actual pool.
        max_retries: how many times a job that failed to *infrastructure*
            (a typed :class:`~repro.runtime.errors.WorkerFailure`: worker
            crash, silent worker past the failure timeout, comm cascade)
            is automatically re-submitted.  The pool re-forms between
            attempts (re-fork on the process backend, worker re-join on
            TCP) and re-runs produce byte-identical output because job
            specs are deterministic descriptors.  Program errors — the
            job's own code raising — are never retried.  Default 0: a
            failure fails the handle, matching the pre-retry behaviour.
        retry_backoff: base seconds slept before re-submitting; attempt
            ``n`` waits ``retry_backoff * 2**(n-1)`` (bounded exponential
            backoff so a flapping host isn't hammered).
        failure_timeout: override the cluster's mid-job worker liveness
            bound (seconds without a heartbeat before a worker is
            declared dead); ``None`` keeps the cluster's own setting.

    The worker pool starts lazily with the first job, jobs run strictly
    in submission order, and :meth:`close` (or leaving the ``with``
    block) drains every queued job before shutting the pool down.
    """

    def __init__(
        self,
        cluster,
        max_retries: int = 0,
        retry_backoff: float = 0.5,
        failure_timeout: Optional[float] = None,
    ) -> None:
        create_pool = getattr(cluster, "create_pool", None)
        if create_pool is None:
            raise TypeError(
                f"{type(cluster).__name__} does not support sessions "
                "(no create_pool())"
            )
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {retry_backoff}"
            )
        if failure_timeout is not None:
            if failure_timeout <= 0:
                raise ValueError(
                    f"failure_timeout must be > 0, got {failure_timeout}"
                )
        self._cluster = cluster
        self._failure_timeout = failure_timeout
        self._max_retries = max_retries
        self._retry_backoff = retry_backoff
        self._pool = None
        self._queue: List[JobHandle] = []
        self._cond = threading.Condition()
        self._close_lock = threading.Lock()
        self._driver: Optional[threading.Thread] = None
        self._closed = False
        self._next_job_id = 0

    @property
    def size(self) -> int:
        """Number of worker nodes (the paper's ``K``)."""
        return self._cluster.size

    # -- submission ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Queue one job; returns its :class:`JobHandle` future.

        The spec is validated against the cluster size *synchronously*
        (bad parameters raise :class:`ValueError` here, not on the
        handle); everything else — preparation, execution, result
        assembly — happens on the driver thread in submission order.

        Raises:
            ValueError: the spec cannot run on this cluster.
            RuntimeError: the session is closed.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(
                f"submit() takes a JobSpec, got {type(spec).__name__}"
            )
        spec.validate(self.size)
        with self._cond:
            if self._closed:
                raise RuntimeError("session is closed")
            handle = JobHandle(self._next_job_id, spec)
            self._next_job_id += 1
            self._queue.append(handle)
            if self._driver is None:
                self._driver = threading.Thread(
                    target=self._drive, daemon=True, name="session-driver"
                )
                self._driver.start()
            self._cond.notify_all()
        return handle

    def run(self, spec: JobSpec) -> Any:
        """Submit one job and block for its result (convenience)."""
        return self.submit(spec).result()

    # -- driver -------------------------------------------------------------

    def _drive(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._closed:
                    self._cond.wait()
                if not self._queue:
                    return  # closed and drained
                handle = self._queue.pop(0)
            try:
                prepared = handle.spec.prepare(self.size)
                if self._pool is None:
                    self._pool = self._cluster.create_pool()
                    if self._failure_timeout is not None:
                        # The override is the pool's state, never written
                        # back to the (possibly shared) cluster object.
                        self._pool.failure_timeout = self._failure_timeout
                attempt = 0
                while True:
                    started = time.monotonic()
                    try:
                        cluster_result = self._pool.run_job(prepared)
                    except WorkerFailure as failure:
                        # Infrastructure died under the job.  Record the
                        # attempt and, within budget, re-submit: run_job
                        # re-forms the pool (re-fork / worker re-join) and
                        # the deterministic spec re-runs byte-identically.
                        handle.attempts.append(
                            JobAttempt(
                                index=attempt,
                                duration=time.monotonic() - started,
                                error=failure,
                            )
                        )
                        if attempt >= self._max_retries:
                            raise
                        time.sleep(retry_delay(attempt, self._retry_backoff))
                        attempt += 1
                        continue
                    handle.attempts.append(
                        JobAttempt(
                            index=attempt,
                            duration=time.monotonic() - started,
                        )
                    )
                    handle._complete(
                        prepared.finalize(cluster_result), cluster_result
                    )
                    break
            except BaseException as exc:  # noqa: BLE001 - fail the handle
                handle._fail(exc)

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Drain queued jobs, stop the driver, shut the pool down.

        Idempotent.  Jobs already submitted still run to completion (their
        handles complete normally); new submissions raise.
        """
        with self._cond:
            self._closed = True
            driver = self._driver
            self._cond.notify_all()
        # Every closer joins the (possibly already finished) driver, so a
        # concurrent second close() cannot reach the pool shutdown while
        # the first caller's driver still has a job in flight.
        if driver is not None:
            driver.join()
        with self._close_lock:
            if self._pool is not None:
                self._pool.close()
                self._pool = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"Session({type(self._cluster).__name__}(size={self.size}), "
            f"{state}, {self._next_job_id} jobs submitted)"
        )
