"""Coded TeraSort — a full reproduction of Li et al., IPDPS Workshops 2017.

CodedTeraSort trades redundant Map computation for an ``r``-fold reduction
of the shuffle bottleneck in distributed sorting, via structured file
placement and XOR-coded multicasts (Coded MapReduce).  This package
provides:

* the complete functional system — TeraSort and CodedTeraSort node
  programs running on real communication backends (threads or processes
  over sockets, with optional 100 Mbps pacing), plus the general Coded
  MapReduce engine with WordCount / Grep / SelfJoin / InvertedIndex jobs;
* a session API: a :class:`Session` owns a persistent worker pool (the
  fork + socket-mesh setup is paid once, as on the paper's standing EC2
  cluster) and runs many declarative jobs — :class:`TeraSortSpec`,
  :class:`CodedTeraSortSpec`, :class:`MapReduceSpec` — each submission
  returning a :class:`JobHandle` future with per-job times and traffic;
* an out-of-core data plane: job inputs are :class:`DataSource`
  descriptors (:class:`InlineSource` by value, :class:`FileSource` /
  :class:`TeragenSource` read or generated worker-side, so the control
  plane ships ~100-byte descriptors instead of record payloads), and a
  ``memory_budget`` switches the sort programs to chunked Map, spilled
  sorted runs, and a streaming external-merge Reduce — datasets 8x the
  per-worker budget sort byte-identically to the in-memory path;
* a fault-tolerant live runtime: worker heartbeats with driver-side
  failure detection (typed :class:`WorkerFailure`), automatic
  byte-identical job retry (``Session(max_retries=...)``), speculative
  re-execution of straggling map shards
  (``TeraSortSpec(speculation=True)``), and a deterministic
  fault-injection harness (``$REPRO_FAULT_PLAN``) that drives the
  chaos tests and straggler benchmarks;
* a multi-tenant sort service: the ``repro serve`` daemon
  (:class:`SortService`) owns one standing TCP worker mesh and runs
  many clients' jobs *concurrently on per-job worker subsets*, with
  admission control, per-tenant quotas (:class:`TenantQuota`), and
  fair-share/priority scheduling; :class:`ServiceClient` is the thin
  submit/status side returning :class:`JobHandle`-compatible futures;
* a closed-form model of the paper's runs, calibrated to its EC2 testbed,
  that regenerates every table and figure at full 12 GB scale;
* the closed-form theory (Eq. (2)-(5)) and an experiment harness producing
  paper-vs-measured reports.

Quickstart (:func:`connect` picks the backend from a URL —
``inproc://K`` worker threads, ``proc://K`` forked processes,
``tcp://HOST:PORT`` a real multi-host mesh)::

    from repro import Session, TeraSortSpec, CodedTeraSortSpec, connect, teragen

    data = teragen(100_000, seed=1)
    with Session(connect("inproc://6")) as session:
        base = session.submit(TeraSortSpec(data=data))
        coded = session.submit(CodedTeraSortSpec(data=data, redundancy=2))
        # JobHandle.result() -> SortRun; partitions are the sorted shards
        ratio = (base.result().traffic.load_bytes("shuffle")
                 / coded.result().traffic.load_bytes("shuffle"))

A single job needs no session of its own: ``repro.run(cluster, spec)``
opens one, submits, waits and closes.  Every job option is declared once,
on its spec class (the docstrings there are the option reference).  See
README.md for the architecture overview and EXPERIMENTS.md for the
reproduction results.
"""

from repro.cluster import connect
from repro.core.coded_terasort import CodedTeraSortProgram
from repro.core.cmr import MapReduceJob
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement, UncodedPlacement
from repro.core.terasort import SortRun, TeraSortProgram
from repro.core.theory import (
    coded_comm_load,
    optimal_r,
    predicted_total_time,
    uncoded_comm_load,
)
from repro.kvpairs.datasource import (
    DataSource,
    FileSource,
    InlineSource,
    TeragenSource,
)
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.teragen import teragen, teragen_skewed, teragen_to_file
from repro.kvpairs.validation import (
    validate_sorted_iter,
    validate_sorted_permutation,
)
from repro.runtime.errors import RuntimeTimeoutError, WorkerFailure
from repro.service import (
    AdmissionError,
    QueueFull,
    QuotaExceeded,
    ServiceClient,
    ServiceJobHandle,
    ServiceRejected,
    ServiceStats,
    SortService,
    TenantQuota,
)
from repro.session import (
    CodedTeraSortSpec,
    JobAttempt,
    JobHandle,
    JobSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
    run,
)
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import simulate_coded_terasort, simulate_terasort
from repro.stragglers.runner import straggler_comparison
from repro.wireless.wdc import run_wireless_sort

__version__ = "1.0.0"

__all__ = [
    "connect",
    "Session",
    "JobSpec",
    "JobHandle",
    "JobAttempt",
    "WorkerFailure",
    "RuntimeTimeoutError",
    "TeraSortSpec",
    "CodedTeraSortSpec",
    "MapReduceSpec",
    "run",
    "CodedTeraSortProgram",
    "MapReduceJob",
    "RangePartitioner",
    "CodedPlacement",
    "UncodedPlacement",
    "SortRun",
    "TeraSortProgram",
    "coded_comm_load",
    "uncoded_comm_load",
    "optimal_r",
    "predicted_total_time",
    "RecordBatch",
    "DataSource",
    "InlineSource",
    "FileSource",
    "TeragenSource",
    "teragen",
    "teragen_skewed",
    "teragen_to_file",
    "validate_sorted_iter",
    "validate_sorted_permutation",
    "SortService",
    "ServiceClient",
    "ServiceJobHandle",
    "ServiceRejected",
    "ServiceStats",
    "TenantQuota",
    "AdmissionError",
    "QueueFull",
    "QuotaExceeded",
    "EC2CostModel",
    "simulate_terasort",
    "simulate_coded_terasort",
    "straggler_comparison",
    "run_wireless_sort",
    "__version__",
]
