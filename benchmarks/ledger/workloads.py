"""The seven workloads and the lanes (standing pool, sort service) they run on.

Six of them are gated (registered in ``BENCHMARK.json``): the driver makes
4 + 22 x 6 = 136 runs in 57 minutes, which leaves ~25 s a run on 2 cores --
15 s of measurement plus generation, set-up repeats and teardown.  Sizes
are cut so that a run of that length holds 18 to 2000 jobs, while every
paced job still pushes several token-bucket bursts (1.25 MB) through each
worker's egress, so pacing, not the burst allowance, sets its shuffle time.
``ooc-coded`` runs with the others under ``--workload all`` but is not
gated; its entry says why.
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.cluster import connect
from repro.runtime.tcp import run_worker
from repro.service import ServiceClient, SortService
from repro.session import CodedTeraSortSpec, JobSpec, Session, TeraSortSpec

#: The paper's NIC class: 100 Mbps per-worker egress.
RATE_BYTES_PER_S = 12_500_000
JOB_TIMEOUT = 60.0
MIB = 1 << 20


@dataclass(frozen=True)
class Kind:
    """One job shape of a workload; ``redundancy`` 0 is the uncoded sort."""

    label: str
    redundancy: int = 0
    options: Dict[str, object] = field(default_factory=dict)

    def spec(self, **data) -> JobSpec:
        if self.redundancy == 0:
            return TeraSortSpec(**data, **self.options)
        return CodedTeraSortSpec(
            redundancy=self.redundancy, **data, **self.options
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    nodes: int  # K every job runs on
    records: int  # input records of every job
    min_jobs: int  # timed jobs, however short the run
    kinds: Tuple[Kind, ...]  # cycled job by job
    paced: bool = False
    inline: bool = False  # input shipped by value instead of a FileSource
    service: bool = False  # through the daemon, 2 clients on 8 workers
    #: Share of the oracle's load the measured one may differ by: XOR
    #: packets are padded to their longest segment, frames carry headers,
    #: and partition sizes fluctuate as 1/sqrt(records per partition).
    load_tolerance: float = 0.05
    gated: bool = True  # registered in BENCHMARK.json
    one_core: bool = False  # the run pins itself and its pool to one CPU

    @property
    def clients(self) -> int:
        return 2 if self.service else 1


UNCODED = Kind("uncoded")

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "paced-uncoded",
        "The paper's baseline row: ~95% of wall is paced shuffle wait, so "
        "only bytes on the wire and schedule move it; kernel or "
        "control-plane work must show no change here.",
        nodes=6, records=300_000, min_jobs=9, paced=True, kinds=(UNCODED,),
    ),
    Workload(
        "paced-coded",
        "The paper's contribution (Table II shape): r-fold map, CodeGen, "
        "encode, multicast, decode all live; where coding-layer and "
        "multicast fan-out changes show end to end.",
        nodes=6, records=300_000, min_jobs=11, paced=True,
        kinds=(Kind("coded-r3", 3, {"schedule": "serial"}),),
    ),
    Workload(
        "paced-coded-overlap",
        "Same coding and merge layers driven by the streaming engine and "
        "IncrementalMerger; map/shuffle/reduce are balanced, so a gain for "
        "the staged path that costs the overlapped one shows.",
        nodes=6, records=300_000, min_jobs=21, paced=True,
        kinds=(Kind("coded-r3-overlap", 3,
                    {"schedule": "parallel", "overlap": True}),),
    ),
    Workload(
        "unpaced-uncoded",
        "Compute- and copy-bound: partition, sort kernels, serialization, "
        "transport per-byte cost and result collection dominate; no pacing, "
        "so link-side changes show nothing.",
        # 400 k, not more: at 800 k every worker buffer is 20 MB, glibc
        # returns blocks of that size to the kernel on free, and each job
        # re-faults them at the VM's first-touch price -- 2.8x the time for
        # 2x the data, and a 30 % job-to-job quartile spread (6 % here).
        nodes=4, records=400_000, min_jobs=9, kinds=(UNCODED,),
    ),
    Workload(
        "ooc-coded",
        "Writes beside reads: the merge kernels run as a streaming external "
        "merge over spilled runs (input 8x the per-worker budget); "
        "kvpairs.spill and core.outofcore work here and nowhere else.",
        nodes=4, records=650_000, min_jobs=9,
        kinds=(Kind("coded-r2-ooc", 2,
                    {"schedule": "parallel", "memory_budget": 2 * MIB}),),
        # Not gated: every job puts ~200 MB of spill and part files through
        # the page cache and unlinks them.  The VM hands freed pages back to
        # its host (free page reporting), and the first touch of such a page
        # costs 1 to 50 us depending on the host's minute, so ten runs of
        # the same commit spread by 6 % to 27 % here (the driver measured
        # 19 % and 27 %) and no run length within the budget steadies that.
        # Its counts, RSS and load repeat; its times are for reading.
        gated=False,
    ),
    Workload(
        "small-jobs",
        "Control plane only: spec pickling, dispatch, CodeGen, collect on "
        "2k-record jobs, pinned to one core; a pool/session refactor is "
        "judged here and a kernel change is predicted flat.",
        nodes=4, records=2_000, min_jobs=600, inline=True,
        kinds=(UNCODED, Kind("coded-r2", 2)), load_tolerance=0.25,
        # A job here is a chain of hand-offs among five processes (dispatch,
        # per-turn barriers, 12 tiny messages, collect) and no data to
        # speak of: it runs as fast on one core as on two (7.0 ms either
        # way).  Across two vCPUs every hand-off waits for the other vCPU
        # to be on a host core, and when the host is busy that wait is a
        # host timeslice: three consecutive runs of one commit read 16 to
        # 25 ms against 8 ms.  On one core a busy host costs its share of
        # the CPU and nothing more (with both cores loaded by a competing
        # process: 1.35x pinned, 2.2x unpinned).
        one_core=True,
    ),
    Workload(
        "service-2x4",
        "The only lane through daemon, scheduler, ServicePool and real TCP "
        "sockets: two tenants' 4-worker jobs side by side on 8 workers, so "
        "scheduler or membership cost shows as jobs_per_s.",
        nodes=4, records=200_000, min_jobs=12, paced=True, service=True,
        # Sorted partitions go to part files (a 64 MiB budget holds a
        # worker's 5 MB share in one map window), not back through the
        # daemon: it keeps every result it ever produced, and 20 MB more
        # resident per job means fresh pages per job -- on a lazily backed
        # VM that doubles job latency ten seconds in and no two runs agree
        # (reference/BREAKDOWN.md).
        kinds=(Kind("uncoded", 0, {"memory_budget": 64 * MIB}),
               Kind("coded-r2", 2, {"memory_budget": 64 * MIB})),
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# ---------------------------------------------------------------------------
# Lanes: how a workload's jobs reach the program.
# ---------------------------------------------------------------------------


class SessionLane:
    """A standing ``proc://K`` pool behind one :class:`Session`."""

    layer = "session"

    def __init__(self, workload: Workload) -> None:
        options = {"timeout": JOB_TIMEOUT}
        if workload.paced:
            options["rate_bytes_per_s"] = RATE_BYTES_PER_S
        self._url = f"proc://{workload.nodes}"
        self._options = options
        self._session = None

    def start(self) -> None:
        self._session = Session(connect(self._url, **self._options))

    def submit(self, spec: JobSpec, client: int):
        return self._session.submit(spec)

    def stats(self):
        return None

    def stop(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None


class ServiceLane:
    """``SortService`` on ``tcp://127.0.0.1:0``, 8 forked ``run_worker``."""

    layer = "service"
    MESH = 8
    TENANTS = ("alice", "bob")

    def __init__(self, workload: Workload) -> None:
        self._workers = workload.nodes
        self._stack = None
        self._procs = []
        self._clients = []

    def start(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._stack = ExitStack()
        cluster = self._stack.enter_context(connect(
            "tcp://127.0.0.1:0", size=self.MESH,
            rate_bytes_per_s=RATE_BYTES_PER_S,
            timeout=JOB_TIMEOUT, connect_timeout=JOB_TIMEOUT,
        ))
        self._procs = [
            ctx.Process(
                target=run_worker,
                kwargs=dict(join=cluster.address, quiet=True,
                            connect_timeout=JOB_TIMEOUT,
                            handshake_timeout=JOB_TIMEOUT),
                daemon=True,
            )
            for _ in range(self.MESH)
        ]
        for proc in self._procs:
            proc.start()
        service = self._stack.enter_context(
            SortService(cluster, max_queue_depth=64)
        )
        service.start()
        self._clients = [
            ServiceClient(service.control_address) for _ in self.TENANTS
        ]

    def submit(self, spec: JobSpec, client: int):
        return self._clients[client].submit(
            spec, tenant=self.TENANTS[client], workers=self._workers
        )

    def stats(self):
        return self._clients[0].stats()

    def stop(self) -> None:
        if self._stack is None:
            return
        try:
            # The operator's path: the daemon answers, then closes itself
            # and stops its workers.  SortService.close() from this thread
            # would sit out a 10 s join on the accept loop, which a closed
            # listener does not wake.
            self._clients[0].shutdown()
        except (OSError, RuntimeError, IndexError):
            pass
        for proc in self._procs:
            proc.join(timeout=10.0)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs = []
        self._stack.close()
        self._stack = None


def make_lane(workload: Workload):
    return ServiceLane(workload) if workload.service else SessionLane(workload)


def scratch_dir(out_dir: str) -> str:
    """A per-run scratch dir under ``out_dir``; spill files land there too,
    so the benchmark reads and writes only inside its checkout."""
    path = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(os.path.join(path, "spill"), exist_ok=True)
    os.environ["REPRO_SPILL_DIR"] = os.path.join(path, "spill")
    os.environ["TMPDIR"] = path
    return path
