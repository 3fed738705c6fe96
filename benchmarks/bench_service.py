"""Sort service: makespan for N mixed jobs, concurrent subsets vs FIFO.

Measures what the service's per-job worker subsets buy on one standing
TCP mesh: N four-worker jobs (mixed coded/uncoded, two tenants) packed
concurrently onto K=8 workers by the :class:`SortService` scheduler,
versus the same N jobs submitted strictly FIFO (each waits for the
previous — the :class:`~repro.session.Session` discipline, where one job
owns the whole pool).  With two disjoint 4-worker subsets live at once,
the concurrent lane's makespan should approach half the FIFO lane's;
the acceptance bar is >= 1.3x.

Every job's output is asserted byte-identical to the same spec run solo
on a dedicated in-process cluster before any timing is reported.  The
mesh is paced (``--rate-mbps``) so the shuffle — the resource the
subsets actually partition — dominates the per-job wall time.

A third *elastic* lane then exercises the elastic-pool machinery on the
same K=8 mesh: two 4-worker jobs are put in flight, 2 workers are
SIGKILLed mid-service, 2 replacements rejoin the standing mesh, and a
queued 6-worker coded job either waits for the regrowth or is
shrink-to-fit re-planned — every output again byte-identical to a solo
run at the width it actually ran.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick] \
        [--jobs N] [--records N] [--out results/service.json]
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import signal
import sys
import threading
import time
from typing import Dict, List

from repro.kvpairs.teragen import teragen
from repro.cluster import connect
from repro.runtime.tcp import run_worker
from repro.service import ServiceClient, SortService
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"
_CTX = multiprocessing.get_context("fork")

#: Mesh size and per-job subset size: two jobs fit side by side.
NODES = 8
JOB_WORKERS = 4
#: The coded jobs' shuffle schedule, by name: the committed baseline
#: (``results/baseline_service_quick.json``) was taken on the serial walk.
SCHEDULE = "serial"


def _spawn_workers(address: str, n: int):
    procs = [
        _CTX.Process(
            target=run_worker,
            kwargs=dict(
                join=address, quiet=True,
                connect_timeout=120.0, handshake_timeout=120.0,
            ),
            daemon=True,
        )
        for _ in range(n)
    ]
    for p in procs:
        p.start()
    return procs


def _make_specs(jobs: int, records: int) -> List:
    """Mixed workload: alternate uncoded and coded (r=2) sorts."""
    specs = []
    for i in range(jobs):
        data = teragen(records, seed=100 + i)
        if i % 2:
            specs.append(
                CodedTeraSortSpec(data=data, redundancy=2, schedule=SCHEDULE)
            )
        else:
            specs.append(TeraSortSpec(data=data))
    return specs


def _partitions_bytes(run) -> List[bytes]:
    return [p.to_bytes() for p in run.partitions]


def _references(specs: List) -> List[List[bytes]]:
    refs = []
    with Session(connect(f"inproc://{JOB_WORKERS}", recv_timeout=120.0)) as session:
        for spec in specs:
            refs.append(
                _partitions_bytes(session.submit(spec).result(timeout=300))
            )
    return refs


def bench(jobs: int, records: int, rate_mbps: float) -> Dict:
    specs = _make_specs(jobs, records)
    refs = _references(specs)

    with connect(
        "tcp://127.0.0.1:0", size=NODES,
        rate_bytes_per_s=rate_mbps * 1e6 / 8.0,
        timeout=300, connect_timeout=120,
    ) as cluster:
        procs = _spawn_workers(cluster.address, NODES)
        try:
            with SortService(
                cluster, max_queue_depth=2 * jobs, shrink_to_fit=True,
            ) as service:
                service.start()
                client = ServiceClient(service.control_address)

                # Warm the mesh (imports, allocators) outside the clocks.
                client.submit(
                    TeraSortSpec(data=teragen(2_000, seed=99)),
                    workers=JOB_WORKERS,
                ).result(timeout=300)

                def tenant(i: int) -> str:
                    return "alice" if i % 2 else "bob"

                # Lane 1: FIFO — each job waits for the previous one, the
                # strict one-job-owns-the-pool session discipline.
                t0 = time.perf_counter()
                fifo_runs = [
                    client.submit(
                        spec, tenant=tenant(i), workers=JOB_WORKERS
                    ).result(timeout=300)
                    for i, spec in enumerate(specs)
                ]
                fifo_s = time.perf_counter() - t0

                # Lane 2: concurrent — submit everything, let the
                # scheduler pack disjoint subsets onto the mesh.
                t0 = time.perf_counter()
                handles = [
                    client.submit(
                        spec, tenant=tenant(i), workers=JOB_WORKERS
                    )
                    for i, spec in enumerate(specs)
                ]
                conc_runs = [h.result(timeout=300) for h in handles]
                conc_s = time.perf_counter() - t0

                stats = client.stats()

                # Lane 3: elasticity — SIGKILL 2 workers under two
                # in-flight jobs, rejoin replacements, and push a
                # 6-worker coded job through the membership change.
                data_kill = [
                    teragen(records, seed=200 + i) for i in range(2)
                ]
                inflight_specs = [
                    TeraSortSpec(data=data_kill[0]),
                    CodedTeraSortSpec(
                        data=data_kill[1], redundancy=2, schedule=SCHEDULE
                    ),
                ]
                wide_data = teragen(records, seed=210)
                wide_spec = CodedTeraSortSpec(
                    data=wide_data, redundancy=2, schedule=SCHEDULE
                )

                recovery = {}

                def watch_recovery(t_kill):
                    deadline = time.monotonic() + 300
                    while time.monotonic() < deadline:
                        if client.stats().workers_live == NODES:
                            recovery["s"] = time.monotonic() - t_kill
                            return
                        time.sleep(0.2)

                t0 = time.perf_counter()
                inflight = [
                    client.submit(s, tenant="elastic", workers=JOB_WORKERS)
                    for s in inflight_specs
                ]
                for p in procs[:2]:
                    os.kill(p.pid, signal.SIGKILL)
                watcher = threading.Thread(
                    target=watch_recovery, args=(time.monotonic(),),
                    daemon=True,
                )
                watcher.start()
                wide = client.submit(wide_spec, tenant="elastic", workers=6)
                procs += _spawn_workers(cluster.address, 2)
                inflight_runs = [h.result(timeout=300) for h in inflight]
                wide_run = wide.result(timeout=300)
                elastic_s = time.perf_counter() - t0
                watcher.join(timeout=300)
                stats_elastic = client.stats()
                if stats_elastic.workers_joined != 2:
                    raise RuntimeError(
                        f"expected 2 rejoins, got "
                        f"{stats_elastic.workers_joined}"
                    )
                wide_k = wide.replanned_k or 6
                # A retried in-flight job may itself have been
                # shrink-re-planned; verify at its actual width.
                inflight_k = [
                    h.replanned_k or JOB_WORKERS for h in inflight
                ]
        finally:
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():
                    p.terminate()
                    p.join()

    for lane, runs in (("fifo", fifo_runs), ("concurrent", conc_runs)):
        for i, run in enumerate(runs):
            if _partitions_bytes(run) != refs[i]:
                rk = handles[i].replanned_k if lane == "concurrent" else None
                raise RuntimeError(
                    f"{lane} lane job {i} diverged from its solo reference"
                    f" (parts={len(run.partitions)} ref={len(refs[i])}"
                    f" replanned_k={rk})"
                )
    # Elastic lane byte identity, at the width each job actually ran.
    for (run, spec, k) in [
        (inflight_runs[0], inflight_specs[0], inflight_k[0]),
        (inflight_runs[1], inflight_specs[1], inflight_k[1]),
        (wide_run, wide_spec, wide_k),
    ]:
        with Session(connect(f"inproc://{k}", recv_timeout=120.0)) as s:
            ref = _partitions_bytes(s.submit(spec).result(timeout=300))
        if _partitions_bytes(run) != ref:
            raise RuntimeError(
                f"elastic lane {type(spec).__name__}@{k} diverged from "
                "its solo reference"
            )

    return {
        "nodes": NODES,
        "job_workers": JOB_WORKERS,
        "jobs": jobs,
        "records": records,
        "rate_mbps": rate_mbps,
        "fifo": {
            "makespan_s": fifo_s,
            "jobs_per_s": jobs / fifo_s,
        },
        "concurrent": {
            "makespan_s": conc_s,
            "jobs_per_s": jobs / conc_s,
        },
        "speedup": fifo_s / conc_s,
        "elastic": {
            "makespan_s": elastic_s,
            "jobs_per_s": 3 / elastic_s,
            "recovery_s": recovery.get("s"),
            "replanned_k": wide.replanned_k,
            "workers_joined": stats_elastic.workers_joined,
            "workers_live": stats_elastic.workers_live,
        },
        "jobs_done": stats.jobs_done,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small payloads for CI smoke (seconds, not minutes)",
    )
    parser.add_argument("--jobs", type=int, default=6,
                        help="jobs per lane (default 6)")
    parser.add_argument("--records", type=int, default=None,
                        help="records per job (100 B each)")
    parser.add_argument("--rate-mbps", type=float, default=None,
                        help="per-worker mesh pacing in Mbit/s")
    parser.add_argument("--out", type=pathlib.Path,
                        default=RESULTS_DIR / "service.json")
    args = parser.parse_args(argv)

    # Pace hard enough that the shuffle (what the subsets partition)
    # dominates per-job wall time; otherwise dispatch overhead hides
    # the concurrency win at smoke sizes.
    records = args.records or (30_000 if args.quick else 100_000)
    rate_mbps = args.rate_mbps or 8.0

    report = bench(args.jobs, records, rate_mbps)
    report["quick"] = bool(args.quick)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True))

    print(f"sort service: {args.jobs} x {records}-record jobs "
          f"({JOB_WORKERS} workers each) on a paced K={NODES} mesh")
    print(f"  fifo       makespan {report['fifo']['makespan_s']:6.2f}s"
          f"   {report['fifo']['jobs_per_s']:5.2f} jobs/s")
    print(f"  concurrent makespan {report['concurrent']['makespan_s']:6.2f}s"
          f"   {report['concurrent']['jobs_per_s']:5.2f} jobs/s")
    print(f"  -> {report['speedup']:.2f}x (all outputs byte-identical "
          f"to solo runs)")
    el = report["elastic"]
    rec = el["recovery_s"]
    print(f"  elastic    makespan {el['makespan_s']:6.2f}s"
          f"   {el['jobs_per_s']:5.2f} jobs/s  "
          f"(SIGKILL 2 + rejoin"
          + (f"; live in {rec:.2f}s" if rec is not None else "")
          + (f"; 6-wide re-planned to K'={el['replanned_k']}"
             if el["replanned_k"] else "; 6-wide ran full width")
          + ")")
    print(f"[results] wrote {args.out}")
    if report["speedup"] < 1.3:
        print("WARNING: concurrent-subset speedup below the 1.3x "
              "acceptance bar", file=sys.stderr)
        # Full runs gate on the acceptance bar; --quick (the CI smoke)
        # only warns — check_regression.py gates CI against the committed
        # baseline instead.
        if not args.quick:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
