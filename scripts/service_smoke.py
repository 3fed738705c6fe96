"""Service smoke test: a real `repro serve` daemon under concurrent load.

What CI's ``service-smoke`` job runs.  Launches the daemon through the
real CLI entry point (``python -m repro serve``), joins 6 ``repro
worker`` subprocesses to its rendezvous, then drives it with 3
concurrent client threads submitting overlapping coded and uncoded
sorts on 3-worker subsets.  Asserts:

* every job's output is byte-identical to the same spec on an
  in-process thread cluster;
* at least two jobs demonstrably ran at the same time on *disjoint*
  worker subsets of the one mesh;
* a worker outlives a failed job: a job whose every map raises (its
  input file does not exist) is reported ``failed``, kind ``error``,
  after 1 attempt, while ``workers_live``, ``membership_epoch`` and
  every worker process stay as they were, and the next job is again
  byte-identical to its in-process run;
* elasticity: SIGKILLing 2 of the 6 workers shrinks ``workers_live``,
  respawned replacements rejoin the standing mesh mid-service, and a
  post-regrowth job is again byte-identical to its in-process run;
* ``repro status --json`` round-trips sane per-tenant stats plus the
  membership counters (``workers_live`` back to 6 after regrowth);
* a ``shutdown`` request stops the daemon cleanly (exit 0) and every
  surviving worker drains to exit 0.

Usage::

    PYTHONPATH=src python scripts/service_smoke.py [--records 20000]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import connect  # noqa: E402
from repro.kvpairs.datasource import FileSource  # noqa: E402
from repro.kvpairs.teragen import teragen  # noqa: E402
from repro.kvpairs.validation import validate_sorted_permutation  # noqa: E402
from repro.service import ServiceClient  # noqa: E402
from repro.session import (  # noqa: E402
    CodedTeraSortSpec,
    Session,
    TeraSortSpec,
)

NODES = 6
JOB_WORKERS = 3
CLIENTS = 3


def _partitions_bytes(run):
    return [p.to_bytes() for p in run.partitions]


def _read_addresses(daemon) -> dict:
    """Parse the daemon's startup lines for its two addresses."""
    addrs = {}
    pattern = re.compile(r"\[serve\] (rendezvous|control) (tcp://\S+)")
    for line in daemon.stdout:
        print(f"[daemon] {line.rstrip()}", flush=True)
        match = pattern.search(line)
        if match:
            addrs[match.group(1)] = match.group(2)
        if len(addrs) == 2:
            return addrs
    raise RuntimeError("daemon exited before printing its addresses")


def _status_json(env, control, *extra) -> dict:
    """``repro status --json`` through the real CLI, parsed."""
    status = subprocess.run(
        [
            sys.executable, "-m", "repro", "status",
            "--connect", control, "--json", *extra,
        ],
        env=env, capture_output=True, text=True, timeout=60,
    )
    if status.returncode != 0:
        raise RuntimeError(
            f"repro status rc={status.returncode}: {status.stderr}"
        )
    return json.loads(status.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--records", "-n", type=int, default=20_000)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )

    specs = []
    for i in range(CLIENTS):
        data = teragen(args.records, seed=61 + i)
        spec = (
            CodedTeraSortSpec(data=data, redundancy=2)
            if i % 2
            else TeraSortSpec(data=data)
        )
        specs.append((data, spec))

    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--nodes", str(NODES),
            "--connect-timeout", "120",
            "--job-timeout", "300",
        ],
        env=env, stdout=subprocess.PIPE, text=True, bufsize=1,
    )
    workers = []
    killed = []
    try:
        addrs = _read_addresses(daemon)
        print(f"[smoke] daemon up; joining {NODES} `repro worker` "
              f"subprocesses", flush=True)
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--join", addrs["rendezvous"],
                    "--connect-timeout", "120",
                ],
                env=env,
            )
            for _ in range(NODES)
        ]

        client = ServiceClient(addrs["control"], connect_timeout=120.0)
        results = [None] * CLIENTS
        errors = []

        def submit_and_wait(i):
            try:
                handle = client.submit(
                    specs[i][1], tenant=f"tenant{i}", workers=JOB_WORKERS
                )
                results[i] = (handle.job_id, handle.result(timeout=300))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append((i, exc))

        threads = [
            threading.Thread(target=submit_and_wait, args=(i,))
            for i in range(CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        if errors:
            print(f"[smoke] FAIL: client errors: {errors}")
            return 1

        # Byte identity vs dedicated in-process runs.
        refs = []
        with Session(connect(f"inproc://{JOB_WORKERS}", timeout=120)) as s:
            for i, (data, spec) in enumerate(specs):
                _, run = results[i]
                validate_sorted_permutation(data, run.partitions)
                refs.append(
                    _partitions_bytes(s.submit(spec).result(timeout=300))
                )
                if _partitions_bytes(run) != refs[i]:
                    print(f"[smoke] FAIL: job {i} diverged from inproc")
                    return 1
        print(f"[smoke] {CLIENTS} concurrent jobs byte-identical with "
              f"inproc", flush=True)

        # Concurrency proof: some pair of jobs overlapped in time on
        # disjoint subsets (the mesh fits two 3-worker jobs at once).
        rows = {r["job_id"]: r for r in client.status()}
        overlapped = False
        job_rows = [rows[jid] for jid, _ in results]
        for i in range(len(job_rows)):
            for j in range(i + 1, len(job_rows)):
                a, b = job_rows[i], job_rows[j]
                overlap = min(a["finished_at"], b["finished_at"]) - max(
                    a["started_at"], b["started_at"]
                )
                disjoint = not (
                    set(a["workers_used"]) & set(b["workers_used"])
                )
                if overlap > 0 and disjoint:
                    overlapped = True
        if not overlapped:
            print("[smoke] FAIL: no two jobs overlapped on disjoint "
                  f"subsets: {job_rows}")
            return 1
        print("[smoke] concurrent occupancy of disjoint subsets confirmed",
              flush=True)

        # Program-error lane: every map of this job raises (the explicit
        # count keeps the driver from ever opening the missing file).
        # The job fails on its own; every worker outlives it.
        membership = client.stats().membership_epoch
        missing = pathlib.Path(tempfile.gettempdir()) / (
            f"repro-smoke-missing-{os.getpid()}.bin"
        )
        bad = client.submit(
            TeraSortSpec(input=FileSource(str(missing), 0, args.records)),
            tenant="broken", workers=JOB_WORKERS,
        )
        if bad.exception(timeout=300) is None:
            print("[smoke] FAIL: the job over a missing file succeeded")
            return 1
        doc = _status_json(env, addrs["control"], "--job", str(bad.job_id))
        row, stats = doc["jobs"][0], doc["stats"]
        outcome = (row["state"], row["error"] and row["error"][0],
                   row["attempts"])
        if outcome != ("failed", "error", 1):
            print(f"[smoke] FAIL: program error reported as {outcome}")
            return 1
        exited = [w.pid for w in workers if w.poll() is not None]
        if (
            stats["workers_live"] != NODES
            or stats["membership_epoch"] != membership
            or exited
        ):
            print(f"[smoke] FAIL: a failed job cost workers: {stats}, "
                  f"exited {exited}")
            return 1
        run = client.submit(
            specs[0][1], tenant="after-error", workers=JOB_WORKERS
        ).result(timeout=300)
        if _partitions_bytes(run) != refs[0]:
            print("[smoke] FAIL: the job after the error diverged from "
                  "inproc")
            return 1
        print(f"[smoke] program error failed job {bad.job_id} only; "
              f"{NODES} workers live at epoch {membership}, next job "
              "byte-identical with inproc", flush=True)

        # Elasticity lane: SIGKILL 2 workers, respawn replacements, and
        # prove the regrown mesh sorts byte-identically again.
        def wait_stats(predicate, what, timeout=60.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                stats = client.stats()
                if predicate(stats):
                    return stats
                time.sleep(0.2)
            raise RuntimeError(f"stats never reached {what}: {client.stats()}")

        killed, workers = workers[:2], workers[2:]
        for w in killed:
            w.send_signal(signal.SIGKILL)
        wait_stats(lambda s: s.workers_live == NODES - 2, "2 dead")
        print(f"[smoke] killed 2 workers; live={NODES - 2}", flush=True)

        workers += [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--join", addrs["rendezvous"],
                    "--connect-timeout", "120",
                ],
                env=env,
            )
            for _ in range(2)
        ]
        regrown = wait_stats(
            lambda s: s.workers_live == NODES, "regrowth", timeout=120.0
        )
        if regrown.workers_joined != 2:
            print(f"[smoke] FAIL: expected 2 rejoins, "
                  f"got {regrown.workers_joined}")
            return 1
        print(f"[smoke] mesh regrown to {NODES} "
              f"(epoch {regrown.membership_epoch})", flush=True)

        elastic_data = teragen(args.records, seed=67)
        # Serial by name: the concurrent coded job above rode the default
        # event loop, this one keeps the Fig. 9(b) walk on the daemon path.
        elastic_spec = CodedTeraSortSpec(
            data=elastic_data, redundancy=2, schedule="serial"
        )
        run = client.submit(
            elastic_spec, tenant="elastic", workers=JOB_WORKERS
        ).result(timeout=300)
        validate_sorted_permutation(elastic_data, run.partitions)
        with Session(connect(f"inproc://{JOB_WORKERS}", timeout=120)) as s:
            ref = s.submit(elastic_spec).result(timeout=300)
        if _partitions_bytes(run) != _partitions_bytes(ref):
            print("[smoke] FAIL: post-regrowth job diverged from inproc")
            return 1
        print("[smoke] post-regrowth job byte-identical with inproc",
              flush=True)

        # Stats via the CLI surface (`repro status --json`).
        doc = _status_json(env, addrs["control"])
        counts = (doc["stats"]["jobs_done"], doc["stats"]["jobs_failed"])
        if counts != (CLIENTS + 2, 1):
            print(f"[smoke] FAIL: stats report {counts} done/failed, "
                  f"expected {(CLIENTS + 2, 1)}")
            return 1
        if (
            doc["stats"]["workers_live"] != NODES
            or doc["stats"]["workers_joined"] != 2
        ):
            print(f"[smoke] FAIL: status --json missed the regrowth: "
                  f"{doc['stats']}")
            return 1
        print(f"[smoke] status --json: {doc['stats']['jobs_done']} done, "
              f"{len(doc['stats']['tenants'])} tenants, "
              f"{doc['stats']['workers_live']} live after regrowth",
              flush=True)

        client.shutdown()
        daemon_rc = daemon.wait(timeout=60)
        worker_rcs = [w.wait(timeout=60) for w in workers]
        print(f"[smoke] daemon rc={daemon_rc}, worker rcs={worker_rcs}",
              flush=True)
        if daemon_rc != 0 or worker_rcs != [0] * NODES:
            print("[smoke] FAIL: unclean shutdown")
            return 1
        print("[smoke] PASS — multi-tenant service served "
              f"{CLIENTS} concurrent clients on one {NODES}-worker mesh, "
              "survived losing 2 workers, and regrew to full strength")
        return 0
    finally:
        for proc in [daemon] + workers + killed:
            if proc.poll() is None:
                proc.kill()


if __name__ == "__main__":
    sys.exit(main())
