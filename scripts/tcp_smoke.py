"""Distributed smoke test: 6 real `repro worker` agents over localhost TCP.

What CI's ``tcp-smoke`` job runs.  Launches 6 worker subprocesses through
the real CLI entry point (``python -m repro worker --join ...``), runs
an uncoded, a coded and a group-coded TeraSort through one ``Session``
over ``tcp://127.0.0.1`` (the coded ones on the pipelined parallel
schedule, so the non-blocking engine crosses real TCP too; the grouped
one with ``group_size`` the smallest divisor g of K with r < g < K, so
the per-group plan does as well, and skipped when K has none), and
asserts the outputs are byte-identical with the in-process thread
backend.  Workers must then exit 0 on session close — a worker that
lingers or dies mid-run fails the smoke.

One more coded job runs out of core: its input is the on-disk
``FileSource`` every job sorts, its ``memory_budget`` an eighth of that
input, and its partitions stream to part files under ``output_dir``.
The smoke asserts each worker's peak record residency stayed within the
budget, that the job spilled, and that the part files hold the
in-process reference's bytes.  And one Coded MapReduce job runs on the
same agents: a coded WordCount under ``MIN_MEMORY_BUDGET``, whose outputs
must equal the in-process run's and whose sealed values must spill.

Usage::

    PYTHONPATH=src python scripts/tcp_smoke.py [--nodes 6] [--records 20000]

``--records 400000`` at six nodes makes every uncoded message about
1.1 MB, so large single frames cross the real sockets too.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import connect  # noqa: E402
from repro.core.jobs import WordCountJob  # noqa: E402
from repro.core.outofcore import MIN_MEMORY_BUDGET  # noqa: E402
from repro.kvpairs.datasource import FileSource  # noqa: E402
from repro.kvpairs.teragen import teragen_to_file  # noqa: E402
from repro.kvpairs.validation import validate_sorted_permutation  # noqa: E402
from repro.session import (  # noqa: E402
    CodedTeraSortSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)
from repro.utils.subsets import binomial  # noqa: E402


def _partitions(run):
    """A run's partitions as record batches (part files read back)."""
    return [
        p.load() if isinstance(p, FileSource) else p for p in run.partitions
    ]


def _bytes(parts):
    return [p.to_bytes() for p in parts]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", "-K", type=int, default=6)
    parser.add_argument("--redundancy", "-r", type=int, default=2)
    parser.add_argument("--records", "-n", type=int, default=20_000)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="tcp-smoke-") as workdir:
        return _smoke(args, workdir)


def _smoke(args, workdir: str) -> int:
    k, r = args.nodes, args.redundancy
    g = next((d for d in range(r + 1, k) if k % d == 0), None)
    if g is None:
        print(f"[smoke] K = {k} has no divisor g with r = {r} < g < K: "
              f"skipping the grouped job", flush=True)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    path = os.path.join(workdir, "input.bin")
    budget = max(
        MIN_MEMORY_BUDGET, teragen_to_file(path, args.records, seed=31) // 8
    )
    source = FileSource(path)
    data = source.load()
    # Distinct words: each file's value for one reducer is a few KB, so
    # the budgeted WordCount's sealed values cannot all stay resident.
    wordcount = MapReduceSpec(
        job=WordCountJob(),
        files=[
            " ".join(f"f{i}w{j}" for j in range(2000))
            for i in range(binomial(k, r))
        ],
        redundancy=r,
        scheme="coded",
        memory_budget=MIN_MEMORY_BUDGET,
    )

    with connect(
        "tcp://127.0.0.1:0", size=k, timeout=180, connect_timeout=120,
    ) as cluster:
        print(f"[smoke] rendezvous on {cluster.address}; launching {k} "
              f"`repro worker` subprocesses", flush=True)
        workers = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker",
                    "--join", cluster.address,
                    "--connect-timeout", "120",
                ],
                env=env,
            )
            for _ in range(k)
        ]
        try:
            with Session(cluster) as session:
                uncoded = session.submit(TeraSortSpec(data=data))
                coded = session.submit(
                    CodedTeraSortSpec(data=data, redundancy=r)
                )
                # The paper's Fig. 9(b) turn walk is no longer what a job
                # gets by default: keep it running over real sockets.
                serial = session.submit(
                    CodedTeraSortSpec(
                        data=data, redundancy=r, schedule="serial"
                    )
                )
                grouped = None if g is None else session.submit(
                    CodedTeraSortSpec(data=data, redundancy=r, group_size=g)
                )
                out_of_core = session.submit(
                    CodedTeraSortSpec(
                        input=source,
                        redundancy=r,
                        memory_budget=budget,
                        output_dir=os.path.join(workdir, "out"),
                    )
                )
                wc = session.submit(wordcount)
                tcp_uncoded, tcp_coded = uncoded.result(), coded.result()
                tcp_serial = serial.result()
                tcp_grouped = None if g is None else grouped.result()
                tcp_ooc, tcp_wc = out_of_core.result(), wc.result()
        finally:
            rcs = []
            for proc in workers:
                try:
                    rcs.append(proc.wait(timeout=60))
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    rcs.append("killed")

    print(f"[smoke] worker exit codes: {rcs}", flush=True)
    if rcs != [0] * k:
        print("[smoke] FAIL: workers did not all exit cleanly")
        return 1

    with Session(connect(f"inproc://{k}", timeout=120)) as session:
        ref_uncoded = session.submit(TeraSortSpec(data=data)).result()
        ref_coded = session.submit(
            CodedTeraSortSpec(data=data, redundancy=r)
        ).result()
        ref_wc = session.submit(wordcount).result()

    checks = [
        ("TeraSort", tcp_uncoded, ref_uncoded),
        ("CodedTeraSort", tcp_coded, ref_coded),
        ("CodedTeraSort serial", tcp_serial, ref_coded),
        ("CodedTeraSort out-of-core", tcp_ooc, ref_coded),
    ]
    if g is not None:
        # Every sort of one input is the same bytes: the grouped job is
        # held against the uncoded reference.
        checks.append((f"CodedTeraSort g={g}", tcp_grouped, ref_uncoded))
    for label, run, ref in checks:
        parts = _partitions(run)
        validate_sorted_permutation(data, parts)
        if _bytes(parts) != _bytes(ref.partitions):
            print(f"[smoke] FAIL: {label} over TCP diverged from inproc")
            return 1
        shuffle = run.traffic.load_bytes("shuffle")
        print(f"[smoke] {label}: byte-identical with inproc "
              f"({run.total_records} records, shuffle {shuffle} B)",
              flush=True)

    peak = tcp_ooc.meta["oc_peak_resident_bytes"]
    spilled = tcp_ooc.meta["oc_spilled_bytes"]
    if not 0 < peak <= budget or spilled <= 0:
        print(f"[smoke] FAIL: out-of-core peak {peak} B outside "
              f"(0, budget {budget} B] or nothing spilled ({spilled} B)")
        return 1
    print(f"[smoke] out-of-core: peak {peak} B <= budget {budget} B, "
          f"spilled {spilled} B", flush=True)

    wc_spilled = tcp_wc.meta["oc_spilled_bytes"]
    if tcp_wc.outputs != ref_wc.outputs or wc_spilled <= 0:
        print(f"[smoke] FAIL: budgeted coded WordCount diverged from inproc "
              f"or spilled nothing ({wc_spilled} B)")
        return 1
    print(f"[smoke] WordCount (coded, budget {MIN_MEMORY_BUDGET} B): outputs "
          f"identical with inproc, spilled {wc_spilled} B", flush=True)

    gain = (
        ref_uncoded.traffic.load_bytes("shuffle")
        / max(1, tcp_coded.traffic.load_bytes("shuffle"))
    )
    print(f"[smoke] PASS — coded shuffle moved {gain:.2f}x fewer bytes "
          f"at r={r} on a real {k}-worker TCP mesh")
    return 0


if __name__ == "__main__":
    sys.exit(main())
