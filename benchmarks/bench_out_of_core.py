"""Out-of-core sort: N bytes sorted under an N/8 memory budget.

Proves the bounded-memory data plane end to end: a CodedTeraSort of a
dataset **8x the per-worker memory budget** completes on both shuffle
schedules on the process backend and over a real localhost TCP mesh
(``repro worker`` subprocesses), with

* output **byte-identical** to the in-memory path (streamed part files
  compared record-for-record against resident reference partitions),
* peak per-worker record-buffer residency **within the budget** (the
  :class:`~repro.utils.residency.ResidencyMeter` readout shipped home in
  ``SortRun.meta``), and
* the control plane carrying only ``FileSource`` descriptors — the
  per-rank job payload pickles are asserted to be descriptor-sized.

The input lives on disk (``repro gen`` format, written once per run);
workers mmap their own ranges.  Reported throughput is end-to-end sort
MB/s per lane plus ``efficiency`` = out-of-core MB/s / in-memory MB/s (a
machine-portable ratio: both lanes run on the same box back to back).

Usage::

    PYTHONPATH=src python benchmarks/bench_out_of_core.py --quick \
        [--out results/out_of_core.json]

``--quick`` is the CI smoke: 64 MiB sorted under an 8 MiB budget.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.kvpairs.datasource import FileSource  # noqa: E402
from repro.kvpairs.records import RECORD_BYTES, RecordBatch  # noqa: E402
from repro.kvpairs.teragen import teragen_to_file  # noqa: E402
from repro.kvpairs.validation import validate_sorted_iter  # noqa: E402
from repro.cluster import connect  # noqa: E402
from repro.session import CodedTeraSortSpec, Session  # noqa: E402

RESULTS_DIR = REPO / "results"


def _assert_identical(reference: List[RecordBatch], partitions) -> None:
    """Stream-compare FileSource part files against resident partitions."""
    for rank, (ref, part) in enumerate(zip(reference, partitions)):
        pos = 0
        for batch in part.iter_batches():
            stop = pos + len(batch)
            if not np.array_equal(batch.array, ref.array[pos:stop]):
                raise RuntimeError(
                    f"rank {rank}: bytes [{pos * RECORD_BYTES}, "
                    f"{stop * RECORD_BYTES}) diverged from in-memory path"
                )
            pos = stop
        if pos != len(ref):
            raise RuntimeError(
                f"rank {rank}: {pos} records, in-memory path has {len(ref)}"
            )


def _run_lane(session, spec, budget: int, reference, nbytes: int) -> Dict:
    t0 = time.perf_counter()
    run = session.run(spec)
    seconds = time.perf_counter() - t0
    peak = run.meta["oc_peak_resident_bytes"]
    if not 0 < peak <= budget:
        raise RuntimeError(
            f"peak resident {peak} outside (0, budget {budget}]"
        )
    if run.meta["oc_spilled_bytes"] <= 0:
        raise RuntimeError("out-of-core lane never spilled")
    _assert_identical(reference, run.partitions)
    n_out = validate_sorted_iter(
        b for p in run.partitions for b in p.iter_batches()
    )
    if n_out * RECORD_BYTES != nbytes:
        raise RuntimeError(f"output holds {n_out * RECORD_BYTES} bytes")
    return {
        "seconds": seconds,
        "mbps": nbytes / 1e6 / seconds,
        "peak_resident_bytes": peak,
        "spilled_bytes": run.meta["oc_spilled_bytes"],
        "spill_runs": run.meta["oc_spill_runs"],
    }


def _check_descriptor_payloads(spec, nodes: int) -> int:
    """The control-plane criterion: per-rank payloads are descriptors."""
    prepared = spec.prepare(nodes)
    largest = max(len(pickle.dumps(p)) for p in prepared.payloads)
    if largest > 16_384:
        raise RuntimeError(
            f"control-plane payload is {largest} bytes — record payloads "
            "leaked into the descriptor path"
        )
    return largest


def bench(nodes: int, redundancy: int, records: int, timeout: float) -> Dict:
    workdir = tempfile.mkdtemp(prefix="bench-ooc-")
    try:
        return _bench(workdir, nodes, redundancy, records, timeout)
    finally:
        # Input + up to four sorted copies add up to hundreds of MiB;
        # remove them on failure paths too.
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(
    workdir: str, nodes: int, redundancy: int, records: int, timeout: float
) -> Dict:
    nbytes = records * RECORD_BYTES
    budget = nbytes // 8
    data_path = os.path.join(workdir, "input.bin")
    print(f"[gen] {records} records ({nbytes / 2**20:.0f} MiB) -> "
          f"{data_path}; budget {budget / 2**20:.1f} MiB/worker", flush=True)
    teragen_to_file(data_path, records, seed=17)
    source = FileSource(data_path)

    def spec(schedule: str, output: str) -> CodedTeraSortSpec:
        return CodedTeraSortSpec(
            input=source,
            redundancy=redundancy,
            schedule=schedule,
            memory_budget=budget,
            output_dir=os.path.join(workdir, output),
        )

    payload_bytes = _check_descriptor_payloads(
        CodedTeraSortSpec(input=source, redundancy=redundancy), nodes
    )

    results: Dict = {
        "records": records,
        "bytes": nbytes,
        "memory_budget": budget,
        "nodes": nodes,
        "redundancy": redundancy,
        "max_payload_bytes": payload_bytes,
    }

    # In-memory reference lane (same descriptor input, no budget).
    with Session(connect(f"proc://{nodes}", timeout=timeout)) as session:
        t0 = time.perf_counter()
        # Serial by name: the committed baseline's in-memory lane (the
        # denominator of ``efficiency``) was taken on the Fig. 9(b) walk.
        ref_run = session.run(
            CodedTeraSortSpec(
                input=source, redundancy=redundancy, schedule="serial"
            )
        )
        inmem_s = time.perf_counter() - t0
        reference = list(ref_run.partitions)
        results["process"] = {
            "inmem_seconds": inmem_s,
            "inmem_mbps": nbytes / 1e6 / inmem_s,
        }
        for schedule in ("serial", "parallel"):
            lane = _run_lane(
                session,
                spec(schedule, f"out-proc-{schedule}"),
                budget,
                reference,
                nbytes,
            )
            lane["efficiency"] = lane["mbps"] / results["process"]["inmem_mbps"]
            results["process"][schedule] = lane
            print(f"[process/{schedule}] {lane['mbps']:.1f} MB/s "
                  f"(in-mem {results['process']['inmem_mbps']:.1f}), peak "
                  f"{lane['peak_resident_bytes']} <= {budget}, spilled "
                  f"{lane['spilled_bytes'] / 2**20:.0f} MiB", flush=True)

    # Real TCP mesh lane: K `repro worker` subprocesses on localhost.
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    results["tcp"] = {}
    with connect(
        "tcp://127.0.0.1:0", size=nodes, timeout=timeout, connect_timeout=120
    ) as cluster:
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--join", cluster.address, "--connect-timeout", "120",
                 "--quiet"],
                env=env,
            )
            for _ in range(nodes)
        ]
        try:
            with Session(cluster) as session:
                for schedule in ("serial", "parallel"):
                    lane = _run_lane(
                        session,
                        spec(schedule, f"out-tcp-{schedule}"),
                        budget,
                        reference,
                        nbytes,
                    )
                    lane["efficiency"] = (
                        lane["mbps"] / results["process"]["inmem_mbps"]
                    )
                    results["tcp"][schedule] = lane
                    print(f"[tcp/{schedule}] {lane['mbps']:.1f} MB/s, peak "
                          f"{lane['peak_resident_bytes']} <= {budget}",
                          flush=True)
        finally:
            rcs = []
            for proc in workers:
                try:
                    rcs.append(proc.wait(timeout=60))
                except subprocess.TimeoutExpired:  # pragma: no cover
                    proc.kill()
                    rcs.append("killed")
    if rcs != [0] * nodes:
        raise RuntimeError(f"tcp workers exited {rcs}")
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", "-K", type=int, default=4)
    parser.add_argument("--redundancy", "-r", type=int, default=2)
    parser.add_argument("--records", "-n", type=int, default=1_342_177,
                        help="dataset size (default ~128 MiB)")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 64 MiB under an 8 MiB budget")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the results JSON here")
    args = parser.parse_args(argv)
    records = 671_089 if args.quick else args.records  # 64 MiB quick

    results = bench(args.nodes, args.redundancy, records, args.timeout)
    print(json.dumps(
        {k: v for k, v in results.items() if not isinstance(v, dict)},
        indent=2,
    ))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    print(f"PASS: {results['bytes'] / 2**20:.0f} MiB sorted under a "
          f"{results['memory_budget'] / 2**20:.1f} MiB budget, "
          f"byte-identical on process+tcp, both schedules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
