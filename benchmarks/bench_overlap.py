"""Streaming-overlap benchmark: hide shuffle communication behind compute.

The live acceptance lane for the ``overlap=True`` execution mode.  On a
paced process mesh (per-worker egress throttled to the paper's 100 Mbps
NIC class, so communication is genuinely expensive relative to compute)
the same sort runs staged and overlapped:

* **uncoded** — the serial unicast shuffle (one sender's turn at a time)
  vs the streaming engine that ships every map window's chunks the
  moment the window completes and merges arrivals incrementally.  The
  acceptance bar is a **>= 1.3x makespan speedup**.
* **coded** — the Fig. 9(b) serial multicast schedule vs the
  map-progress-aware overlapped multicast engine (reported, no bar).

Every lane's output is asserted byte-identical to the staged reference
*before* anything is timed — an overlap mode that changed one byte would
fail here, not in the timing table.  The measured uncoded overlap
makespan is additionally compared with
:meth:`~repro.sim.costmodel.EC2CostModel.overlapped_makespan` (compute
from the staged lane's stage table, communication = staged shuffle
seconds / K): the prediction ratio is **reported, not gated** — the
model's error is a row to read, and a host-dependent one (0.53-0.55x on
the CI-class VM), so gating on it hid real regressions behind a
standing failure.

Results land in a JSON gated by ``check_regression.py --kind overlap``.

Usage::

    PYTHONPATH=src python benchmarks/bench_overlap.py --quick \
        [--out results/overlap.json]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile
import time
from typing import Dict, List, Tuple

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.cluster import connect  # noqa: E402
from repro.core.terasort import SPEC_WINDOWS_PER_SHARD  # noqa: E402
from repro.kvpairs.datasource import FileSource  # noqa: E402
from repro.kvpairs.teragen import teragen_to_file  # noqa: E402
from repro.session import (  # noqa: E402
    CodedTeraSortSpec,
    Session,
    TeraSortSpec,
)
from repro.sim.costmodel import EC2CostModel  # noqa: E402

#: The paper's NIC class: 100 Mbps per-worker egress.
RATE_BYTES_PER_S = 12_500_000


def _bytes(run) -> List[bytes]:
    return [p.to_bytes() for p in run.partitions]


def _timed(session: Session, spec, timeout: float) -> Tuple[object, float]:
    t0 = time.perf_counter()
    run = session.submit(spec).result(timeout=timeout)
    return run, time.perf_counter() - t0


def _lane(
    session: Session,
    staged_spec,
    overlap_spec,
    reps: int,
    timeout: float,
) -> Dict:
    """Time one staged-vs-overlap pair; byte-identity gates the timing."""
    staged_run, _ = _timed(session, staged_spec, timeout)
    overlap_run, _ = _timed(session, overlap_spec, timeout)
    if _bytes(overlap_run) != _bytes(staged_run):
        raise SystemExit(
            "overlap output diverged from the staged schedule — "
            "refusing to time a broken mode"
        )
    staged_wall, overlap_wall = [], []
    staged_stages, overlap_stages = staged_run, overlap_run
    for _ in range(reps):
        staged_stages, s = _timed(session, staged_spec, timeout)
        overlap_stages, o = _timed(session, overlap_spec, timeout)
        staged_wall.append(s)
        overlap_wall.append(o)
    staged_span = staged_stages.stage_times.total
    overlap_span = overlap_stages.stage_times.total
    return {
        "staged_seconds": min(staged_wall),
        "overlap_seconds": min(overlap_wall),
        "speedup": min(staged_wall) / min(overlap_wall),
        "staged_stage_seconds": staged_span,
        "overlap_stage_seconds": overlap_span,
        "stage_speedup": staged_span / overlap_span,
        "hidden_seconds": overlap_stages.meta["overlap"]["hidden_seconds"],
        "staged_stage_times": dict(staged_stages.stage_times.seconds),
        "overlap_stage_times": dict(overlap_stages.stage_times.seconds),
    }


def live_bench(nodes: int, records: int, reps: int, timeout: float) -> Dict:
    results: Dict = {
        "nodes": nodes,
        "records": records,
        "rate_mbps": RATE_BYTES_PER_S * 8 / 1e6,
    }
    with tempfile.TemporaryDirectory(prefix="bench-overlap-") as tmp:
        # Pre-generate the input file so neither lane pays teragen inside
        # a timed stage (the paper's TeraSort reads its shard from disk).
        path = str(pathlib.Path(tmp) / "input.bin")
        teragen_to_file(path, records, seed=83)
        source = FileSource(path)
        with Session(
            connect(
                f"proc://{nodes}",
                timeout=timeout,
                rate_bytes_per_s=RATE_BYTES_PER_S,
            )
        ) as session:
            # Warm the pool (fork + imports) before anything is timed.
            session.submit(TeraSortSpec(input=source)).result(timeout=timeout)

            results["uncoded"] = _lane(
                session,
                TeraSortSpec(input=source),
                TeraSortSpec(input=source, overlap=True),
                reps,
                timeout,
            )
            results["coded"] = _lane(
                session,
                CodedTeraSortSpec(
                    input=source, redundancy=1, schedule="serial"
                ),
                CodedTeraSortSpec(
                    input=source,
                    redundancy=1,
                    schedule="serial",
                    overlap=True,
                ),
                reps,
                timeout,
            )

    # Cost-model cross-check against the overlapped-makespan law
    # ``max(compute, comm) + min/windows``: compute is the overlap
    # lane's own non-shuffle stage seconds (the map + merge work the
    # engine interleaves), comm the staged serial shuffle compressed by
    # the K concurrent senders.  Reported as a ratio, not gated.
    lane = results["uncoded"]
    shuffle = lane["staged_stage_times"].get("shuffle", 0.0)
    compute = sum(
        seconds
        for stage, seconds in lane["overlap_stage_times"].items()
        if stage != "shuffle"
    )
    model = EC2CostModel.paper_calibrated()
    predicted = model.overlapped_makespan(
        compute, shuffle / nodes, windows=SPEC_WINDOWS_PER_SHARD
    )
    measured = lane["overlap_stage_seconds"]
    lane["predicted_overlap_seconds"] = predicted
    lane["prediction_ratio"] = predicted / measured if measured else 0.0
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="streaming overlap: staged vs overlapped makespan "
        "on a 100 Mbps-paced process mesh"
    )
    parser.add_argument("--nodes", "-K", type=int, default=4)
    parser.add_argument("--records", "-n", type=int, default=80_000)
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 320k records, 2 reps")
    parser.add_argument("--timeout", type=float, default=300.0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the results JSON here")
    args = parser.parse_args(argv)
    # The per-worker egress must comfortably exceed the token bucket's
    # burst allowance (rate/10 = 1.25 MB) or nothing actually paces and
    # there is no communication to hide; 320k records = 6 MB egress per
    # worker at K=4.
    records = 320_000 if args.quick else args.records
    reps = 2 if args.quick else args.reps

    results = live_bench(args.nodes, records, reps, args.timeout)
    unc, cod = results["uncoded"], results["coded"]
    print(
        f"[uncoded] staged {unc['staged_seconds']:.2f}s vs overlap "
        f"{unc['overlap_seconds']:.2f}s — {unc['speedup']:.2f}x "
        f"(hidden {unc['hidden_seconds']:.2f}s)", flush=True,
    )
    print(
        f"[coded]   staged {cod['staged_seconds']:.2f}s vs overlap "
        f"{cod['overlap_seconds']:.2f}s — {cod['speedup']:.2f}x",
        flush=True,
    )
    print(
        f"[model]   predicted overlap {unc['predicted_overlap_seconds']:.2f}s "
        f"vs measured {unc['overlap_stage_seconds']:.2f}s "
        f"({unc['prediction_ratio']:.2f}x)", flush=True,
    )

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.out}")

    if unc["speedup"] < 1.3:
        print(
            f"FAIL: uncoded overlap speedup {unc['speedup']:.2f}x is below "
            f"the 1.3x acceptance bar", file=sys.stderr,
        )
        return 1
    print(
        f"PASS: overlap hid {unc['hidden_seconds']:.2f}s of communication "
        f"({unc['speedup']:.2f}x uncoded, {cod['speedup']:.2f}x coded), "
        f"byte-identical in every lane; model ratio "
        f"{unc['prediction_ratio']:.2f}x (reported, not gated)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
