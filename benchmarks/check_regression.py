"""Bench-regression gate: compare bench JSON against committed baselines.

What CI runs after the ``bench_* --quick`` smokes (``bench_datapath``,
``bench_overlap``, ...): each throughput metric in the fresh JSON
is compared against the committed baseline in ``results/``, and the job
**fails if any metric regressed by more than the threshold** (default
30%, the acceptance bar).  Improvements and noise above the floor pass
silently; ratio metrics (zero-copy speedup, overlap speedup) are
machine-portable, absolute metrics (GB/s, jobs/s) gate against the
machine class that wrote the baseline.  The pool / session layer is not
gated here: the perf ledger's ``small-jobs`` workload
(``benchmarks/ledger/run.py``) is its one perf surface.

Usage::

    python benchmarks/check_regression.py --kind datapath --current datapath.json
    python benchmarks/check_regression.py --kind overlap \
        --current overlap.json --threshold 0.30

Refreshing baselines (after an intentional perf change, or to re-anchor
to a new runner class)::

    PYTHONPATH=src python benchmarks/bench_datapath.py --quick --out /tmp/d.json
    python benchmarks/check_regression.py --kind datapath \
        --current /tmp/d.json --write-baseline
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Dict, List, Tuple

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Gated metrics per bench kind: (dotted JSON path, description).  All are
#: higher-is-better throughputs or speedup ratios.
MANIFEST: Dict[str, List[Tuple[str, str]]] = {
    "datapath": [
        ("roundtrip.zerocopy.gbps", "pack->send->recv->unpack throughput"),
        ("roundtrip.speedup", "zero-copy speedup over copy semantics"),
        ("coded.zerocopy.decoded_gbps", "encode->multicast->decode throughput"),
    ],
    "out_of_core": [
        ("process.parallel.mbps",
         "out-of-core coded sort throughput (process backend)"),
        ("process.serial.efficiency",
         "out-of-core vs in-memory throughput ratio (serial vs serial)"),
        ("tcp.parallel.mbps",
         "out-of-core coded sort throughput (real TCP mesh)"),
    ],
    "stragglers": [
        ("live.x5.speedup",
         "speculation speedup under a 5x map straggler (on vs off)"),
    ],
    "service": [
        ("speedup",
         "concurrent-subset speedup over serialized FIFO makespan"),
        ("concurrent.jobs_per_s",
         "service throughput with per-job worker subsets"),
        ("elastic.jobs_per_s",
         "elastic-lane throughput (SIGKILL 2 mid-service, rejoin, "
         "6-wide job through the membership change)"),
    ],
    "overlap": [
        ("uncoded.speedup",
         "streaming-overlap speedup over the staged uncoded sort "
         "(100 Mbps-paced mesh)"),
        ("coded.speedup",
         "streaming-overlap speedup over the staged coded sort"),
    ],
}


def _lookup(doc: dict, dotted: str) -> float:
    node = doc
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise KeyError(f"metric {dotted!r} missing (at {part!r})")
        node = node[part]
    return float(node)


def baseline_path(kind: str) -> pathlib.Path:
    return RESULTS_DIR / f"baseline_{kind}_quick.json"


def check(
    kind: str, current: dict, baseline: dict, threshold: float
) -> List[str]:
    """Returns failure lines (empty = gate passes); prints the table."""
    failures: List[str] = []
    print(f"bench-regression gate [{kind}] — fail below "
          f"{(1 - threshold) * 100:.0f}% of baseline")
    print(f"{'metric':44s} {'baseline':>12s} {'current':>12s} {'ratio':>7s}")
    for dotted, desc in MANIFEST[kind]:
        base = _lookup(baseline, dotted)
        cur = _lookup(current, dotted)
        ratio = cur / base if base else float("inf")
        verdict = "ok" if ratio >= 1.0 - threshold else "REGRESSED"
        print(f"{dotted:44s} {base:12.3f} {cur:12.3f} {ratio:6.2f}x  {verdict}")
        if verdict != "ok":
            failures.append(
                f"{dotted} ({desc}): {cur:.3f} vs baseline {base:.3f} "
                f"({ratio:.2f}x, floor {1 - threshold:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--kind", required=True, choices=sorted(MANIFEST))
    parser.add_argument("--current", required=True, type=pathlib.Path,
                        help="fresh bench JSON (from a --quick run)")
    parser.add_argument("--baseline", type=pathlib.Path, default=None,
                        help="baseline JSON (default: "
                             "results/baseline_<kind>_quick.json)")
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get("BENCH_REGRESSION_THRESHOLD", "0.30")),
        help="max tolerated fractional regression (default 0.30, i.e. "
             "fail on >30%%; env: BENCH_REGRESSION_THRESHOLD)")
    parser.add_argument("--write-baseline", action="store_true",
                        help="instead of gating, store --current as the "
                             "committed baseline for --kind")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text())
    base_path = args.baseline or baseline_path(args.kind)
    if args.write_baseline:
        base_path.parent.mkdir(parents=True, exist_ok=True)
        base_path.write_text(json.dumps(current, indent=2, sort_keys=True))
        print(f"wrote baseline {base_path}")
        return 0
    if not base_path.exists():
        print(f"ERROR: no baseline at {base_path}; create one with "
              f"--write-baseline", file=sys.stderr)
        return 2
    baseline = json.loads(base_path.read_text())
    failures = check(args.kind, current, baseline, args.threshold)
    if failures:
        print("\nFAIL: throughput regression beyond threshold:",
              file=sys.stderr)
        for line in failures:
            print(f"  - {line}", file=sys.stderr)
        print("(intentional change? refresh the baseline with "
              "--write-baseline and commit it)", file=sys.stderr)
        return 1
    print("gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
