#!/usr/bin/env python
"""Quickstart: one Session, two sort jobs (TeraSort and CodedTeraSort).

Opens a :class:`repro.Session` over a small in-process cluster and
submits both algorithms as declarative job specs — the cluster is set up
once and every ``submit`` returns a :class:`repro.JobHandle` future.
Each output is validated as a sorted permutation of the input, and the
measured shuffle communication load is compared against the paper's
closed forms (Eq. (2)):

    uncoded:  L(r) = 1 - r/K
    coded:    L(r) = (1/r) * (1 - r/K)

Usage::

    python examples/quickstart.py [--nodes K] [--redundancy r] [--records N]
"""

from __future__ import annotations

import argparse

from repro import (
    CodedTeraSortSpec,
    Session,
    TeraSortSpec,
    connect,
    teragen,
    validate_sorted_permutation,
)
from repro.core.theory import coded_comm_load, uncoded_comm_load
from repro.utils.tables import format_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", "-K", type=int, default=6,
                        help="cluster size K (default 6)")
    parser.add_argument("--redundancy", "-r", type=int, default=2,
                        help="computation load r (default 2)")
    parser.add_argument("--records", "-n", type=int, default=60_000,
                        help="input records, 100 bytes each (default 60000)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    k, r = args.nodes, args.redundancy
    if not 1 <= r < k:
        parser.error(f"redundancy must satisfy 1 <= r < K, got r={r}, K={k}")

    print(f"Generating {args.records} TeraGen records "
          f"({args.records * 100 / 1e6:.1f} MB)...")
    data = teragen(args.records, seed=args.seed)

    # One session = one standing worker pool; both sorts are jobs on it.
    with Session(connect(f"inproc://{k}")) as session:
        print(f"\nSubmitting TeraSort and CodedTeraSort (r={r}) to one "
              f"K={k} session...")
        base_job = session.submit(TeraSortSpec(data=data))
        coded_job = session.submit(
            CodedTeraSortSpec(data=data, redundancy=r)
        )
        base = base_job.result()
        coded = coded_job.result()

    validate_sorted_permutation(data, base.partitions)
    validate_sorted_permutation(data, coded.partitions)
    print("  output valid: both sorted and a permutation of the input")
    print(f"  coding plan: {coded.meta['num_files']} files, "
          f"{coded.meta['num_groups']} multicast groups, "
          f"{coded.meta['total_multicasts']} multicast packets")

    # -- stage breakdowns ---------------------------------------------------
    print("\nPer-stage wall-clock breakdown (max over nodes, seconds):")
    rows = []
    for name, run in (("TeraSort", base), (f"CodedTeraSort r={r}", coded)):
        for stage in run.stage_times.stages:
            rows.append([name, stage, run.stage_times[stage]])
        rows.append([name, "TOTAL", run.stage_times.total])
    print(format_table(["algorithm", "stage", "seconds"], rows, decimals=4))

    # -- communication load vs theory ---------------------------------------
    total = data.nbytes
    base_load = base.traffic.load_bytes("shuffle") / total
    coded_load = coded.traffic.load_bytes("shuffle") / total
    print("\nShuffle communication load (payload bytes / dataset bytes):")
    print(format_table(
        ["scheme", "measured L", "theory L"],
        [
            ["TeraSort (r=1)", base_load, uncoded_comm_load(1, k)],
            [f"CodedTeraSort (r={r})", coded_load, coded_comm_load(r, k)],
        ],
        decimals=4,
    ))
    print(f"\nMeasured shuffle-byte reduction: "
          f"{base.traffic.load_bytes('shuffle') / max(1, coded.traffic.load_bytes('shuffle')):.2f}x "
          f"(theory: {uncoded_comm_load(1, k) / coded_comm_load(r, k):.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
