#!/usr/bin/env python
"""Scalable coding: grouped CodedTeraSort beating the CodeGen wall.

The paper's §VI flags CodeGen's C(K, r+1) growth as the obstacle to
scaling coded sorting (140.91 s of the 441.10 s total at K=20, r=5).
This example runs the group-based construction — ``group_size=g`` on the
one coded pipeline: coding inside groups of g nodes, dataset replicated
across groups so all shuffles stay intra-group — both functionally (real sort on the thread
backend, byte-accounted) and at paper scale on the closed-form model.

Usage::

    python examples/scalable_sort.py [--nodes K] [--group-size g] [-r r]
"""

from __future__ import annotations

import argparse

import repro
from repro import CodedTeraSortSpec
from repro.experiments.figures import grouped_stages
from repro.experiments.report import render_rows
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.inproc import ThreadCluster
from repro.scalable.theory import grouped_comm_load, grouped_vs_full


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", "-K", type=int, default=8)
    parser.add_argument("--group-size", "-g", type=int, default=4)
    parser.add_argument("--redundancy", "-r", type=int, default=2)
    parser.add_argument("--records", "-n", type=int, default=40_000)
    args = parser.parse_args()
    k, g, r = args.nodes, args.group_size, args.redundancy
    if k % g != 0:
        parser.error(f"group size {g} must divide K={k}")
    if not 1 <= r < g:
        parser.error(f"need 1 <= r < g, got r={r}, g={g}")

    # -- functional run ---------------------------------------------------
    print(f"Grouped CodedTeraSort: K={k} nodes, {k // g} groups of g={g}, "
          f"r={r} (storage r/g = {r / g:.2f} of input per node)")
    data = teragen(args.records, seed=0)
    grouped = repro.run(
        ThreadCluster(k),
        CodedTeraSortSpec(data, redundancy=r, group_size=g),
    )
    validate_sorted_permutation(data, grouped.partitions)
    print("  output valid: sorted and a permutation of the input")
    load = grouped.traffic.load_bytes("shuffle") / (args.records * 100)
    print(f"  measured shuffle load {load:.4f} vs closed form "
          f"(1/r)(1-r/g) = {grouped_comm_load(r, g):.4f}")
    full = repro.run(ThreadCluster(k), CodedTeraSortSpec(data, redundancy=r))
    print(f"  CodeGen per group: {grouped.meta['num_groups']} "
          f"multicast groups (plain coded on K={k} would need "
          f"{full.meta['num_groups']})")

    # -- the trade, in closed form ----------------------------------------
    cmp = grouped_vs_full(k, g, r)
    print(f"\nEqual-storage comparison (full scheme at r={cmp.full_redundancy}):")
    print(f"  load: grouped {cmp.load_grouped:.3f} vs full {cmp.load_full:.3f} "
          f"({cmp.load_ratio:.1f}x more bytes)")
    print(f"  CodeGen: grouped {cmp.codegen_grouped} vs full "
          f"{cmp.codegen_full} group setups ({cmp.codegen_ratio:.0f}x fewer)")

    # -- paper scale, modelled ----------------------------------------------
    print("\nAt the paper's Table III configuration (12 GB, K=20, 100 Mbps):")
    print(render_rows(grouped_stages()))
    print("\nGrouping collapses CodeGen and overlaps the group shuffles;")
    print("the price is doubled per-node storage and Map work (r/g vs r/K).")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
