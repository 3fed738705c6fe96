#!/usr/bin/env python
"""Wireless distributed computing: coded shuffling over a shared medium.

The paper's conclusion motivates coded computing for *mobile* settings —
augmented reality, recommender systems — where shuffles cross a wireless
collision domain ([24], [25]).  A wireless medium is the paper's serial
fabric taken literally (one transmitter at a time) *and* a true broadcast
channel (every receiver hears a transmission for free) — the best
possible home for coded multicast.

This example sorts a synthetic mobile-recommender workload (user-item
score records) across K phones and compares three shuffle protocols:

* uncoded relay through the access point — every value flies twice;
* edge-facilitated coded relay ([25]) — coded packets via the AP;
* device-to-device coded broadcast — each packet flies once, serves r.

Usage::

    python examples/wireless_computing.py [--users K] [--redundancy r]
"""

from __future__ import annotations

import argparse

from repro.experiments.figures import wireless_protocols
from repro.experiments.report import render_rows
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.wireless.theory import wireless_grouped_load
from repro.wireless.wdc import run_wireless_sort


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--users", "-K", type=int, default=6)
    parser.add_argument("--redundancy", "-r", type=int, default=2)
    parser.add_argument("--records", "-n", type=int, default=30_000,
                        help="user-item score records (100 B each)")
    parser.add_argument("--rate-mbps", type=float, default=20.0,
                        help="shared channel rate (default 20 Mbps)")
    args = parser.parse_args()
    k, r = args.users, args.redundancy
    if not 1 <= r < k:
        parser.error(f"need 1 <= r < K, got r={r}, K={k}")

    print(f"{k} phones sort {args.records} score records over a "
          f"{args.rate_mbps:.0f} Mbps shared channel (r = {r})\n")
    table = wireless_protocols(k, r, args.records, args.rate_mbps)
    print(render_rows(table))
    air = {row[0]: row[-1] for row in table.rows}
    print(f"\nD2D coded broadcast spends {air['uncoded'] / air['d2d']:.1f}x "
          f"less air than the uncoded relay (theory: 2r = {2 * r}x).")

    if k % 2 == 0 and r < k // 2:
        g = k // 2
        data = teragen(args.records, seed=0)
        out = run_wireless_sort(data, k, r, group_size=g)
        validate_sorted_permutation(data, out.partitions)
        print(f"\nGrouped ([24], g={g}): load "
              f"{out.shuffle_load():.4f} vs theory "
              f"{wireless_grouped_load(r, g):.4f} — independent of K, so "
              "the fleet can grow without spending more air per record.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
