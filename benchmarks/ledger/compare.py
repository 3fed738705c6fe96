#!/usr/bin/env python3
"""Compare two ledger sets row by row, or check the ledger against itself.

    python3 benchmarks/ledger/compare.py A.json B.json
    python3 benchmarks/ledger/compare.py --aa [--seeds-a 83,84,85] [--seeds-b ...]

One row per (workload, end-to-end metric): base, new, new/base, the bound
from ``BENCHMARK.json`` and a verdict.  ``worse`` / ``better`` mean the
medians differ by more than the bound in that direction; ``unresolved``
means the run-to-run spread is itself wider than the bound, so the row
cannot tell a change from noise; ``ungated`` marks a workload that is not
in ``BENCHMARK.json`` (``ooc-coded``), shown for reading only.  With several runs of a workload on a
side the spread is the inter-quartile distance of the runs' values over
their median (what the driver computes); with a single run it is the
job-to-job quartile distance scaled by 1/sqrt(jobs), the spread to expect
of the median that run reports.

``--aa`` runs two sets of the same checkout itself, three seeds a side in
alternation, and exits non-zero if any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys
from typing import Dict, List, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from metrics import median, spread  # noqa: E402


def load_rows(path: str) -> Dict[Tuple[str, str], List[dict]]:
    """(workload, metric) -> that metric's entry in every untraced run."""
    with open(path, encoding="utf-8") as f:
        ledger = json.load(f)
    rows: Dict[Tuple[str, str], List[dict]] = {}
    for run in ledger["runs"]:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            rows.setdefault((run["workload"], name), []).append(entry)
    return rows


def side(entries: List[dict]) -> Tuple[float, float]:
    """(median, spread as a share of it) of one side of a row."""
    values = [e["value"] for e in entries]
    if len(values) > 1:
        return median(values), spread(values)
    e = entries[0]
    if "q1" in e and e["value"]:
        return e["value"], (e["q3"] - e["q1"]) / e["value"] / math.sqrt(e["n"])
    return e["value"], 0.0


def compare(path_a: str, path_b: str) -> List[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        manifest = json.load(f)
    gated = {m["name"]: m for m in manifest["end_to_end"]}
    gated_workloads = {w["name"] for w in manifest["workloads"]}
    a, b = load_rows(path_a), load_rows(path_b)
    out = []
    for key in sorted(set(a) & set(b)):
        workload, name = key
        if name not in gated:
            continue
        bound = gated[name]["bound"]
        base, spread_a = side(a[key])
        new, spread_b = side(b[key])
        worse_by = (new - base) / base
        if gated[name]["better"] == "higher":
            worse_by = -worse_by
        if workload not in gated_workloads:
            verdict = "ungated"
        elif max(spread_a, spread_b) > bound:
            verdict = "unresolved"
        elif worse_by > bound:
            verdict = "worse"
        elif worse_by < -bound:
            verdict = "better"
        else:
            verdict = "same"
        out.append({
            "workload": workload, "metric": name, "unit": gated[name]["unit"],
            "base": base, "new": new, "ratio": new / base, "bound": bound,
            "spread": max(spread_a, spread_b), "verdict": verdict,
        })
    return out


def print_rows(rows: List[dict]) -> None:
    print(f"{'workload':<20} {'metric':<23} {'base':>11} {'new':>11} "
          f"{'new/base':>8} {'bound':>6} {'spread':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<20} {r['metric']:<23} {r['base']:>11.5g} "
              f"{r['new']:>11.5g} {r['ratio']:>8.3f} {r['bound']:>6.2f} "
              f"{r['spread']:>7.3f}  {r['verdict']}")


def run_sets(seeds_a: List[int], seeds_b: List[int], seconds,
             out_dir: str) -> List[str]:
    """Two sets of this checkout, every workload once per seed.  The sides
    take turns seed by seed: the host's speed moves in phases of minutes,
    and a set run in one piece would carry its phase into the verdict."""
    sides = {"a": {"seeds": seeds_a, "runs": []},
             "b": {"seeds": seeds_b, "runs": []}}
    turns = [(label, seed) for pair in zip(seeds_a, seeds_b)
             for label, seed in zip("ab", pair)]
    for label, seed in turns:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all",
               "--seed", str(seed), "--out", out_dir]
        if seconds is not None:
            cmd += ["--seconds", str(seconds)]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(out_dir, f"ledger_seed{seed}.json"),
                  encoding="utf-8") as f:
            ledger = json.load(f)
        sides[label]["runs"] += ledger["runs"]
        sides[label]["host"] = ledger["host"]
    paths = []
    for label, side in sides.items():
        paths.append(os.path.join(out_dir, f"set_{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as f:
            json.dump(side, f, indent=1)
    return paths


def _seeds(text: str) -> List[int]:
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("sets", nargs="*", metavar="SET.json")
    parser.add_argument("--aa", action="store_true",
                        help="run two sets of this checkout and compare them")
    parser.add_argument("--seeds-a", type=_seeds, default=[83, 84, 85])
    parser.add_argument("--seeds-b", type=_seeds, default=[1083, 1084, 1085])
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--out", default=str(HERE / "out"))
    args = parser.parse_args(argv)
    if args.aa:
        if len(args.seeds_a) != len(args.seeds_b):
            parser.error("--aa needs as many seeds on one side as the other")
        paths = run_sets(args.seeds_a, args.seeds_b, args.seconds,
                         os.path.abspath(args.out))
    elif len(args.sets) == 2:
        paths = args.sets
    else:
        parser.error("give two set files, or --aa")
    rows = compare(*paths)
    print_rows(rows)
    worse = [r for r in rows if r["verdict"] == "worse"]
    if args.aa and worse:
        print(f"A/A failed: {len(worse)} row(s) worse than their bound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
