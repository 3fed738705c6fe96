"""Ablation: serial (paper) vs parallel (future-work) shuffle schedules.

§VI lists asynchronous execution with parallel communications as a future
direction.  Two layers of evidence:

* **Simulator** (`bench_schedule_ablation_k16_r3`): three variants per
  scheme at paper scale — the paper's serial turns, naive asynchronous
  sending (NIC contention only), and conflict-free scheduled rounds
  (1-factorization for unicast, greedy group packing for multicast).
* **Real engine** (`bench_engine_schedule_serial_vs_parallel`): the actual
  CodedTeraSort program on the multiprocessing backend with the paper's
  100 Mbps pacing, serial Fig. 9(b) turns vs the pipelined non-blocking
  round schedule, at several (K, r) points.  Emits
  ``results/ablation_engine_schedules.json`` with turns, rounds,
  per-stage spans, and the cost model's closed-form predictions.
"""

from __future__ import annotations

import json
import pathlib

from repro.experiments.figures import schedule_ablation
from repro.experiments.report import render_ablation

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

#: Real-engine measurement grid: (K, r, records).  Sizes are chosen so the
#: paced transfer time dominates the shuffle (per-node egress is several
#: times the token bucket's burst); smaller inputs measure barrier/setup
#: overhead instead of the schedule.
ENGINE_POINTS = [(4, 1, 200_000), (6, 2, 400_000), (8, 3, 800_000)]

#: The paper's 100 Mbps per-node egress (bytes/s).
PAPER_RATE = 12.5e6


def bench_schedule_ablation_k16_r3(benchmark, sink):
    result = benchmark.pedantic(
        lambda: schedule_ablation(num_nodes=16, redundancy=3),
        rounds=1,
        iterations=1,
    )
    rows = {label: (sh, tot) for label, sh, tot in result.rows}
    serial_ts = rows["TeraSort, serial (paper)"][0]
    parallel_ts = rows["TeraSort, parallel (naive async)"][0]
    rounds_ts = rows["TeraSort, rounds (scheduled parallel)"][0]
    serial_cts = rows["CodedTeraSort, serial (paper)"][0]
    parallel_cts = rows["CodedTeraSort, parallel (naive async)"][0]
    rounds_cts = rows["CodedTeraSort, rounds (scheduled parallel)"][0]
    # In the paper's serialized regime coding wins decisively.
    assert serial_cts < serial_ts / 2
    # Naive async helps both; unscheduled multicast contention (groups of
    # r+1 = 4 nodes conflict often) keeps the coded gain modest.
    assert parallel_ts < serial_ts / 2
    assert parallel_cts < serial_cts
    # Scheduled rounds approach the concurrency caps: ~K/2 disjoint
    # unicasts, ~K/(r+1) disjoint multicasts per round.
    assert rounds_ts < serial_ts / 6  # cap 8x, packing realizes > 6x
    assert rounds_cts < serial_cts / 2.5  # cap 4x, packing realizes > 2.5x
    # The honest punchline: with fully scheduled parallelism the uncoded
    # exchange (2 nodes/transfer) out-parallelizes r+1-node multicasts —
    # coding's win is tied to the serialized fabric the paper uses.
    assert rounds_ts < rounds_cts
    benchmark.extra_info["serial_vs_rounds_terasort"] = round(
        serial_ts / rounds_ts, 2
    )
    benchmark.extra_info["serial_vs_rounds_coded"] = round(
        serial_cts / rounds_cts, 2
    )
    sink.add("ablation_schedules", render_ablation(result, markdown=True))


def _measure_engine_point(k, r, n_records, cost):
    """One (K, r) point: serial vs parallel on the process backend."""
    import repro
    from repro import CodedTeraSortSpec
    from repro.core.groups import build_coding_plan
    from repro.core.theory import coded_shuffle_bytes
    from repro.kvpairs.teragen import teragen
    from repro.kvpairs.validation import validate_sorted_permutation
    from repro.cluster import connect

    data = teragen(n_records, seed=1000 + 10 * k + r)
    plan = build_coding_plan(k, r)
    packet_bytes = coded_shuffle_bytes(data.nbytes, r, k) / plan.total_multicasts
    point = {
        "k": k,
        "r": r,
        "records": n_records,
        "rate_bytes_per_s": PAPER_RATE,
        "turns": len(plan.schedule),
        "rounds": plan.num_rounds,
        "theoretical_speedup": plan.parallel_speedup,
        "model_serial_shuffle_s": cost.serial_multicast_shuffle_time(
            len(plan.schedule), packet_bytes, r
        ),
        "model_parallel_shuffle_s": cost.parallel_multicast_shuffle_time(
            plan.num_rounds, packet_bytes, r
        ),
    }
    for schedule in ("serial", "parallel"):
        run = repro.run(
            connect(f"proc://{k}", timeout=240, rate_bytes_per_s=PAPER_RATE),
            CodedTeraSortSpec(data, redundancy=r, schedule=schedule),
        )
        validate_sorted_permutation(data, run.partitions)
        entry = {
            "stage_seconds": dict(run.stage_times.seconds),
            "total_seconds": run.stage_times.total,
        }
        if schedule == "parallel":
            entry["shuffle_span_seconds"] = run.meta["shuffle_span_seconds"]
        point[schedule] = entry
    point["measured_shuffle_speedup"] = (
        point["serial"]["stage_seconds"]["shuffle"]
        / max(1e-9, point["parallel"]["stage_seconds"]["shuffle"])
    )
    return point


def bench_engine_schedule_serial_vs_parallel(benchmark, sink, paper_cost):
    points = benchmark.pedantic(
        lambda: [
            _measure_engine_point(k, r, n, paper_cost)
            for k, r, n in ENGINE_POINTS
        ],
        rounds=1,
        iterations=1,
    )
    # Acceptance bar: at K=8, r=3 the pipelined parallel schedule's shuffle
    # wall-clock is strictly below the serialized Fig. 9(b) baseline.
    big = next(p for p in points if (p["k"], p["r"]) == (8, 3))
    assert (
        big["parallel"]["stage_seconds"]["shuffle"]
        < big["serial"]["stage_seconds"]["shuffle"]
    )
    for p in points:
        benchmark.extra_info[
            f"shuffle_speedup_k{p['k']}_r{p['r']}"
        ] = round(p["measured_shuffle_speedup"], 2)

    RESULTS_DIR.mkdir(exist_ok=True)
    out_path = RESULTS_DIR / "ablation_engine_schedules.json"
    out_path.write_text(json.dumps(points, indent=2), encoding="utf-8")

    lines = [
        "# Engine schedule ablation (process backend, 100 Mbps pacing)",
        "",
        "| K | r | turns | rounds | serial shuffle (s) | parallel shuffle (s) "
        "| speedup | theoretical |",
        "|---|---|-------|--------|--------------------|----------------------"
        "|---------|-------------|",
    ]
    for p in points:
        lines.append(
            f"| {p['k']} | {p['r']} | {p['turns']} | {p['rounds']} "
            f"| {p['serial']['stage_seconds']['shuffle']:.3f} "
            f"| {p['parallel']['stage_seconds']['shuffle']:.3f} "
            f"| {p['measured_shuffle_speedup']:.2f}x "
            f"| {p['theoretical_speedup']:.2f}x |"
        )
    lines.append("")
    lines.append(f"Raw spans: `{out_path.name}` (same directory).")
    sink.add("ablation_engine_schedules", "\n".join(lines))
