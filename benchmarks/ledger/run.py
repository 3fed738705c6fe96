#!/usr/bin/env python3
"""The perf ledger: one benchmark for the live sort.

    python3 benchmarks/ledger/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace [0|1]] [--out DIR]

One workload per process: generate the input from ``--seed`` (teragen; the
program only ever sees the generated file / batch), bring a standing pool
up (four times or more, for ``setup_s``), run jobs closed-loop for
``--seconds``, check every job's output, and print one line per ``workload
metric value unit``.  The last line of stdout is the result as one JSON
object.
``--trace 0`` reports the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced pass that reports the per-layer metrics and
writes ``trace_<workload>.json``.  ``--workload all`` runs every workload
in its own subprocess and writes the set to ``<out>/ledger_seed<N>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"ledger: nothing to measure, no {ROOT / 'src' / 'repro'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from repro.kvpairs.datasource import FileSource, InlineSource  # noqa: E402
from repro.kvpairs.records import RECORD_BYTES  # noqa: E402
from repro.kvpairs.teragen import teragen, teragen_to_file  # noqa: E402

import layers  # noqa: E402
from check import Reference  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    percentile,
    summarize,
)
from oracle import check_load  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    JOB_TIMEOUT,
    WORKLOADS,
    Kind,
    Workload,
    make_lane,
    scratch_dir,
)

#: Set-ups per run, after a first one that also pays this process's module
#: imports and page cache (``info.setup_cold_s``): at least 3, and up to 9
#: while they are cheap (a 50 ms pool start needs more samples for a steady
#: median than a 1 s one).
SETUP_REPEATS = 3
SETUP_MAX = 9
SETUP_BUDGET_S = 2.5
STAGES = ("codegen", "map", "pack", "encode", "shuffle", "decode", "unpack",
          "reduce")
NO_TRACE = Tracer(False)


@dataclass
class Job:
    """What is kept of one timed job (never its partitions)."""

    kind: str
    client: int
    wall: float
    traced: bool
    error: str = ""
    load: float = 0.0
    stages: Dict[str, float] = field(default_factory=dict)
    traffic: Dict[str, float] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)


class HarnessCpu:
    """CPU seconds the benchmark itself burned (reference sort, output
    checks), so they can be kept out of ``cpu_s_per_gb``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self._lock = threading.Lock()

    @contextmanager
    def excluded(self):
        t0 = time.thread_time()
        try:
            yield
        finally:
            with self._lock:
                self.seconds += time.thread_time() - t0


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------------
# One job.
# ---------------------------------------------------------------------------


class Bench:
    """One workload's state for one run of this process."""

    def __init__(self, workload: Workload, seed: int, tmp: str) -> None:
        self.workload = workload
        self.tmp = tmp
        self.input_bytes = workload.records * RECORD_BYTES
        self.harness_cpu = HarnessCpu()
        t0 = time.perf_counter()
        if workload.inline:
            data = teragen(workload.records, seed=seed)
            self.source = InlineSource(data)
            given = {"data": data}
        else:
            path = os.path.join(tmp, "input.bin")
            teragen_to_file(path, workload.records, seed=seed)
            self.source = FileSource(path)
            given = {"input": self.source}
        self.gen_s = time.perf_counter() - t0
        self.specs = {k.label: k.spec(**given) for k in workload.kinds}
        self.lane = make_lane(workload)
        self.reference: Optional[Reference] = None

    def _spec(self, kind: Kind, tag: str):
        """The kind's spec; out-of-core jobs get an output dir of their own."""
        spec = self.specs[kind.label]
        if "memory_budget" not in kind.options:
            return spec, None
        out_dir = os.path.join(self.tmp, f"sorted-{tag}")
        return spec.with_(output_dir=out_dir), out_dir

    def set_up(self, tracer: Tracer) -> float:
        """connect() + pool/daemon start + one warm-up job per kind."""
        t0 = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span(f"{self.lane.layer}.start"):
                self.lane.start()
            for kind in self.workload.kinds:
                spec, out_dir = self._spec(kind, f"warmup-{kind.label}")
                with tracer.span(f"{self.lane.layer}.warmup"):
                    self.lane.submit(spec, 0).result(timeout=JOB_TIMEOUT)
                if out_dir:
                    shutil.rmtree(out_dir, ignore_errors=True)
        return time.perf_counter() - t0

    def build_reference(self) -> None:
        # After the pool forked: the sorted copy must not count as worker RSS.
        with self.harness_cpu.excluded():
            self.reference = Reference(self.source.load())

    def run_job(self, kind: Kind, client: int, job_id: int,
                tracer: Tracer) -> Job:
        w = self.workload
        spec, out_dir = self._spec(kind, str(job_id))
        job = Job(kind.label, client, 0.0, tracer.enabled)
        t0 = time.perf_counter()
        try:
            with tracer.span("job", job=job_id, kind=kind.label,
                             bytes=self.input_bytes, records=w.records):
                with tracer.span(f"{self.lane.layer}.submit", job=job_id):
                    handle = self.lane.submit(spec, client)
                with tracer.span(f"{self.lane.layer}.wait",
                                 job=job_id) as wait_id:
                    waited = time.perf_counter()
                    run = handle.result(timeout=JOB_TIMEOUT)
            job.wall = time.perf_counter() - t0
        except Exception as exc:  # a failed job is an outcome to count
            job.wall = time.perf_counter() - t0
            job.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            return job
        with self.harness_cpu.excluded():
            shuffle = run.traffic
            load_bytes = shuffle.load_bytes("shuffle")
            job.load = load_bytes / self.input_bytes
            job.error = self.reference.mismatch(run.partitions) or check_load(
                job.load, w.nodes, max(1, kind.redundancy), w.load_tolerance
            )
            if out_dir:
                shutil.rmtree(out_dir, ignore_errors=True)
            if tracer.enabled:
                times = run.stage_times
                job.stages = {
                    s: times.seconds.get(s, 0.0) for s in times.stages
                }
                job.traffic = {
                    "load_bytes": load_bytes,
                    "wire_bytes": shuffle.wire_bytes("shuffle"),
                    "messages": shuffle.message_count("shuffle"),
                }
                job.meta = {
                    key: run.meta[key] for key in run.meta
                    if key in ("kernel_stats", "overlap")
                    or key.startswith("oc_")
                }
                # The stages a job reports have durations but no clock
                # times: lay them end to end under the wait that covered them.
                cursor = waited
                for stage, seconds in job.stages.items():
                    tracer.add(f"stage.{stage}", cursor, cursor + seconds,
                               parent=wait_id, job=job_id, reported=True)
                    cursor += seconds
        return job

    # -- the closed loop ------------------------------------------------------

    def closed_loop(self, seconds: float, tracer: Tracer) -> List[Job]:
        """Each client submits its next job when the last one returned."""
        w = self.workload
        jobs: List[Job] = []
        if tracer.enabled:  # traced and untraced jobs of every kind, in turn
            floor = 4 * len(w.kinds)
        else:
            floor = math.ceil(w.min_jobs / w.clients)
        deadline = time.perf_counter() + seconds

        def client_loop(client: int) -> None:
            i = 0
            while i < floor or time.perf_counter() < deadline:
                turn = i // 2 if tracer.enabled else i
                kind = w.kinds[(turn + client) % len(w.kinds)]
                traced = tracer.enabled and i % 2 == 1
                jobs.append(self.run_job(
                    kind, client, client * 1_000_000 + i,
                    tracer if traced else NO_TRACE,
                ))
                i += 1

        with ThreadPoolExecutor(w.clients, "ledger-client") as pool:
            clients = [pool.submit(client_loop, c) for c in range(w.clients)]
            for done in clients:
                done.result()  # a harness error must not pass for a short run
        return jobs


# ---------------------------------------------------------------------------
# Metrics from the jobs.
# ---------------------------------------------------------------------------


def kind_summary(jobs: List[Job], value: Callable[[Job], float]) -> dict:
    """Median and quartiles per job kind, averaged over the kinds: a
    workload that alternates two kinds is bimodal, and the median of a
    bimodal sample sits wherever the mix happens to tip."""
    by_kind: Dict[str, List[float]] = {}
    for job in jobs:
        by_kind.setdefault(job.kind, []).append(value(job))
    parts = [summarize(v) for v in by_kind.values()]
    out = {
        key: sum(p[key] for p in parts) / len(parts)
        for key in ("value", "q1", "q3")
    }
    out["n"] = len(jobs)
    return out


def kind_average(jobs: List[Job], value: Callable[[Job], float]) -> float:
    return kind_summary(jobs, value)["value"]


def end_to_end(bench: Bench, jobs: List[Job],
               setups: List[float]) -> Dict[str, dict]:
    w = bench.workload
    makespan = kind_summary(jobs, lambda j: j.wall)
    busy = max(
        sum(j.wall for j in jobs if j.client == c) for c in range(w.clients)
    )
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "makespan_s": makespan,
        "sorted_mbps_per_worker": {
            "value": bench.input_bytes / makespan["value"] / w.nodes / 1e6,
        },
        "jobs_per_s": {"value": len(jobs) / busy},
        "setup_s": summarize(setups),
        "peak_rss_mb": {"value": peak_kb / 1024},
        "shuffle_load": {"value": kind_average(jobs, lambda j: j.load)},
    }
    return {m.name: {**values[m.name], "unit": m.unit} for m in END_TO_END}


def per_layer(bench: Bench, jobs: List[Job], stats, replayed: Dict[str, float],
              roof: Dict[str, float], cpu_s: float) -> Dict[str, dict]:
    w = bench.workload
    traced = [j for j in jobs if j.traced]
    untraced = [j for j in jobs if not j.traced]
    out: Dict[str, float] = {}
    # The pool's whole life: its set-up, one warm-up job per kind, the jobs.
    out["cpu_s_per_gb"] = cpu_s / (
        (len(jobs) + len(w.kinds)) * bench.input_bytes / 1e9
    )
    for stage in STAGES:
        out[f"stage.{stage}_s"] = kind_average(
            traced, lambda j: j.stages.get(stage, 0.0)
        )
    total = kind_average(traced, lambda j: sum(j.stages.values()))
    makespan = kind_average(traced, lambda j: j.wall)
    out["stage.total_s"] = total
    out["stage.accounted_share"] = total / makespan
    out["session.overhead_s"] = makespan - total
    out["session.overhead_share"] = (makespan - total) / makespan
    out["session.latency_p99_ms"] = 1e3 * percentile(
        [j.wall for j in jobs], 99
    )
    for name in ("load_bytes", "wire_bytes", "messages"):
        out[f"runtime.traffic.{name}"] = kind_average(
            traced, lambda j: j.traffic[name]
        )
    out["runtime.traffic.wire_per_load"] = (
        out["runtime.traffic.wire_bytes"] / out["runtime.traffic.load_bytes"]
    )
    link_s = (
        out["runtime.traffic.wire_bytes"] / w.nodes
        / (roof["roofline.link_mbps"] * 1e6)
    )
    out["stage.shuffle_frac_link"] = link_s / out["stage.shuffle_s"]

    def kernel(job: Job, counter: str) -> float:
        return float(job.meta.get("kernel_stats", {}).get(counter, 0))

    queries = kind_average(traced, lambda j: kernel(j, "rank_queries"))
    fallback = kind_average(traced, lambda j: kernel(j, "fallback_queries"))
    out["kvpairs.kernels.merge_records"] = kind_average(
        traced, lambda j: kernel(j, "merge_records")
    )
    out["kvpairs.kernels.rank_queries"] = queries
    out["kvpairs.kernels.key_bytes_per_query"] = (
        (8 * queries + 10 * fallback) / queries if queries else 0.0
    )
    for name, key in (("span_s", "span_seconds"),
                      ("hidden_s", "hidden_seconds")):
        out[f"overlap.{name}"] = kind_average(
            traced, lambda j: j.meta.get("overlap", {}).get(key, 0.0)
        )
    for name, key in (("spilled_bytes", "oc_spilled_bytes"),
                      ("runs", "oc_spill_runs"),
                      ("peak_resident_bytes", "oc_peak_resident_bytes")):
        out[f"kvpairs.spill.{name}"] = kind_average(
            traced, lambda j: float(j.meta.get(key, 0))
        )
    for name, scale in (("queue_wait_p50", 1e3), ("queue_wait_p95", 1e3),
                        ("jobs_rejected", 1), ("jobs_failed", 1)):
        unit = "_ms" if scale != 1 else ""
        out[f"service.{name}{unit}"] = scale * (getattr(stats, name, 0) or 0)
    out.update(replayed)
    out.update(roof)
    out["kvpairs.sorting.sort_frac_roofline"] = (
        out["kvpairs.sorting.sort_mrec_per_s"]
        / roof["roofline.npsort_mrec_per_s"]
    )
    out["runtime.transport.frac_memcpy"] = (
        out["runtime.transport.mbps"] / (roof["roofline.memcpy_gbps"] * 1e3)
    )
    plain = kind_average(untraced, lambda j: j.wall)
    out["trace.overhead_share"] = (makespan - plain) / plain
    return {m.name: {"value": out[m.name], "unit": m.unit} for m in PER_LAYER}


# ---------------------------------------------------------------------------
# One run of one workload.
# ---------------------------------------------------------------------------


def _set_up_again(setups: List[float], trace: bool) -> bool:
    if trace:  # setup_s is end to end; the traced pass needs just one pool
        return not setups
    warm = setups[1:]
    return len(warm) < SETUP_REPEATS or (
        len(warm) < SETUP_MAX and sum(warm) < SETUP_BUDGET_S
    )


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> dict:
    tmp = scratch_dir(out_dir)
    tracer = Tracer(trace)
    if w.one_core:  # before anything forks: the pool inherits it
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        bench = Bench(w, seed, tmp)
        setups: List[float] = []
        try:
            while _set_up_again(setups, trace):
                bench.lane.stop()
                # CPU is counted for the pool that runs the jobs, from its
                # set-up on (the pools before it are reaped by now).
                cpu0, kids0 = time.process_time(), _children_cpu()
                setups.append(bench.set_up(tracer))
            bench.build_reference()
            jobs = bench.closed_loop(seconds, tracer)
            stats = bench.lane.stats()
        finally:
            bench.lane.stop()
        driver_cpu = time.process_time() - cpu0 - bench.harness_cpu.seconds
        worker_cpu = _children_cpu() - kids0
        cpu_s = driver_cpu + worker_cpu
        good = [j for j in jobs if not j.error]
        info = {
            "gen_s": bench.gen_s, "cpu_count": os.cpu_count(),
            "jobs": len(jobs), "nodes": w.nodes, "records": w.records,
            "failed_share": (len(jobs) - len(good)) / len(jobs),
            "setup_cold_s": setups[0],
            "driver_cpu_s": driver_cpu, "worker_cpu_s": worker_cpu,
        }
        if not good:
            metrics = {}
        elif trace:
            kind = max(w.kinds, key=lambda k: k.redundancy)
            t0 = time.perf_counter()
            with tracer.span("replay"):
                replayed = layers.replay(w, kind, bench.source, tracer, tmp)
            t1 = time.perf_counter()
            roof, roof_info = layers.roofline(
                tracer, w.records // w.nodes, seed, w.paced
            )
            info.update(roof_info, replay_s=t1 - t0,
                        roofline_s=time.perf_counter() - t1)
            info["self_time_s"] = tracer.self_times()
            metrics = per_layer(bench, good, stats, replayed, roof, cpu_s)
            tracer.write_chrome(os.path.join(out_dir, f"trace_{w.name}.json"))
        else:
            metrics = end_to_end(bench, good, setups[1:])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "workload": w.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "correct": len(good) == len(jobs) and bool(good),
        "attempted": len(jobs), "failed": len(jobs) - len(good),
        "metrics": metrics, "info": info,
        "errors": sorted({j.error for j in jobs if j.error})[:5],
    }


def report(result: dict) -> None:
    name = result["workload"]
    for key, value in result["info"].items():
        if not isinstance(value, dict):
            print(f"{name} info.{key} {value}")
    for metric, m in result["metrics"].items():
        extra = "".join(
            f" {k}={m[k]:.6g}" for k in ("q1", "q3", "n") if k in m
        )
        print(f"{name} {metric} {m['value']:.6g} {m['unit']}{extra}")
    for error in result["errors"]:
        print(f"{name} ERROR {error}", file=sys.stderr)


def run_one(args) -> int:
    w = BY_NAME[args.workload]
    os.makedirs(args.out, exist_ok=True)
    result = run_workload(
        w, args.seed, args.seconds, bool(args.trace), args.out
    )
    report(result)
    path = os.path.join(args.out, f"run_{w.name}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    if not result["correct"]:
        return 1
    print(json.dumps({
        "correct": True, "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in result["metrics"].items()
        },
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (rusage is per process)."""
    os.makedirs(args.out, exist_ok=True)
    runs, status = [], 0
    t0 = time.perf_counter()
    for w in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", w.name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", args.out,
            ]
            t1 = time.perf_counter()
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1] if done.returncode == 0 else lines))
            path = os.path.join(args.out, f"run_{w.name}_trace{trace}.json")
            if done.returncode or not os.path.exists(path):
                status = 1
                continue
            with open(path, encoding="utf-8") as f:
                runs.append(json.load(f))
            runs[-1]["info"]["run_wall_s"] = time.perf_counter() - t1
            os.unlink(path)
    by = {(r["workload"], r["trace"]): r for r in runs}
    ledger = {
        "host": {
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "seed": args.seed, "seconds": args.seconds,
        "set_wall_s": time.perf_counter() - t0, "runs": runs,
    }
    base, coded = by.get(("paced-uncoded", 0)), by.get(("paced-coded", 0))
    if base and coded and base["metrics"] and coded["metrics"]:
        speedup = (base["metrics"]["makespan_s"]["value"]
                   / coded["metrics"]["makespan_s"]["value"])
        ledger["paper.coded_speedup"] = speedup
        print(f"all paper.coded_speedup {speedup:.4g} ratio")
    path = os.path.join(args.out, f"ledger_seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(ledger, f, indent=1)
    print(f"all set_wall_s {ledger['set_wall_s']:.1f} s")
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        run_seconds = json.load(f)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[w.name for w in WORKLOADS] + ["all"])
    parser.add_argument("--seed", type=int, default=83)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced per-layer pass")
    parser.add_argument("--out", default=str(HERE / "out"),
                        help="where traces, result files and scratch go")
    args = parser.parse_args(argv)
    args.out = os.path.abspath(args.out)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
