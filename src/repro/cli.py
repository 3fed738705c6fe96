"""Command-line interface.

Subcommands::

    codedterasort gen       — write a teragen-format dataset to disk
    codedterasort sort      — sort synthetic or on-disk data (threads /
                              processes, or a multi-host TCP cluster via
                              --cluster tcp://); --input FILE plus
                              --memory-budget BYTES runs out-of-core
    codedterasort worker    — join a tcp:// coordinator as one worker agent
    codedterasort serve     — run the multi-tenant sort service daemon
                              (standing worker mesh + TCP control port;
                              concurrent jobs on per-job worker subsets)
    codedterasort submit    — submit one sort job to a running service
    codedterasort status    — job table + per-tenant stats of a service
    codedterasort simulate  — one modelled run at paper scale
    codedterasort tables    — regenerate Tables I-III (closed-form model)
    codedterasort figures   — Fig. 2 + trend sweeps
    codedterasort report    — full reproduction report (optionally to
                              EXPERIMENTS.md)
    codedterasort theory    — closed-form loads and optimal r for a config

Also runnable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_cluster(args: argparse.Namespace):
    """All CLI paths route through the unified repro.connect factory."""
    from repro.cluster import connect

    rate = args.rate_mbps * 125_000 if args.rate_mbps else None
    if getattr(args, "cluster", None):
        return connect(
            args.cluster,
            size=args.nodes,
            rate_bytes_per_s=rate,
            connect_timeout=args.connect_timeout,
            handshake_timeout=args.handshake_timeout,
        )
    if args.backend == "process":
        return connect(f"proc://{args.nodes}", rate_bytes_per_s=rate)
    return connect(f"inproc://{args.nodes}")


def _add_job_options(p: argparse.ArgumentParser) -> None:
    """The job options of ``sort`` and ``submit`` — one list, each flag one
    field of the sort specs (their docstrings are the full reference)."""
    p.add_argument("--algorithm", choices=["terasort", "coded"], default="coded")
    p.add_argument("--redundancy", "-r", type=int, default=2,
                   help="coded: map each file on r nodes")
    p.add_argument("--records", "-n", type=int, default=60_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--input", default=None, metavar="FILE",
                   help="sort this teragen-format file instead of "
                        "generating records (workers read their own "
                        "ranges; the path must resolve on every worker's "
                        "host)")
    p.add_argument("--memory-budget", type=int, default=None, metavar="BYTES",
                   help="per-worker cap on resident record buffers; "
                        "enables the out-of-core pipeline (spill files + "
                        "external merge), output byte-identical")
    p.add_argument("--output", default=None, metavar="DIR",
                   help="with --memory-budget: stream each sorted "
                        "partition to DIR/part-<rank> instead of "
                        "returning it in RAM")
    p.add_argument("--schedule", choices=["serial", "parallel"], default="parallel",
                   help="coded shuffle: the barrier-free event loop "
                        "(default) or 'serial', the paper's measured "
                        "Fig. 9(b) turn walk")
    p.add_argument("--group-size", type=int, default=None, metavar="G",
                   help="coded: group-based coding (§VI) — code inside "
                        "K/G groups of G workers, each holding the whole "
                        "input (G must divide K; default: one group)")
    p.add_argument("--speculation", action="store_true",
                   help="with --algorithm terasort and --input: launch "
                        "backup copies of straggling map shards on "
                        "finished workers (first finisher wins; output "
                        "stays byte-identical)")
    p.add_argument("--overlap", action="store_true",
                   help="streaming phase overlap: ship shuffle traffic "
                        "while Map is still running (and, under "
                        "--memory-budget, merge it while it arrives), "
                        "hiding communication behind compute "
                        "(both algorithms; output stays byte-identical; "
                        "mutually exclusive with --speculation)")


def _job_spec(args: argparse.Namespace, size: Optional[int]):
    """The spec the :func:`_add_job_options` flags describe, validated for
    ``size`` workers where the caller knows it (``submit`` without
    ``--workers`` leaves K to the daemon) before a cluster is built or a
    job shipped.  Unsupported combinations are the spec's ``validate`` to
    name; the one rule here is about a flag the coded spec has no field for."""
    from repro.kvpairs.datasource import FileSource
    from repro.kvpairs.teragen import teragen
    from repro.session import CodedTeraSortSpec, TeraSortSpec

    # On-disk input: the control plane ships per-rank FileSource
    # descriptors; workers mmap their own ranges.
    fields = dict(
        memory_budget=args.memory_budget,
        output_dir=args.output,
        overlap=args.overlap,
        **({"input": FileSource(args.input)} if args.input is not None
           else {"data": teragen(args.records, seed=args.seed)}),
    )
    try:
        if args.algorithm == "terasort":
            spec = TeraSortSpec(speculation=args.speculation, **fields)
        elif args.speculation:
            # An uncoded-sort option: its own matrix (which does not
            # depend on K) speaks first.
            TeraSortSpec(speculation=True, **fields).validate(1)
            raise ValueError(
                "--speculation applies to --algorithm terasort only "
                "(the coded shuffle has no independent map shards to "
                "re-execute)"
            )
        else:
            spec = CodedTeraSortSpec(
                redundancy=args.redundancy, schedule=args.schedule,
                group_size=args.group_size, **fields
            )
        if size is not None:
            spec.validate(size)
    except ValueError as err:
        raise SystemExit(str(err))
    return spec


def _cmd_gen(args: argparse.Namespace) -> int:
    from repro.core.outofcore import MIN_MEMORY_BUDGET
    from repro.kvpairs.teragen import teragen_to_file

    try:
        written = teragen_to_file(args.out, args.records, seed=args.seed)
    except ValueError as err:
        raise SystemExit(str(err))
    print(f"wrote {args.records} records ({written} bytes, seed {args.seed}) "
          f"to {args.out}")
    print(f"sort it with: repro sort --input {args.out} "
          f"--memory-budget {max(written // 8, MIN_MEMORY_BUDGET)}")
    return 0


def _cmd_sort(args: argparse.Namespace) -> int:
    from repro.session import Session
    from repro.utils.tables import format_table

    spec = _job_spec(args, args.nodes)
    data, source = spec.data, spec.input
    n_records = spec.source.num_records
    cluster = _build_cluster(args)
    backend = args.backend
    if getattr(args, "cluster", None):
        backend = f"tcp ({cluster.address})"
        print(f"rendezvous listening on {cluster.address} — start workers "
              f"with: repro worker --join {cluster.address}")
    with Session(
        cluster,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        failure_timeout=args.failure_timeout,
    ) as session:
        if args.repeat > 1:
            # Back-to-back jobs on one standing worker pool: the cluster
            # setup is paid once, so per-job wall time is the job itself.
            import time as _time

            t0 = _time.perf_counter()
            handles = [session.submit(spec) for _ in range(args.repeat)]
            runs = [h.result() for h in handles]
            elapsed = _time.perf_counter() - t0
            print(f"session: {args.repeat} jobs in {elapsed:.3f}s "
                  f"({args.repeat / elapsed:.2f} jobs/s on one worker pool)")
        else:
            runs = [session.submit(spec).result()]
    if getattr(args, "cluster", None):
        cluster.close()
    # Every run is checked, the earlier ones after the later jobs ran.
    for run in runs:
        verdict = _validate(run, data, source, n_records)
    if len(runs) > 1:
        verdict += f" (all {len(runs)} runs)"
    sched = f", schedule={args.schedule}" if args.algorithm == "coded" else ""
    print(f"sorted {n_records} records on {args.nodes} nodes "
          f"({args.algorithm}, backend={backend}{sched}) — {verdict}")
    if args.memory_budget is not None and "oc_peak_resident_bytes" in run.meta:
        print(f"out-of-core: budget {run.meta['memory_budget']} bytes, "
              f"peak resident {run.meta['oc_peak_resident_bytes']}, "
              f"spilled {run.meta['oc_spilled_bytes']} bytes "
              f"in {run.meta['oc_spill_runs']} runs")
    if args.algorithm == "coded" and args.schedule == "parallel":
        print(f"parallel schedule: {run.meta['schedule_turns']} turns packed "
              f"into {run.meta['schedule_rounds']} rounds "
              f"({run.meta['parallel_speedup']:.2f}x theoretical)")
    stages = run.stage_times
    print(format_table(
        ["stage", "seconds"],
        [[s, stages.seconds.get(s, 0.0)] for s in stages.stages]
        + [["total", stages.total]],
        decimals=4,
    ))
    if run.traffic is not None:
        from repro.kvpairs.records import RECORD_BYTES

        shuffle = run.traffic.load_bytes("shuffle")
        print(f"shuffle payload: {shuffle} bytes "
              f"({shuffle / max(1, n_records * RECORD_BYTES):.4f} of dataset)")
    return 0


def _validate(run, data, source, n_records: int) -> str:
    """Check one run's output against the input; return the verdict."""
    from repro.kvpairs.records import RecordBatch
    from repro.kvpairs.validation import validate_sorted_permutation

    if data is not None and all(
        isinstance(p, RecordBatch) for p in run.partitions
    ):
        validate_sorted_permutation(data, run.partitions)
        return "output valid"
    # Streaming validation — constant memory — whenever the input is on
    # disk or the output came back as part-file descriptors (--output):
    # global sortedness, record count, and the order-independent
    # multiset checksum against the input.
    from itertools import chain

    from repro.kvpairs.validation import checksum_iter, validate_sorted_iter

    def out_batches():
        return chain.from_iterable(_iter_partition(p) for p in run.partitions)

    n_out = validate_sorted_iter(out_batches())
    if n_out != n_records:
        raise AssertionError(
            f"record count mismatch: input {n_records}, output {n_out}"
        )
    in_batches = source.iter_batches() if source is not None else [data]
    if checksum_iter(in_batches) != checksum_iter(out_batches()):
        raise AssertionError(
            "output is not a permutation of the input (checksum mismatch)"
        )
    return "output sorted, permutation verified (streaming check)"


def _iter_partition(part):
    """Batches of one output partition (RecordBatch or FileSource)."""
    from repro.kvpairs.datasource import DataSource

    if isinstance(part, DataSource):
        return part.iter_batches()
    return iter([part])


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runtime.tcp import TcpClusterError, run_worker

    try:
        return run_worker(
            args.join,
            rank=args.rank,
            advertise=args.advertise,
            connect_timeout=args.connect_timeout,
            handshake_timeout=args.handshake_timeout,
            quiet=args.quiet,
        )
    except TcpClusterError as exc:
        print(f"worker failed: {exc}", file=sys.stderr)
        return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import time

    from repro.cluster import connect
    from repro.runtime.tcp import TcpClusterError
    from repro.service import SortService, TenantQuota

    rate = args.rate_mbps * 125_000 if args.rate_mbps else None
    cluster = connect(
        args.listen,
        size=args.nodes,
        rate_bytes_per_s=rate,
        timeout=args.job_timeout,
        connect_timeout=args.connect_timeout,
        handshake_timeout=args.handshake_timeout,
        failure_timeout=args.failure_timeout,
    )
    service = SortService(
        cluster,
        control=args.control,
        max_queue_depth=args.max_queue_depth,
        default_quota=TenantQuota(
            max_concurrent=args.max_concurrent,
            max_queued=args.max_queued,
        ),
        max_retries=args.max_retries,
        shrink_to_fit=args.shrink_to_fit,
    )
    # Machine-parseable lines first (the smoke harness scrapes them),
    # before start() blocks waiting for workers.
    print(f"[serve] rendezvous {cluster.address}", flush=True)
    print(f"[serve] control {service.control_address}", flush=True)
    print(f"[serve] waiting for {args.nodes} workers — start them with: "
          f"repro worker --join {cluster.address}", flush=True)

    def _on_term(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, _on_term)
    try:
        service.start()
        print("[serve] ready", flush=True)
        while not service.closed:
            time.sleep(0.25)
    except TcpClusterError as exc:
        print(f"serve failed: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
        cluster.close()
        print("[serve] stopped", flush=True)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceRejected

    client = ServiceClient(args.connect)
    spec = _job_spec(args, args.workers)
    try:
        handle = client.submit(
            spec,
            tenant=args.tenant,
            priority=args.priority,
            workers=args.workers,
        )
    except ServiceRejected as exc:
        print(f"rejected ({exc.kind}): {exc}", file=sys.stderr)
        return 3
    workers = args.workers if args.workers else "all"
    print(f"submitted job {handle.job_id} "
          f"(tenant={args.tenant}, priority={args.priority}, "
          f"workers={workers})")
    if args.no_wait:
        return 0
    try:
        run = handle.result(timeout=args.wait_timeout)
    except TimeoutError as exc:
        print(f"{exc}", file=sys.stderr)
        return 4
    except RuntimeError as exc:
        print(f"job {handle.job_id} failed: {exc}", file=sys.stderr)
        return 1
    n_out = sum(len(p) for p in run.partitions)
    print(f"job {handle.job_id} done: {len(run.partitions)} sorted "
          f"partitions, {n_out} records")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient
    from repro.utils.tables import format_table

    client = ServiceClient(args.connect)
    stats = client.stats()
    jobs = client.status(args.job)
    if args.json:
        import json

        print(json.dumps(
            {"stats": stats.to_dict(), "jobs": jobs}, indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"workers: {stats.workers_live}/{stats.workers} live; "
          f"jobs: {stats.jobs_queued} queued, {stats.jobs_running} running, "
          f"{stats.jobs_done} done, {stats.jobs_failed} failed, "
          f"{stats.jobs_rejected} rejected")
    if stats.queue_wait_p50 is not None:
        print(f"queue wait: p50 {stats.queue_wait_p50:.3f}s, "
              f"p95 {stats.queue_wait_p95:.3f}s")
    if stats.tenants:
        print(format_table(
            ["tenant", "queued", "running", "done", "failed", "rejected",
             "bytes sorted"],
            [[name, t.jobs_queued, t.jobs_running, t.jobs_done,
              t.jobs_failed, t.jobs_rejected, t.bytes_sorted]
             for name, t in sorted(stats.tenants.items())],
        ))
    if jobs:
        print(format_table(
            ["job", "tenant", "state", "workers", "attempts", "error"],
            [[j["job_id"], j["tenant"], j["state"],
              ",".join(str(w) for w in j["workers_used"]) or j["workers"],
              j["attempts"],
              (j["error"][0] if j["error"] else "")]
             for j in jobs],
        ))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.model import simulate_coded_terasort, simulate_terasort
    from repro.utils.tables import format_table

    try:
        if args.algorithm == "coded":
            rep = simulate_coded_terasort(
                args.nodes, args.redundancy, n_records=args.records
            )
        else:
            rep = simulate_terasort(args.nodes, n_records=args.records)
    except ValueError as err:
        raise SystemExit(str(err))
    print(f"modelled {rep.algorithm}: K={rep.num_nodes}, r={rep.redundancy}, "
          f"{rep.n_records} records, {rep.transfers} transfers")
    print(format_table(
        ["stage", "seconds"],
        [[s, rep.stage_times.seconds[s]] for s in rep.stage_times.stages]
        + [["total", rep.total_time]],
        decimals=2,
    ))
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_table
    from repro.experiments.tables import table1, table2, table3

    for t in (table1, table2, table3):
        print(render_table(t()))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments.figures import fig2_series, sweep_k, sweep_r
    from repro.experiments.report import render_fig2, render_sweep

    print(render_fig2(fig2_series(measure=not args.fast, max_measured_r=6)))
    print(render_sweep(sweep_r(), "Speedup vs r (K=16)"))
    print(render_sweep(sweep_k(), "Speedup vs K (r=3)"))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_all, write_experiments_md

    if args.output:
        write_experiments_md(args.output, fast=args.fast)
        print(f"wrote {args.output}")
    else:
        print(render_all(fast=args.fast))
    return 0


def _cmd_theory(args: argparse.Namespace) -> int:
    from repro.core.theory import (
        TimeModel,
        load_series,
        optimal_r,
        optimal_total_time,
        predicted_total_time,
    )
    from repro.utils.tables import format_table

    k = args.nodes
    try:
        rows = load_series(k)
    except ValueError as err:
        raise SystemExit(str(err))
    print(format_table(["r", "L_uncoded", "L_CMR"], rows, decimals=4))
    if args.t_map is not None and args.t_shuffle is not None:
        model = TimeModel(
            t_map=args.t_map,
            t_shuffle=args.t_shuffle,
            t_reduce=args.t_reduce,
        )
        r_star = optimal_r(model, k)
        print(f"T_uncoded = {model.total_uncoded:.2f}s; "
              f"r* = {r_star}; "
              f"T(r*) = {predicted_total_time(model, r_star, k):.2f}s; "
              f"Eq.(5) bound = {optimal_total_time(model):.2f}s")
    return 0


def _cmd_stragglers(args: argparse.Namespace) -> int:
    from repro.stragglers.latency import ShiftedExponential
    from repro.stragglers.runner import (
        render_straggler_table,
        straggler_comparison,
    )

    latency = ShiftedExponential(shift=args.shift, rate=args.rate)
    results = straggler_comparison(
        num_workers=args.workers,
        recovery_threshold=args.threshold,
        iterations=args.iterations,
        latency=latency,
    )
    print(render_straggler_table(results))
    coded = next(r for r in results if r.scheme == "coded")
    print(f"\ncoded saving vs uncoded: "
          f"{100 * coded.reduction_vs_uncoded:.1f}% "
          f"([11] reports 31.3%-35.7%)")
    return 0


def _cmd_scalable(args: argparse.Namespace) -> int:
    from repro.experiments.figures import grouped_stages
    from repro.experiments.report import render_rows
    from repro.scalable.theory import grouped_vs_full

    k, g, r = args.nodes, args.group_size, args.redundancy
    try:
        cmp = grouped_vs_full(k, g, r)
        table = grouped_stages(k, g, r)
    except ValueError as err:
        raise SystemExit(str(err))
    print(f"grouped (g={g}, r={r}) vs full coded (r={cmp.full_redundancy}) "
          f"at K={k}:")
    print(f"  load {cmp.load_grouped:.3f} vs {cmp.load_full:.3f}; "
          f"CodeGen {cmp.codegen_grouped} vs {cmp.codegen_full} groups "
          f"({cmp.codegen_ratio:.0f}x fewer)\n")
    print(render_rows(table))
    return 0


def _cmd_wireless(args: argparse.Namespace) -> int:
    from repro.experiments.figures import wireless_protocols
    from repro.experiments.report import render_rows

    try:
        table = wireless_protocols(args.users, args.redundancy, args.records)
    except ValueError as err:
        raise SystemExit(str(err))
    print(render_rows(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codedterasort",
        description="Coded TeraSort reproduction (Li et al., 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "gen", help="write a teragen-format dataset file to disk"
    )
    p.add_argument("--records", "-n", type=int, default=60_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", "-o", required=True,
                   help="output file (raw packed 100-byte records)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sort", help="sort synthetic or on-disk data")
    _add_job_options(p)
    p.add_argument("--nodes", "-K", type=int, default=6)
    p.add_argument("--backend", choices=["thread", "process"], default="thread")
    p.add_argument("--cluster", default=None, metavar="tcp://HOST:PORT",
                   help="run on a multi-host TCP cluster: listen here as "
                        "the rendezvous coordinator and wait for --nodes "
                        "`repro worker --join` agents (overrides --backend)")
    p.add_argument("--rate-mbps", type=float, default=None,
                   help="per-node egress throttle (process/tcp backends)")
    p.add_argument("--connect-timeout", type=float, default=300.0,
                   help="with --cluster: seconds to wait for all --nodes "
                        "workers to join the rendezvous")
    p.add_argument("--handshake-timeout", type=float, default=30.0,
                   help="with --cluster: per-step bound for each worker's "
                        "rendezvous handshake")
    p.add_argument("--repeat", type=int, default=1,
                   help="run the sort N times on one session (persistent "
                        "worker pool) and report jobs/sec")
    p.add_argument("--max-retries", type=int, default=0,
                   help="automatically resubmit a job up to N times after "
                        "an infrastructure failure (worker crash or "
                        "silence); re-runs are byte-identical")
    p.add_argument("--retry-backoff", type=float, default=0.5,
                   help="base seconds between retry attempts (doubles "
                        "per attempt)")
    p.add_argument("--failure-timeout", type=float, default=None,
                   help="declare a worker dead after this many seconds "
                        "without a heartbeat (default: the backend's "
                        "setting)")
    p.set_defaults(func=_cmd_sort)

    p = sub.add_parser(
        "worker",
        help="join a tcp:// coordinator as one cluster worker agent",
    )
    p.add_argument("--join", required=True, metavar="HOST:PORT",
                   help="rendezvous coordinator address (tcp:// optional)")
    p.add_argument("--rank", type=int, default=None,
                   help="request this specific rank (duplicates are "
                        "rejected); default: lowest free rank")
    p.add_argument("--advertise", default=None, metavar="HOST",
                   help="address peers should dial for this worker's mesh "
                        "listener (default: local address of the "
                        "coordinator connection)")
    p.add_argument("--connect-timeout", type=float, default=30.0,
                   help="seconds to keep retrying the coordinator dial")
    p.add_argument("--handshake-timeout", type=float, default=30.0,
                   help="per-step bound for rendezvous and mesh setup")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant sort service daemon (standing worker "
             "mesh + control port; concurrent jobs on worker subsets)",
    )
    p.add_argument("--nodes", "-K", type=int, default=6,
                   help="mesh size: how many `repro worker` agents to admit")
    p.add_argument("--listen", default="tcp://127.0.0.1:0",
                   metavar="tcp://HOST:PORT",
                   help="worker rendezvous address (port 0 = ephemeral)")
    p.add_argument("--control", default="tcp://127.0.0.1:0",
                   metavar="tcp://HOST:PORT",
                   help="client control port for submit/status")
    p.add_argument("--rate-mbps", type=float, default=None,
                   help="per-worker egress throttle")
    p.add_argument("--job-timeout", type=float, default=300.0,
                   help="per-job wall bound")
    p.add_argument("--connect-timeout", type=float, default=300.0,
                   help="seconds to wait for all workers at startup")
    p.add_argument("--handshake-timeout", type=float, default=30.0)
    p.add_argument("--failure-timeout", type=float, default=30.0,
                   help="declare a worker dead after this long without a "
                        "heartbeat")
    p.add_argument("--max-queue-depth", type=int, default=64,
                   help="global queued-job bound (admission control)")
    p.add_argument("--max-concurrent", type=int, default=4,
                   help="default per-tenant running-job quota")
    p.add_argument("--max-queued", type=int, default=16,
                   help="default per-tenant queued-job quota")
    p.add_argument("--max-retries", type=int, default=1,
                   help="per-job retry budget for worker failures")
    p.add_argument("--shrink-to-fit", action="store_true",
                   help="let the scheduler re-plan a queued shrinkable "
                        "job onto fewer free workers when nothing fits "
                        "at full width (elastic subset scheduling)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "submit", help="submit one sort job to a running service"
    )
    p.add_argument("--connect", required=True, metavar="tcp://HOST:PORT",
                   help="the service's control address (printed by serve)")
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier in the queue (running jobs "
                        "are never preempted)")
    p.add_argument("--workers", type=int, default=None,
                   help="run on this many workers (a subset of the mesh); "
                        "default: the whole mesh")
    _add_job_options(p)
    p.add_argument("--no-wait", action="store_true",
                   help="print the job id and return without waiting")
    p.add_argument("--wait-timeout", type=float, default=600.0)
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser(
        "status", help="job table + per-tenant stats of a running service"
    )
    p.add_argument("--connect", required=True, metavar="tcp://HOST:PORT")
    p.add_argument("--job", type=int, default=None,
                   help="show only this job id")
    p.add_argument("--json", action="store_true",
                   help="machine-readable ServiceStats + job rows")
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("simulate", help="model one run at paper scale")
    p.add_argument("--algorithm", choices=["terasort", "coded"], default="coded")
    p.add_argument("--nodes", "-K", type=int, default=16)
    p.add_argument("--redundancy", "-r", type=int, default=3)
    p.add_argument("--records", "-n", type=int, default=120_000_000)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("tables", help="regenerate Tables I-III")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("figures", help="regenerate Fig. 2 and trend sweeps")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser("report", help="full reproduction report")
    p.add_argument("--output", "-o", default=None,
                   help="write markdown to this path (e.g. EXPERIMENTS.md)")
    p.add_argument("--fast", action="store_true")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("theory", help="closed-form loads / optimal r")
    p.add_argument("--nodes", "-K", type=int, default=16)
    p.add_argument("--t-map", type=float, default=None)
    p.add_argument("--t-shuffle", type=float, default=None)
    p.add_argument("--t-reduce", type=float, default=0.0)
    p.set_defaults(func=_cmd_theory)

    p = sub.add_parser(
        "stragglers",
        help="MDS-coded gradient descent vs stragglers (ref [11])",
    )
    p.add_argument("--workers", "-n", type=int, default=10)
    p.add_argument("--threshold", "-k", type=int, default=7)
    p.add_argument("--iterations", "-t", type=int, default=60)
    p.add_argument("--shift", type=float, default=1.0)
    p.add_argument("--rate", type=float, default=0.5)
    p.set_defaults(func=_cmd_stragglers)

    p = sub.add_parser(
        "scalable",
        help="grouped coded sorting vs the CodeGen wall (§VI)",
    )
    p.add_argument("--nodes", "-K", type=int, default=20)
    p.add_argument("--group-size", "-g", type=int, default=10)
    p.add_argument("--redundancy", "-r", type=int, default=5)
    p.set_defaults(func=_cmd_scalable)

    p = sub.add_parser(
        "wireless",
        help="coded shuffling over a shared wireless medium ([24]/[25])",
    )
    p.add_argument("--users", "-K", type=int, default=6)
    p.add_argument("--redundancy", "-r", type=int, default=2)
    p.add_argument("--records", "-n", type=int, default=20_000)
    p.set_defaults(func=_cmd_wireless)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
