"""Real end-to-end runs: multiprocess workers, sockets, rate-limited NICs.

The closest local equivalent of the paper's EC2 experiment: K worker
*processes* exchange data over a socket mesh with token-bucket pacing
(the paper's ``tc``-style 100 Mbps throttle, scaled so each bench run
stays in seconds).  CodedTeraSort must beat TeraSort end-to-end when the
shuffle is bandwidth-bound — the paper's claim measured for real, not
simulated.

The TCP lane repeats the comparison on the multi-host backend: K
``repro worker`` agents rendezvous over real TCP on localhost (the same
code path that spans machines), with the same paced NICs.
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.api import MulticastMode
from repro.cluster import connect
from repro.runtime.tcp import run_worker
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.utils.tables import format_table

K = 4
R = 2
RECORDS = 40_000  # 4 MB
RATE = 4e6  # 4 MB/s per-node egress -> shuffle-bound like the paper


def bench_real_terasort_rate_limited(benchmark):
    data = teragen(RECORDS, seed=3)
    run = benchmark.pedantic(
        lambda: repro.run(
            connect(f"proc://{K}", rate_bytes_per_s=RATE, timeout=120),
            TeraSortSpec(data),
        ),
        rounds=1,
        iterations=1,
    )
    validate_sorted_permutation(data, run.partitions)
    benchmark.extra_info["shuffle_s"] = round(run.stage_times["shuffle"], 3)
    benchmark.extra_info["total_s"] = round(run.stage_times.total, 3)


def bench_real_coded_terasort_rate_limited(benchmark):
    data = teragen(RECORDS, seed=3)
    run = benchmark.pedantic(
        lambda: repro.run(
            connect(
                f"proc://{K}",
                rate_bytes_per_s=RATE,
                timeout=120,
                multicast_mode=MulticastMode.TREE,
            ),
            CodedTeraSortSpec(data, redundancy=R, schedule="serial"),
        ),
        rounds=1,
        iterations=1,
    )
    validate_sorted_permutation(data, run.partitions)
    benchmark.extra_info["shuffle_s"] = round(run.stage_times["shuffle"], 3)
    benchmark.extra_info["total_s"] = round(run.stage_times.total, 3)


def bench_real_speedup_comparison(benchmark, sink):
    """Both algorithms back-to-back; asserts the coded shuffle wins.

    Uses a larger input than the standalone benches so the rate-limited
    transfer time dominates scheduler noise (this is a real wall-clock
    measurement on whatever machine runs the suite).
    """
    data = teragen(100_000, seed=4)  # 10 MB -> ~2.5 s of paced shuffle

    def both():
        plain = repro.run(
            connect(f"proc://{K}", rate_bytes_per_s=RATE, timeout=240),
            TeraSortSpec(data),
        )
        coded = repro.run(
            connect(
                f"proc://{K}",
                rate_bytes_per_s=RATE,
                timeout=240,
                multicast_mode=MulticastMode.TREE,
            ),
            CodedTeraSortSpec(data, redundancy=R, schedule="serial"),
        )
        return plain, coded

    plain, coded = benchmark.pedantic(both, rounds=1, iterations=1)
    validate_sorted_permutation(data, plain.partitions)
    validate_sorted_permutation(data, coded.partitions)
    shuffle_gain = (
        plain.stage_times["shuffle"] / coded.stage_times["shuffle"]
    )
    if shuffle_gain <= 1.1:
        # One retry: a co-scheduled process can stall a worker mid-turn;
        # a genuine regression fails twice.
        plain, coded = both()
        shuffle_gain = (
            plain.stage_times["shuffle"] / coded.stage_times["shuffle"]
        )
    # Paper §V-C: shuffle gain is positive but below r (multicast overhead).
    assert shuffle_gain > 1.1, f"coded shuffle not faster: {shuffle_gain:.2f}"
    benchmark.extra_info["real_shuffle_gain"] = round(shuffle_gain, 2)
    benchmark.extra_info["r"] = R
    rows = []
    for label, run in (("TeraSort", plain), ("CodedTeraSort r=2", coded)):
        st = run.stage_times
        rows.append([label, st["shuffle"], st.total])
    sink.add(
        "real_cluster",
        f"Real multiprocess run — K={K}, {RECORDS} records, "
        f"{RATE/1e6:.0f} MB/s per-node throttle\n\n"
        + format_table(
            ["algorithm", "shuffle (s)", "total (s)"],
            rows,
            decimals=3,
            markdown=True,
        ),
    )


def bench_real_tcp_cluster_speedup(benchmark, sink):
    """The paper's comparison on the multi-host TCP backend.

    K worker agents rendezvous over real TCP (localhost, same code path
    as separate machines) with paced NICs; both algorithms run
    back-to-back on one ``Session`` over the standing mesh, and the
    coded shuffle must win.
    """
    ctx = multiprocessing.get_context("fork")
    data = teragen(100_000, seed=4)  # 10 MB -> ~2.5 s of paced shuffle

    def both():
        with connect(
            "tcp://127.0.0.1:0",
            size=K,
            rate_bytes_per_s=RATE,
            timeout=240,
            multicast_mode=MulticastMode.TREE,
            connect_timeout=60,
        ) as cluster:
            procs = [
                ctx.Process(
                    target=run_worker,
                    kwargs=dict(join=cluster.address, quiet=True),
                    daemon=True,
                )
                for _ in range(K)
            ]
            for p in procs:
                p.start()
            try:
                with Session(cluster) as session:
                    plain = session.submit(TeraSortSpec(data=data)).result()
                    coded = session.submit(
                        CodedTeraSortSpec(
                            data=data, redundancy=R, schedule="serial"
                        )
                    ).result()
            finally:
                for p in procs:
                    p.join(timeout=30)
                    if p.is_alive():  # pragma: no cover - defensive
                        p.terminate()
                        p.join()
        return plain, coded

    plain, coded = benchmark.pedantic(both, rounds=1, iterations=1)
    validate_sorted_permutation(data, plain.partitions)
    validate_sorted_permutation(data, coded.partitions)
    shuffle_gain = plain.stage_times["shuffle"] / coded.stage_times["shuffle"]
    if shuffle_gain <= 1.1:
        # One retry: a co-scheduled process can stall a worker mid-turn;
        # a genuine regression fails twice.
        plain, coded = both()
        shuffle_gain = (
            plain.stage_times["shuffle"] / coded.stage_times["shuffle"]
        )
    assert shuffle_gain > 1.1, f"coded shuffle not faster: {shuffle_gain:.2f}"
    benchmark.extra_info["real_tcp_shuffle_gain"] = round(shuffle_gain, 2)
    rows = []
    for label, run in (("TeraSort", plain), ("CodedTeraSort r=2", coded)):
        st = run.stage_times
        rows.append([label, st["shuffle"], st.total])
    sink.add(
        "real_cluster_tcp",
        f"Multi-host TCP backend (localhost mesh) — K={K}, 100000 records, "
        f"{RATE/1e6:.0f} MB/s per-node throttle, one session for both jobs"
        "\n\n"
        + format_table(
            ["algorithm", "shuffle (s)", "total (s)"],
            rows,
            decimals=3,
            markdown=True,
        ),
    )
