"""The top-level package surface: everything advertised must work."""

from __future__ import annotations

import repro


def test_all_exports_resolve():
    missing = [name for name in repro.__all__ if not hasattr(repro, name)]
    assert missing == []


def test_version():
    assert repro.__version__ == "1.0.0"


def test_quickstart_surface():
    """The README quickstart, miniaturized: one session, three jobs."""
    data = repro.teragen(3000, seed=1)
    with repro.Session(repro.ThreadCluster(4)) as session:
        base = session.submit(repro.TeraSortSpec(data=data))
        coded = session.submit(
            repro.CodedTeraSortSpec(data=data, redundancy=2)
        )
        fast = session.submit(
            repro.CodedTeraSortSpec(
                data=data, redundancy=2, schedule="parallel"
            )
        )
        runs = [h.result() for h in (base, coded, fast)]
    for run in runs:
        repro.validate_sorted_permutation(data, run.partitions)
    assert runs[1].traffic.load_bytes("shuffle") < runs[0].traffic.load_bytes(
        "shuffle"
    )
    assert runs[2].meta["schedule_rounds"] <= runs[2].meta["schedule_turns"]
    assert base.done() and coded.done() and fast.done()


def test_one_shot_run_surface():
    """``repro.run(cluster, spec)`` is the one-shot entry point; the three
    per-algorithm shims it replaced are gone from the surface."""
    for algorithm in ("terasort", "coded_terasort", "mapreduce"):
        gone = f"run_{algorithm}"
        assert gone not in repro.__all__ and not hasattr(repro, gone)
    data = repro.teragen(2000, seed=3)
    base = repro.run(repro.ThreadCluster(4), repro.TeraSortSpec(data))
    coded = repro.run(
        repro.ThreadCluster(4),
        repro.CodedTeraSortSpec(data, redundancy=2),
    )
    repro.validate_sorted_permutation(data, base.partitions)
    repro.validate_sorted_permutation(data, coded.partitions)
    assert coded.traffic.load_bytes("shuffle") < base.traffic.load_bytes(
        "shuffle"
    )


def test_session_surface_names():
    """Every advertised session-API name resolves and is exported."""
    for name in (
        "Session",
        "JobSpec",
        "JobHandle",
        "TeraSortSpec",
        "CodedTeraSortSpec",
        "MapReduceSpec",
        "run",
    ):
        assert hasattr(repro, name)
        assert name in repro.__all__


def test_extension_entry_points():
    data = repro.teragen(2000, seed=2)
    grouped = repro.run(
        repro.ThreadCluster(4),
        repro.CodedTeraSortSpec(data, redundancy=1, group_size=2),
    )
    repro.validate_sorted_permutation(data, grouped.partitions)
    wireless = repro.run_wireless_sort(data, 4, 2, protocol="d2d")
    repro.validate_sorted_permutation(data, wireless.partitions)
    results = repro.straggler_comparison(iterations=5)
    assert {r.scheme for r in results} == {
        "uncoded", "replication", "coded",
    }
