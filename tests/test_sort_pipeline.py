"""Invariants of the one sort pipeline that byte-identity cannot see.

* **Perf invariant.**  An in-memory job — uncoded, coded serial, coded
  parallel, staged or overlapped — sorts exactly once per rank (the
  ``sort_batches`` call of Reduce) and builds no ``IncrementalMerger``:
  without a budget the merge frontier only collects.  Under a budget it
  builds one, whose merge count reaches ``meta["kernel_stats"]`` per
  program (the same on every backend) and whose spill dir holds run
  files and nothing else.
* **Wire invariants.**  Staged jobs put the frames on the wire that they
  always did: message count and load bytes at (K=4, r=2, 4 000 records),
  in memory and under an 8 MiB budget, pinned from the commit before the
  pipeline was unified; the uncoded sort's overlapped, 64 KiB-budgeted
  and speculative shuffles likewise.
* **No wasted serialization.**  The coded sort seals exactly the
  retained values a coded packet can draw on (``target != rank``); the
  node's own partition goes to Reduce unsealed.  In memory the map's
  gather is the only copy a retained value costs: sealing a one-piece
  value keeps the map's buffer, and nothing is serialized or compacted
  after the map.
"""

from __future__ import annotations

import os
import threading
from collections import Counter

import pytest

from repro.cluster import connect
from repro.core.mapper import hash_file
from repro.core.placement import CodedPlacement
from repro.kvpairs import sorting, spill
from repro.kvpairs.datasource import InlineSource, TeragenSource
from repro.kvpairs.teragen import teragen
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.utils import copytrack

K, R = 4, 2


def _staged_specs(data, memory_budget=None, overlap=False):
    return {
        "uncoded": TeraSortSpec(
            data=data, memory_budget=memory_budget, overlap=overlap
        ),
        "coded-serial": CodedTeraSortSpec(
            data=data, redundancy=R, schedule="serial",
            memory_budget=memory_budget, overlap=overlap,
        ),
        "coded-parallel": CodedTeraSortSpec(
            data=data, redundancy=R, schedule="parallel",
            memory_budget=memory_budget, overlap=overlap,
        ),
    }


@pytest.fixture
def mergers(monkeypatch):
    """Every ``IncrementalMerger`` constructed while the test runs."""
    built = []
    merger_init = spill.IncrementalMerger.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        merger_init(self, *args, **kwargs)

    monkeypatch.setattr(spill.IncrementalMerger, "__init__", counting_init)
    return built


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("lane", ["uncoded", "coded-serial", "coded-parallel"])
def test_in_memory_sorts_once_and_never_merges(
    lane, overlap, mergers, monkeypatch, thread_cluster_factory
):
    sorts = Counter()
    stable_order = sorting._stable_order

    def counting_order(hi, lo):
        sorts[threading.get_ident()] += 1  # one rank = one thread
        return stable_order(hi, lo)

    monkeypatch.setattr(sorting, "_stable_order", counting_order)
    data = teragen(4000, seed=19)
    with Session(thread_cluster_factory(K)) as s:
        run = s.submit(_staged_specs(data, overlap=overlap)[lane]).result()
    assert run.total_records == len(data)
    assert sorted(sorts.values()) == [1] * K
    assert mergers == []
    assert run.meta["kernel_stats"] == {"merge_records": 0}


@pytest.mark.parametrize("lane", ["uncoded", "coded-parallel"])
def test_overlapped_budgeted_job_merges_on_run_files_only(
    lane, mergers, monkeypatch, thread_cluster_factory
):
    """Under a budget the overlapped frontier is one merger per rank, and
    every file its spill dir ever holds is a ``.bin`` run file."""
    seen = set()
    new_path, cleanup = spill.SpillDir.new_path, spill.SpillDir.cleanup

    def walking_new_path(self, prefix="run"):
        seen.update(os.listdir(self.path))
        return new_path(self, prefix)

    def walking_cleanup(self):
        if self.exists:
            seen.update(os.listdir(self.path))
        cleanup(self)

    monkeypatch.setattr(spill.SpillDir, "new_path", walking_new_path)
    monkeypatch.setattr(spill.SpillDir, "cleanup", walking_cleanup)
    data = teragen(20_000, seed=23)
    spec = _staged_specs(data, memory_budget=256 * 1024, overlap=True)[lane]
    with Session(thread_cluster_factory(K)) as s:
        run = s.submit(spec).result()
    assert run.total_records == len(data)
    assert len(mergers) == K
    assert sum(m.eager_merges for m in mergers) > 0
    assert run.meta["oc_spill_runs"] > 0 and seen
    assert {os.path.splitext(name)[1] for name in seen} == {".bin"}
    assert run.meta["kernel_stats"]["merge_records"] == sum(
        m.merged_records for m in mergers
    )


@pytest.mark.parametrize("lane", ["uncoded", "coded-parallel"])
def test_overlapped_budgeted_job_stays_within_its_budget(
    lane, tmp_path, thread_cluster_factory
):
    """Overlapped, Map and Reduce hold records at the same time: the
    arrivals Reduce keeps while the map runs fit in what the map leaves,
    so the peak stays within the budget on both lanes."""
    budget = 750_000
    source = TeragenSource(8 * budget // 100, seed=3)
    options = dict(
        input=source, memory_budget=budget, output_dir=str(tmp_path),
        overlap=True,
    )
    spec = (
        TeraSortSpec(**options) if lane == "uncoded"
        else CodedTeraSortSpec(redundancy=R, schedule="parallel", **options)
    )
    with Session(thread_cluster_factory(K)) as s:
        run = s.submit(spec).result()
    assert run.total_records == len(source)
    assert run.meta["oc_spill_runs"] > 0
    assert run.meta["oc_peak_resident_bytes"] <= budget


def test_merge_records_are_counted_per_program():
    """The same job reports the same ``merge_records`` on rank threads
    and rank processes, run after run: the count belongs to the program
    that merged, not to the process it shares with its peers."""

    data = teragen(60_000, seed=31)
    for memory_budget in (None, 8 * 1024 * 1024):
        spec = CodedTeraSortSpec(
            data=data, redundancy=2, schedule="parallel", overlap=True,
            memory_budget=memory_budget,
        )
        counts = []
        for cluster in (
            connect("inproc://6", timeout=60.0),
            connect("proc://6", timeout=60.0),
        ):
            with Session(cluster) as s:
                for _ in range(2):
                    run = s.submit(spec).result()
                    assert run.total_records == len(data)
                    counts.append(run.meta["kernel_stats"]["merge_records"])
        # In memory nothing merges; under this budget every rank's runs
        # (one per slot, so no pair merges) meet once, in ``finish``.
        expected = 0 if memory_budget is None else len(data)
        assert counts == [expected] * 4


@pytest.mark.parametrize("memory_budget", [None, 8 * 1024 * 1024])
def test_staged_wire_traffic_is_what_it_was(
    memory_budget, thread_cluster_factory
):
    # (messages, load bytes) of the shuffle stage at the parent commit.
    pinned = {
        "uncoded": (12, 298_540),
        "coded-serial": (12, 104_048),
        "coded-parallel": (12, 104_048),
    }
    data = teragen(4000, seed=19)
    for lane, spec in _staged_specs(data, memory_budget).items():
        with Session(thread_cluster_factory(K)) as s:
            traffic = s.submit(spec).result().traffic
        assert (
            traffic.message_count("shuffle"),
            traffic.load_bytes("shuffle"),
        ) == pinned[lane], lane
        assert traffic.load_bytes() == pinned[lane][1], lane


def test_uncoded_wire_traffic_is_what_it_was(thread_cluster_factory):
    """The uncoded sort's overlapped, budgeted and speculative shuffles
    keep their frames: (messages, load bytes) of the shuffle stage,
    pinned while the uncoded sort still ran a program body of its own.
    (Spill-run counts vary under overlap, so they are not pinned.)"""
    data = teragen(4000, seed=19)
    budget = 64 * 1024
    cells = {
        "overlapped, in memory": (
            TeraSortSpec(data=data, overlap=True), (36, 298_816)
        ),
        "staged, 64 KiB budget": (
            TeraSortSpec(data=data, memory_budget=budget), (12, 299_020)
        ),
        "overlapped, 64 KiB budget": (
            TeraSortSpec(data=data, memory_budget=budget, overlap=True),
            (48, 299_068),
        ),
        "speculation, no straggler": (
            TeraSortSpec(input=TeragenSource(4000, seed=19), speculation=True),
            (12, 298_792),
        ),
    }
    for cell, (spec, pinned) in cells.items():
        with Session(thread_cluster_factory(K)) as s:
            run = s.submit(spec).result()
        traffic = run.traffic
        assert (
            traffic.message_count("shuffle"),
            traffic.load_bytes("shuffle"),
        ) == pinned, cell
        assert run.total_records == len(data), cell


def test_only_non_own_retained_values_are_serialized(
    thread_cluster_factory, monkeypatch
):
    k, r = 6, 3
    data = teragen(6000, seed=5)
    sealed = []
    seal = spill.StreamStore.seal

    def recording_seal(store, key):
        seal(store, key)
        sealed.append(store.get(key).nbytes)

    monkeypatch.setattr(spill.StreamStore, "seal", recording_seal)
    with copytrack.track() as copied:
        with Session(thread_cluster_factory(k)) as s:
            run = s.submit(
                CodedTeraSortSpec(data=data, redundancy=r)
            ).result()
    placement = CodedPlacement(k, r)
    expected = 0
    for fid, source in enumerate(placement.split_source(InlineSource(data))):
        subset = placement.subset_of_file(fid)
        parts = hash_file(source.load(), run.partitioner)
        # Each of the r nodes holding the file keeps I^j_S for j outside S.
        expected += r * sum(
            parts[j].nbytes for j in range(k) if j not in subset
        )
    # The stores hold exactly those values, and none of them is copied
    # again after the map's gather.
    assert sum(sealed) == expected > 0
    for site in ("spill.store_seal", "records.to_bytes", "records.compact"):
        assert copied.get(site, 0) == 0, site
