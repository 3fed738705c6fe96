"""Invariants of the one sort pipeline that byte-identity cannot see.

* **Perf invariant.**  A staged in-memory job — uncoded, coded serial,
  coded parallel — sorts exactly once per rank (the ``sort_batches`` call
  of Reduce) and builds no ``IncrementalMerger``: the merge frontier of
  that path only collects.
* **Wire invariants.**  Staged jobs put the frames on the wire that they
  always did: message count and load bytes at (K=4, r=2, 4 000 records),
  in memory and under an 8 MiB budget, pinned from the commit before the
  pipeline was unified.
* **No wasted serialization.**  The coded sort serializes exactly the
  retained values a coded packet can draw on (``target != rank``); the
  node's own partition goes to Reduce unserialized.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.mapper import hash_file
from repro.core.placement import CodedPlacement
from repro.kvpairs import sorting, spill
from repro.kvpairs.datasource import InlineSource
from repro.kvpairs.teragen import teragen
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.utils import copytrack

K, R = 4, 2


def _staged_specs(data, memory_budget=None):
    return {
        "uncoded": TeraSortSpec(data=data, memory_budget=memory_budget),
        "coded-serial": CodedTeraSortSpec(
            data=data, redundancy=R, schedule="serial",
            memory_budget=memory_budget,
        ),
        "coded-parallel": CodedTeraSortSpec(
            data=data, redundancy=R, schedule="parallel",
            memory_budget=memory_budget,
        ),
    }


@pytest.mark.parametrize("lane", ["uncoded", "coded-serial", "coded-parallel"])
def test_staged_in_memory_sorts_once_and_never_merges(
    lane, monkeypatch, thread_cluster_factory
):
    sorts, mergers = Counter(), []
    stable_order = sorting._stable_order
    merger_init = spill.IncrementalMerger.__init__

    def counting_order(hi, lo):
        sorts[threading.get_ident()] += 1  # one rank = one thread
        return stable_order(hi, lo)

    def counting_init(self, *args, **kwargs):
        mergers.append(self)
        merger_init(self, *args, **kwargs)

    monkeypatch.setattr(sorting, "_stable_order", counting_order)
    monkeypatch.setattr(spill.IncrementalMerger, "__init__", counting_init)
    data = teragen(4000, seed=19)
    with Session(thread_cluster_factory(K)) as s:
        run = s.submit(_staged_specs(data)[lane]).result()
    assert run.total_records == len(data)
    assert sorted(sorts.values()) == [1] * K
    assert mergers == []


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


def test_only_non_own_retained_values_are_serialized(thread_cluster_factory):
    k, r = 6, 3
    data = teragen(6000, seed=5)
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
    serialized = sum(
        copied.get(site, 0)
        for site in ("records.to_bytes", "spill.store_seal")
    )
    assert serialized == expected > 0
