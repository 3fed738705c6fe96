"""The designated-sender turn walk serves its targets in ring order.

``CodedTeraSortProgram._turn_walk`` is the staged uncoded sort's shuffle
and uncoded CMR's: each ``r``-subset ``S``'s first member unicasts to
every ``t ∉ S`` in the order ``(min(S) + 1) % K, …, (min(S) - 1) % K``.
Serving the next sender first is what keeps the walk's critical path at
``2(K-1)`` message times; ascending order would make it
``K(K-1)/2 + K-1``.  Each sender's unicasts are read, in send order, off
the job's traffic records.
"""

from __future__ import annotations

from typing import Dict, List

import pytest

import repro
from repro import MapReduceSpec, TeraSortSpec
from repro.core.jobs import WordCountJob
from repro.kvpairs.teragen import teragen
from repro.runtime.inproc import ThreadCluster
from repro.utils.subsets import k_subsets


def _targets_by_sender(traffic) -> Dict[int, List[int]]:
    """Each sender's shuffle unicast destinations, in send order."""
    out: Dict[int, List[int]] = {}
    for rec in traffic.records:
        if rec.stage == "shuffle" and rec.kind == "unicast":
            assert len(rec.dsts) == 1
            out.setdefault(rec.src, []).append(rec.dsts[0])
    return out


def _ring(subset, size: int) -> List[int]:
    """``S``'s targets along the ring from ``min(S)``, skipping ``S``."""
    first = min(subset)
    return [
        (first + step) % size
        for step in range(1, size)
        if (first + step) % size not in subset
    ]


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
def test_uncoded_sort_serves_targets_in_ring_order(size):
    run = repro.run(
        ThreadCluster(size, recv_timeout=30),
        TeraSortSpec(data=teragen(120 * size, seed=size)),
    )
    assert _targets_by_sender(run.traffic) == {
        rank: _ring((rank,), size) for rank in range(size)
    }


def test_uncoded_cmr_turns_follow_the_ring_from_their_first_member():
    size, redundancy = 4, 2
    texts = [f"file {i} alpha beta gamma {i % 3}" for i in range(6)]
    run = repro.run(
        ThreadCluster(size, recv_timeout=30),
        MapReduceSpec(
            WordCountJob(), texts, redundancy=redundancy, scheme="uncoded"
        ),
    )
    expected: Dict[int, List[int]] = {}
    for subset in k_subsets(size, redundancy):
        expected.setdefault(min(subset), []).extend(_ring(subset, size))
    assert _targets_by_sender(run.traffic) == expected
    # Rank 0's turns (lex order) — spelled out, so the rule is visible.
    assert expected[0] == [2, 3, 1, 3, 1, 2]
