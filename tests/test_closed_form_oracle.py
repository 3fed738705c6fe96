"""The closed forms against the coded scheme itself, enumerated.

The expected side places the files, forms the multicast groups and counts
the packets of a ``(K, g, r)`` job with ``itertools.combinations`` and
exact ``fractions.Fraction`` arithmetic; it imports nothing from
``repro``.  The side under test is :mod:`repro.core.theory`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from repro.core.theory import CodedWorkload, coded_comm_load

N_RECORDS = 7_560  # 100-byte records
D = N_RECORDS * 100


def enumerate_job(k, g, r, d):
    """Exact counts and sizes of one ``(K, g, r)`` coded job on ``d``
    bytes, by enumeration (``g = K``: ungrouped)."""
    members = range(g)  # one coding group; the K/g groups shuffle alike
    files = list(combinations(members, r))
    groups = list(combinations(members, r + 1))
    # I^t_S: file F_S's share of reducer t's partition (one of K).
    value = Fraction(d, len(files)) / k
    demand = {t: value * sum(t not in f for f in files) for t in members}
    received = dict.fromkeys(members, Fraction(0))
    sizes = []
    for group in groups:
        for sender in group:
            # One packet, XOR of one segment of I^t_{group - t} for every
            # other member t: all of group - t hold F_{group - t} and
            # split that value among themselves.
            receivers = [t for t in group if t != sender]
            segment = value / len(receivers)
            for t in receivers:
                received[t] += segment
            sizes.append(segment)
    assert received == demand  # every missing value arrives, once
    node_groups = k // g
    return {
        "num_files": len(files),
        "files_per_node": sum(0 in f for f in files),
        "num_groups": len(groups),
        "groups_per_node": sum(0 in s for s in groups),
        "total_multicasts": len(sizes) * node_groups,
        "packet_bytes": max(sizes),
        "load": sum(sizes) * node_groups / d,
    }


CASES = [(k, k, r) for k in range(2, 8) for r in range(1, k)] + [
    (4, 2, 1), (6, 3, 2), (8, 4, 2),
]


@pytest.mark.parametrize("k,g,r", CASES)
def test_closed_forms_match_the_enumerated_scheme(k, g, r):
    expected = enumerate_job(k, g, r, D)
    work = CodedWorkload(k, r, N_RECORDS, None if g == k else g)
    assert coded_comm_load(r, g) == pytest.approx(float(expected["load"]))
    for name in (
        "num_files", "files_per_node", "num_groups", "groups_per_node",
        "total_multicasts",
    ):
        assert getattr(work, name) == expected[name], name
    assert work.packet_bytes == pytest.approx(float(expected["packet_bytes"]))
    # Packet bytes x multicasts = load x D.
    assert work.packet_bytes * work.total_multicasts == pytest.approx(
        coded_comm_load(r, g) * D
    )
    assert work.shuffle_payload_total == pytest.approx(
        float(expected["load"] * D)
    )
