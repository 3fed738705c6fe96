"""Shuffle-load oracle: count the bytes a (coded) shuffle must move.

Standalone on purpose — it enumerates files, multicast groups and packets
with itertools and exact fractions and imports nothing from ``repro``, so
it checks the program's ``TrafficLog`` totals against the scheme itself
rather than against the program's own closed form (``core.theory``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def shuffle_load(num_nodes: int, redundancy: int = 1) -> Fraction:
    """Shuffle bytes / input bytes for K nodes at computation load r.

    A multicast packet counts once, however many nodes it serves.  The
    uncoded TeraSort is the r = 1 case: every "group" is a pair and every
    packet is a plain unicast of one whole intermediate value.
    """
    k, r = num_nodes, redundancy
    files = list(combinations(range(k), r))  # file F_S lives on the nodes S
    value = Fraction(1, len(files)) / k  # I^t_S: the part of F_S keyed to t
    load = Fraction(0)
    for group in combinations(range(k), r + 1):  # every multicast group M
        for sender in group:
            # E_{M,sender} XORs, for each t in M\{sender}, the sender's
            # 1/r segment of I^t_{M\{t}}: as long as one segment, sent once.
            load += value / r
    # L(r) = (1/r)(1 - r/K), Coded MapReduce (arXiv 1604.07086, Theorem 1).
    if load != Fraction(1, r) * (1 - Fraction(r, k)):
        raise ArithmeticError(f"enumerated load {load} is not L({r}) at K={k}")
    return load


def check_load(measured: float, num_nodes: int, redundancy: int,
               tolerance: float) -> str:
    """'' when ``measured`` is within ``tolerance`` of the oracle, else why."""
    expected = float(shuffle_load(num_nodes, redundancy))
    if abs(measured - expected) <= tolerance * expected:
        return ""
    return (
        f"shuffle load {measured:.6f} is not within {tolerance:.0%} of the "
        f"oracle {expected:.6f} (K={num_nodes}, r={redundancy})"
    )
