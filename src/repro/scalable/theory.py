"""The grouped (scalable) construction next to plain CodedTeraSort.

All loads are normalized by the total input bytes ``D`` (the paper's
convention for Eq. (2)).  With ``K`` nodes in groups of ``g`` and
within-group redundancy ``r``:

====================  =======================  ========================
quantity              plain CodedTeraSort      grouped
====================  =======================  ========================
comm load             ``(1/r)(1 - r/K)``       ``(1/r)(1 - r/g)``
CodeGen groups        ``C(K, r+1)``            ``C(g, r+1)`` per group
per-node storage      ``r/K`` of input         ``r/g`` of input
shuffle concurrency   1 (serial fabric)        ``G = K/g`` group shuffles
====================  =======================  ========================

The load and the group counts are :mod:`repro.core.theory`'s at ``K -> g``
(:func:`~repro.core.theory.coded_comm_load`,
:class:`~repro.core.theory.CodedWorkload`); this module compares the two.
The grouped scheme's load is higher (g < K) but its CodeGen is
exponentially smaller and its shuffle parallelizes perfectly across
groups — the trade the paper's "Scalable Coding" future direction asks
for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.theory import CodedWorkload, check_params, coded_comm_load


def grouped_storage_fraction(redundancy: int, group_size: int) -> float:
    """Per-node stored fraction of the input: ``r / g``."""
    check_params(group_size, redundancy, group_size)
    return redundancy / group_size


@dataclass(frozen=True)
class GroupedComparison:
    """Grouped vs plain coded at one configuration.

    Attributes:
        num_nodes / group_size / redundancy: the grouped configuration.
        full_redundancy: the plain-coded ``r`` compared against.
        load_grouped / load_full: normalized shuffle loads.
        codegen_grouped / codegen_full: total multicast-group setups.
        storage_grouped / storage_full: per-node stored input fraction.
    """

    num_nodes: int
    group_size: int
    redundancy: int
    full_redundancy: int
    load_grouped: float
    load_full: float
    codegen_grouped: int
    codegen_full: int
    storage_grouped: float
    storage_full: float

    @property
    def load_ratio(self) -> float:
        """Grouped load / full load (>= 1: grouping never reduces load)."""
        return self.load_grouped / self.load_full

    @property
    def codegen_ratio(self) -> float:
        """Full CodeGen size / grouped (the scalability win)."""
        return self.codegen_full / max(self.codegen_grouped, 1)


def grouped_vs_full(
    num_nodes: int,
    group_size: int,
    redundancy: int,
    full_redundancy: int = None,
) -> GroupedComparison:
    """Compare the grouped scheme against plain CodedTeraSort.

    Args:
        num_nodes: ``K``.
        group_size: ``g`` (must divide ``K``).
        redundancy: grouped within-group ``r``.
        full_redundancy: the plain scheme's ``r``; defaults to matching
            the grouped scheme's *per-node storage* (``r_full = r K / g``
            when integral, else the same ``r`` — an equal-storage
            comparison is the fair one).

    Returns:
        The full :class:`GroupedComparison`.
    """
    grouped = CodedWorkload(num_nodes, redundancy, 0, group_size)
    if full_redundancy is None:
        scaled = redundancy * num_nodes // group_size
        if (
            scaled * group_size == redundancy * num_nodes
            and 1 <= scaled < num_nodes
        ):
            full_redundancy = scaled
        else:
            full_redundancy = redundancy
    return GroupedComparison(
        num_nodes=num_nodes,
        group_size=group_size,
        redundancy=redundancy,
        full_redundancy=full_redundancy,
        load_grouped=coded_comm_load(redundancy, group_size),
        load_full=coded_comm_load(full_redundancy, num_nodes),
        codegen_grouped=grouped.node_groups * grouped.num_groups,
        codegen_full=CodedWorkload(num_nodes, full_redundancy, 0).num_groups,
        storage_grouped=grouped_storage_fraction(redundancy, group_size),
        storage_full=grouped_storage_fraction(full_redundancy, num_nodes),
    )
