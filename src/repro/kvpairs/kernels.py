"""The MSB radix partition: the map-side compute kernel.

Every TeraSort/CodedTeraSort Map hashes its records into ``K`` range
partitions; this module is the kernel behind that pass.

The **radix table** replaces the per-record
``np.searchsorted(boundaries, hi)`` walk with a 2^16-entry lookup table
on the top 16 key bits (one shift + one gather per record; only records
landing in the few table cells that contain a splitter fall back to
``searchsorted``), and the partition *grouping* pass replaces the
``int64`` stable argsort with a radix bucket sort over ``int16`` bucket
ids, producing grouped order and per-partition counts in one pass.

Both are exactly equal to the ``searchsorted`` / stable-``argsort``
formulation they replace — same indices, same stable order.  Batches
below :data:`RADIX_MIN_BATCH` records keep the direct ``searchsorted``
walk (building the table would cost more than it saves); the choice is
made from the batch size alone.

The reduce side has no kernel of its own: a merge of sorted runs is the
one-word stable sort of their concatenation
(:func:`repro.kvpairs.sorting.sort_batches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

#: Minimum batch size for which building the radix table pays off.
RADIX_MIN_BATCH = 2048

#: Number of radix table cells (top 16 bits of the key prefix).
_RADIX_CELLS = 1 << 16
_RADIX_SHIFT = np.uint64(48)


@dataclass
class RadixTable:
    """Top-16-bit lookup table for range partitioning.

    ``cells[t]`` is the partition index of every key whose top 16 bits
    equal ``t``, or ``-1`` for the (at most ``K-1``) ambiguous cells
    that contain a splitter boundary and need the ``searchsorted``
    fallback.
    """

    cells: np.ndarray  # (65536,) int32
    has_ambiguous: bool

    @classmethod
    def build(cls, boundaries: np.ndarray) -> "RadixTable":
        cell_floor = (
            np.arange(_RADIX_CELLS, dtype=np.uint64) << _RADIX_SHIFT
        )
        cells = np.searchsorted(boundaries, cell_floor, side="right")
        cells = cells.astype(np.int32)
        # A cell is ambiguous iff a boundary falls strictly inside it
        # (keys below/above the boundary map to different partitions).
        # Marking the boundary's own cell is conservative and correct.
        amb = np.unique(
            (np.asarray(boundaries, dtype=np.uint64) >> _RADIX_SHIFT)
        ).astype(np.int64)
        has_ambiguous = len(amb) > 0
        if has_ambiguous:
            cells[amb] = -1
        return cls(cells=cells, has_ambiguous=has_ambiguous)

    def partition(
        self, hi: np.ndarray, boundaries: np.ndarray
    ) -> np.ndarray:
        """Exact partition index per key prefix (int64)."""
        idx = self.cells[(hi >> _RADIX_SHIFT).astype(np.int64)]
        idx = idx.astype(np.int64)
        if self.has_ambiguous:
            bad = np.flatnonzero(idx < 0)
            if len(bad):
                idx[bad] = np.searchsorted(
                    boundaries, hi[bad], side="right"
                )
        return idx


def group_by_partition(
    idx: np.ndarray, num_partitions: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Stable grouped order plus per-partition counts, in one pass.

    The grouping permutation comes from a radix bucket sort over the
    ``int16`` bucket ids (NumPy's stable argsort dispatches to radix
    sort for 16-bit integers — O(n), versus the comparison sort an
    ``int64`` stable argsort runs); counts come from one ``bincount``.

    Returns:
        ``(order, counts)`` — ``order`` stably groups records by
        partition; ``counts[j]`` is partition ``j``'s record count.
    """
    counts = np.bincount(idx, minlength=num_partitions)
    if num_partitions <= np.iinfo(np.int16).max:
        order = np.argsort(idx.astype(np.int16), kind="stable")
    else:  # pragma: no cover - K beyond int16 range
        order = np.argsort(idx, kind="stable")
    return order, counts
