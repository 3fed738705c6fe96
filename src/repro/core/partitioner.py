"""Key-domain partitioning (§III-A2).

The key domain is split into ``K`` ordered ranges ``P_1 < P_2 < ... < P_K``;
node ``k`` reduces (sorts) partition ``P_k``.  Keys are compared as 10-byte
big-endian integers; partitioning operates on the first 8 key bytes viewed as
``uint64`` (``hi``), which is a deterministic function of the key, so records
with equal ``hi`` always land in the same partition and global order across
partitions is preserved.

Two splitter constructions are provided:

* :meth:`RangePartitioner.uniform` — evenly spaced boundaries over the full
  ``[0, 2^64)`` prefix space; optimal for TeraGen's uniform keys (what the
  paper uses);
* :meth:`RangePartitioner.from_sample` — boundaries at the empirical
  quantiles of a key sample, the way Hadoop TeraSort's partitioner samples
  input splits; necessary for skewed inputs.

:meth:`RangePartitioner.partition_indices` routes batches of at least
``kernels.RADIX_MIN_BATCH`` records through the MSB radix table of
:mod:`repro.kvpairs.kernels` — a lazily built, per-process 2^16-entry
lookup on the top 16 key bits whose output is exactly equal to the
``searchsorted`` walk that smaller batches take.  The table is a local
cache: it is dropped on pickling, so shipping a partitioner inside a job
descriptor stays as small as the boundary list itself.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.kvpairs import kernels
from repro.kvpairs.records import RecordBatch

_U64_SPAN = 1 << 64


class RangePartitioner:
    """Maps 10-byte keys to one of ``K`` ordered range partitions.

    Attributes:
        num_partitions: ``K``.
        boundaries: ``K-1`` ascending uint64 split points; partition ``i``
            holds keys with ``boundaries[i-1] <= hi < boundaries[i]``.
    """

    def __init__(self, boundaries: Sequence[int], num_partitions: int) -> None:
        bounds = np.asarray(list(boundaries), dtype=np.uint64)
        if len(bounds) != num_partitions - 1:
            raise ValueError(
                f"need {num_partitions - 1} boundaries for {num_partitions} "
                f"partitions, got {len(bounds)}"
            )
        if len(bounds) > 1 and not (bounds[:-1] <= bounds[1:]).all():
            raise ValueError("boundaries must be non-decreasing")
        self.num_partitions = int(num_partitions)
        self.boundaries = bounds
        self._radix: Optional[kernels.RadixTable] = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def uniform(cls, num_partitions: int) -> "RangePartitioner":
        """Evenly spaced boundaries over the 64-bit key-prefix space."""
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        step = _U64_SPAN // num_partitions
        bounds = [step * i for i in range(1, num_partitions)]
        return cls(bounds, num_partitions)

    @classmethod
    def from_sample(
        cls,
        sample: RecordBatch,
        num_partitions: int,
    ) -> "RangePartitioner":
        """Boundaries at the empirical quantiles of ``sample``'s keys.

        With ``s`` sampled keys the ``i``-th boundary is the
        ``ceil(i * s / K)``-th order statistic, mirroring TeraSort's
        sampled splitter selection.  Duplicated quantiles (extreme skew)
        degrade to empty partitions rather than failing.
        """
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        if len(sample) == 0:
            return cls.uniform(num_partitions)
        hi = np.sort(sample.key_prefix_u64())
        s = len(hi)
        bounds = []
        for i in range(1, num_partitions):
            idx = min(s - 1, max(0, (i * s) // num_partitions))
            bounds.append(int(hi[idx]))
        return cls(bounds, num_partitions)

    # -- mapping -------------------------------------------------------------

    def partition_indices(self, batch: RecordBatch) -> np.ndarray:
        """Partition index in ``[0, K)`` for every record (vectorized).

        Large batches use the radix lookup table (identical output);
        small ones keep the direct ``searchsorted`` walk.
        """
        hi = batch.key_prefix_u64()
        if self.num_partitions >= 2 and len(batch) >= kernels.RADIX_MIN_BATCH:
            if self._radix is None:
                self._radix = kernels.RadixTable.build(self.boundaries)
            return self._radix.partition(hi, self.boundaries)
        return np.searchsorted(self.boundaries, hi, side="right").astype(np.int64)

    def partition_of_prefix(self, hi: int) -> int:
        """Partition index for a single 64-bit key prefix."""
        return int(
            np.searchsorted(self.boundaries, np.uint64(hi), side="right")
        )

    # -- introspection ---------------------------------------------------------

    def partition_counts(self, batch: RecordBatch) -> np.ndarray:
        """Histogram of records per partition (for balance diagnostics)."""
        idx = self.partition_indices(batch)
        return np.bincount(idx, minlength=self.num_partitions)

    def imbalance(self, batch: RecordBatch) -> float:
        """Max partition share relative to the perfectly balanced ``1/K``.

        1.0 means perfect balance; ``K`` means everything in one partition.
        Returns 1.0 for an empty batch.
        """
        if len(batch) == 0:
            return 1.0
        counts = self.partition_counts(batch)
        return float(counts.max() * self.num_partitions / len(batch))

    def __getstate__(self) -> dict:
        # The radix table is a 256 KiB per-process cache; shipping it in
        # job descriptors would blow the payload budget, and rebuilding
        # it on first use is cheap.
        state = self.__dict__.copy()
        state["_radix"] = None
        return state

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RangePartitioner):
            return NotImplemented
        return self.num_partitions == other.num_partitions and bool(
            np.array_equal(self.boundaries, other.boundaries)
        )

    def __repr__(self) -> str:
        return (
            f"RangePartitioner(K={self.num_partitions}, "
            f"boundaries={self.boundaries[:3]}...)"
        )

    def to_list(self) -> List[int]:
        return [int(b) for b in self.boundaries]
