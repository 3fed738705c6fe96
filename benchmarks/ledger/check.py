"""Output check: every job against a single-process sort of the same input.

The reference is ``sort_batch`` over the whole generated input in the
benchmark process.  A job passes when its partitions, read in partition
order, are byte-for-byte the reference — which settles record count,
global order and the record multiset at memcmp cost, so it is affordable
on every timed job where ``batch_checksum`` (one BLAKE2 per record) is
not.  Part files of the out-of-core workload additionally go through
``validate_sorted_iter``, the streaming validator a user would run.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from repro.kvpairs.datasource import DataSource
from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.sorting import sort_batch
from repro.kvpairs.validation import validate_sorted_iter


#: Compare in pieces: one ``array_equal`` over an 80 MB partition allocates
#: an 80 MB temporary, and fresh pages are the costliest thing on the box.
_CHUNK = 1 << 20


def _flat(batch: RecordBatch) -> np.ndarray:
    return np.frombuffer(batch.as_memoryview(), dtype=np.uint8)


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return len(a) == len(b) and all(
        np.array_equal(a[i:i + _CHUNK], b[i:i + _CHUNK])
        for i in range(0, len(a), _CHUNK)
    )


class Reference:
    """The expected output of sorting ``batch``."""

    def __init__(self, batch: RecordBatch) -> None:
        self.records = len(batch)
        self._bytes = _flat(sort_batch(batch))

    def mismatch(self, partitions: Sequence) -> str:
        """'' when ``partitions`` are the reference, else what differs."""
        files = [p for p in partitions if isinstance(p, DataSource)]
        if files:
            try:
                validate_sorted_iter(
                    chain.from_iterable(p.iter_batches() for p in files)
                )
            except AssertionError as exc:
                return f"part files not globally sorted: {exc}"
        total = sum(len(p) for p in partitions)
        if total != self.records:
            return f"record count {total} != input {self.records}"
        pos = 0
        for rank, part in enumerate(partitions):
            batch = part.load() if isinstance(part, DataSource) else part
            end = pos + len(batch) * RECORD_BYTES
            if not _same_bytes(_flat(batch), self._bytes[pos:end]):
                return f"partition {rank} differs from the reference sort"
            pos = end
        return ""
