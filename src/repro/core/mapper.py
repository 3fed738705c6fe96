"""The Map stage: hashing files into per-partition intermediate values.

§III-A3: hashing file ``F`` under a ``K``-way partitioner produces the
intermediate values ``{I^1_F, ..., I^K_F}`` where ``I^j_F`` holds the KV
pairs of ``F`` whose keys fall in partition ``P_j``.  The split is one
vectorized stable argsort over partition indices (a counting-sort-style
grouping), then one gather per kept partition straight from the file —
no per-record Python work, and no grouped copy of the whole file.

§IV-B adds the coded *retention rule*: after mapping file ``F_S`` on node
``k`` (``k ∈ S``), only ``I^k_S`` (needed by ``k`` itself) and
``{I^i_S : i ∉ S}`` (to be encoded for nodes outside ``S``) are kept —
``I^i_S`` for other ``i ∈ S`` is discarded because node ``i`` computes it
locally.  :func:`hash_file` takes the kept targets, so a discarded value
is never copied and each kept one is copied exactly once, into a buffer
of its own that pins neither the file nor the other values.

:func:`map_windows` is the one windowed map every program runs: window →
map step → retain → checkpoint, whatever the step (``hash_file`` for the
sorts, a job's ``map_file`` for Coded MapReduce).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
)

import numpy as np

from repro.core.partitioner import RangePartitioner
from repro.kvpairs import kernels
from repro.kvpairs.datasource import as_source
from repro.kvpairs.records import RecordBatch
from repro.utils.residency import ResidencyMeter
from repro.utils.subsets import Subset


def payload_nbytes(payload: Any) -> int:
    """Best-effort size of one map input: its ``nbytes`` where it has
    one, the length of raw bytes, else 0 (a job's opaque payload)."""
    nbytes = getattr(payload, "nbytes", None)
    if isinstance(nbytes, int):
        return nbytes
    return len(payload) if isinstance(payload, (bytes, bytearray)) else 0


def record_windows(
    data: Any, window_records: Optional[int]
) -> Iterable[RecordBatch]:
    """A record input as map windows of ``window_records``, or whole."""
    source = as_source(data)
    if window_records:
        return source.iter_batches(window_records)
    return [source.load()]


def map_windows(
    program: Any,
    windows: Iterable[Any],
    step: Callable[[Any], Sequence[Any]],
    retain: Callable[[Sequence[Any]], None],
    abandon: Optional[Callable[[], bool]] = None,
    meter: Optional[ResidencyMeter] = None,
) -> Iterator[bool]:
    """The windowed map: window → ``step`` (pieces by target rank) →
    ``retain`` → checkpoint, charging each window to ``meter``.

    Yields after every window, so the caller decides what happens in
    between (nothing staged; arrival polls or the event loop overlapped).
    ``abandon`` is polled before every window and through an injected
    slowdown; the generator just ends when it fires — callers re-check
    it after exhaustion to tell abandonment from completion.
    """
    for window in windows:
        if abandon is not None and abandon():
            return
        if meter is not None:
            nbytes = payload_nbytes(window)
            meter.charge(nbytes, "map.window")
        retain(step(window))
        if meter is not None:
            meter.discharge(nbytes)
        if program.fault_checkpoint(abandon):
            return
        yield True


def hash_file(
    data: RecordBatch,
    partitioner: RangePartitioner,
    keep: Optional[Iterable[int]] = None,
) -> List[RecordBatch]:
    """Split ``data`` into ``K`` per-partition intermediate values.

    Each kept partition is gathered straight from ``data`` with its slice
    of the stable grouping order: one copy per kept record, into an owned
    buffer that shares memory with neither ``data`` nor the other pieces.

    Args:
        keep: the target partitions to materialize (all when ``None``);
            the others come back empty and are never copied.

    Returns:
        ``out[j] = I^j`` — the records of ``data`` whose key falls in
        partition ``j`` (empty for ``j`` not kept); with every partition
        kept, concatenating the outputs is a permutation of the input.
    """
    k = partitioner.num_partitions
    out = [RecordBatch.empty() for _ in range(k)]
    if len(data) == 0:
        return out
    idx = partitioner.partition_indices(data)
    order, counts = kernels.group_by_partition(idx, k)
    ends = np.cumsum(counts)
    for j in range(k) if keep is None else keep:
        out[j] = data.take(order[ends[j] - counts[j]:ends[j]])
    return out


def map_node_uncoded(
    file_data: RecordBatch,
    partitioner: RangePartitioner,
) -> List[RecordBatch]:
    """TeraSort's Map at one node: hash its single file (keep everything)."""
    return hash_file(file_data, partitioner)


def map_node_coded(
    node: int,
    files: Dict[int, RecordBatch],
    subsets: Dict[int, Subset],
    partitioner: RangePartitioner,
) -> Dict[int, Dict[int, RecordBatch]]:
    """CodedTeraSort's Map at ``node``: hash every local file, apply retention.

    Args:
        node: this node's rank ``k``.
        files: file id -> file data, the files placed on this node.
        subsets: file id -> node subset ``S`` of that file (``node ∈ S``).
        partitioner: the shared ``K``-way partitioner.

    Returns:
        ``kept[file_id][j] = I^j_S`` for exactly the retained targets:
        ``j == node`` and every ``j ∉ S``.
    """
    kept: Dict[int, Dict[int, RecordBatch]] = {}
    for file_id, data in files.items():
        subset = subsets[file_id]
        if node not in subset:
            raise ValueError(
                f"node {node} asked to map file {file_id} of subset {subset}"
            )
        in_subset = set(subset)
        targets = [node] + [
            j for j in range(partitioner.num_partitions) if j not in in_subset
        ]
        parts = hash_file(data, partitioner, targets)
        kept[file_id] = {j: parts[j] for j in targets}
    return kept
