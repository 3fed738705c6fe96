"""Local sorting and merging of record batches (the Reduce-stage workhorse).

Both TeraSort and CodedTeraSort end with each node sorting its partition
locally (the paper uses ``std::sort``).  We realize the exact 10-byte key
order as a *one-word* sort plus a tie repair (:func:`sort_key_order`): the
top bits of the ``hi`` prefix word are packed with the record's index into
one ``uint64`` per record and sorted with ``np.sort`` — NumPy's vectorised
unstable sort, the fastest the host offers — and only the records whose
packed prefixes tie (≈0 on TeraGen keys) are re-ordered on the full
``(hi, lo, index)``, which makes the result stable and exact — the
prefix-word idea of arXiv:2209.08420 applied to the sort itself.  The
sorted records are then gathered once, as whole 100-byte items (see
:mod:`repro.kvpairs.records`).

``merge_sorted`` is the k-way merge variant of Reduce (merging per-source
already-sorted runs), which is how Hadoop's reducer consumes shuffled
spills.  It **is** that same sort: :func:`sort_batches` is stable in
concatenation order, so sorting the concatenation of sorted runs yields
the stable k-way merge byte for byte (ties go to the earlier run, and
within a run to the earlier record), and one ``uint64`` ``np.sort`` pass
plus one scatter costs less than the ``log2 k`` whole-record scatter
rounds of a vectorised pairwise tournament.  What ``merge_sorted`` adds
is the contract: public callers keep ``check=True`` and unsorted runs
raise; ``check=False`` skips the per-run validation for trusted internal
call sites (e.g. :func:`repro.kvpairs.spill.merge_runs`, which validates
each window once as it loads it).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.kvpairs.records import RecordBatch


def _stable_order(
    hi: np.ndarray, lo: Callable[[], np.ndarray]
) -> np.ndarray:
    """Stable sorting permutation of the keys ``(hi, lo)``; the ``lo``
    column is built (``lo()``) only if some prefix words tie.

    Packs ``hi``'s top ``64 - b`` bits over the ``b``-bit record index,
    sorts that one word, and repairs the groups whose packed prefixes tie
    on the full ``(hi, lo)``; when most records tie (keys differing only
    below the packed prefix) the two-column ``np.lexsort`` does the whole
    job instead.
    """
    n = len(hi)
    index_bits = max(n - 1, 0).bit_length()
    index_mask = np.uint64((1 << index_bits) - 1)
    packed = hi & ~index_mask
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    order = (packed & index_mask).view(np.int64)
    packed >>= np.uint64(index_bits)  # now the sorted prefixes alone
    tied = np.flatnonzero(packed[1:] == packed[:-1])
    if len(tied) == 0:
        return order
    if 2 * len(tied) > n:
        return np.lexsort((lo(), hi))
    members = np.union1d(tied, tied + 1)
    # Tie groups are contiguous, ordered by prefix, and index-ordered
    # inside (the packed word's low bits), so one stable lexsort over all
    # members re-orders each group in place on (hi, lo, index).
    idx = order[members]
    order[members] = idx[np.lexsort((lo()[idx], hi[idx]))]
    return order


def sort_key_order(batch: RecordBatch) -> np.ndarray:
    """Indices that sort ``batch`` by full 10-byte key (stable).

    Element for element what a stable two-column sort on
    :meth:`RecordBatch.key_words` returns, at one-word-sort cost.
    """
    return _stable_order(
        batch.key_prefix_u64(), lambda: batch.key_words()[1]
    )


def sort_batch(batch: RecordBatch) -> RecordBatch:
    """Return a new batch sorted by key (stable; ties keep input order).

    A prefix-word sort with tie repair (:func:`sort_key_order`) and one
    whole-item gather.  The result never aliases its input — at any
    length — so sorting a ``from_buffer`` batch releases the receive
    buffer it viewed.
    """
    if len(batch) <= 1:
        return batch.copy()
    return batch.take(sort_key_order(batch))


def sort_batches(parts: Sequence[RecordBatch]) -> RecordBatch:
    """``sort_batch(RecordBatch.concat(parts))`` without the concatenation.

    Prefix words are read per part (8 B/record), ordered once, and each
    part's records are scattered straight to their output positions.
    """
    parts = [p for p in parts if len(p)]
    if len(parts) <= 1:
        return sort_batch(parts[0]) if parts else RecordBatch.empty()
    order = _stable_order(
        np.concatenate([p.key_prefix_u64() for p in parts]),
        lambda: np.concatenate([p.key_words()[1] for p in parts]),
    )
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    ends = np.cumsum([len(p) for p in parts])[:-1]
    return RecordBatch._scattered(len(order), zip(np.split(rank, ends), parts))


def is_sorted(batch: RecordBatch) -> bool:
    """True iff keys are non-decreasing in 10-byte lexicographic order."""
    n = len(batch)
    if n <= 1:
        return True
    hi, lo = batch.key_words()
    hi_prev, hi_next = hi[:-1], hi[1:]
    lo_prev, lo_next = lo[:-1], lo[1:]
    ok = (hi_prev < hi_next) | ((hi_prev == hi_next) & (lo_prev <= lo_next))
    return bool(ok.all())


def merge_sorted(
    runs: Sequence[RecordBatch], check: bool = True
) -> RecordBatch:
    """Merge already-sorted runs into one sorted batch (stable k-way merge).

    One stable sort of the runs' concatenation (:func:`sort_batches`),
    which on sorted runs is exactly the stable merge: ties preserve run
    order (records from earlier runs first).  A single non-empty run is
    returned as it is, not copied.

    Args:
        runs: the sorted runs, in priority order (earlier wins ties).
        check: validate every run and raise ``ValueError`` if one is not
            sorted (the output would be sorted regardless, so misuse
            would otherwise pass silently).  Trusted internal call sites
            that just produced/validated the runs pass ``False`` and
            skip the re-scan.
    """
    if check:
        for i, run in enumerate(runs):
            if not is_sorted(run):
                raise ValueError(f"run {i} is not sorted")
    live = [run for run in runs if len(run)]
    if len(live) == 1:
        return live[0]
    return sort_batches(live)
