"""Vectorized compute kernels for the sort hot path (OVC merge + radix
partition).

Since the network path went zero-copy, the dominant CPU costs of every
TeraSort/CodedTeraSort run are the k-way merge (Reduce and the external
merge over spilled runs) and the map-side partition pass.  This module
is the compute-kernel layer behind both, adapting two classic ideas:

**Offset-value coding (OVC)** — "Robust and Efficient Sorting with
Offset-Value Coding" (arXiv:2209.08420).  In a sorted run, each record
gets a small code relative to its predecessor: the offset of the first
differing key byte, packed with the byte value at that offset into one
``uint16``::

    code = (KEY_BYTES - offset) * 256 + key[offset]    # 0 for duplicates

Codes order records *relative to a shared base* — larger code means
larger key — so most of what a merge needs to know about a run (where
the distinct-key group boundaries are, whether the run really is
sorted) is answered by the 2-byte code column without touching the
10-byte keys:

* ``code == 0`` marks an exact duplicate of the predecessor, giving the
  run's distinct-key run-length structure for free; merges use it to
  rank whole duplicate groups at once (one comparison per *distinct*
  key instead of one per record — the big win on skewed inputs);
* computing the column detects inversions as a byproduct, so code
  computation **is** sortedness validation (``is_sorted`` scans and the
  repeated per-round re-validation of the classic merge disappear);
* codes survive merges: when two runs interleave, an output record
  preceded by its own run-predecessor keeps its stored code unchanged
  (the paper's central theorem), so only the run-crossover positions
  need a fresh byte comparison.

**Prefix-word comparisons** — the vectorized counterpart of resolving a
comparison on a cached code instead of the full key.  Rank queries
between runs compare the cached first-8-bytes-as-``uint64`` column
(``hi``, one machine-word compare) and fall back to full ``S10`` key
compares only for the queries whose prefix word ties.  On TeraGen keys
ties are ~0; on adversarial shared-prefix keys the kernel degrades
gracefully to exactly the classic full-key path.

The **MSB radix partition** replaces the per-record
``np.searchsorted(boundaries, hi)`` walk with a 2^16-entry lookup table
on the top 16 key bits (one shift + one gather per record; only records
landing in the few table cells that contain a splitter fall back to
``searchsorted``), and the partition *grouping* pass replaces the
``int64`` stable argsort with a radix bucket sort over ``int16`` bucket
ids, producing grouped order and per-partition counts in one pass.

Every kernel is byte-identical to the classic implementation it
replaces — same output records, same stable tie order.  The
``REPRO_KERNELS=classic`` environment escape hatch keeps the old
implementations selectable for A/B benchmarking; ``repro`` reads it at
call time, so a single process can run both paths back to back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kvpairs.records import KEY_BYTES, RecordBatch

#: Environment variable selecting the kernel implementation.
KERNELS_ENV = "REPRO_KERNELS"

#: On-disk / in-memory dtype of an OVC column: little-endian uint16.
OVC_DTYPE = np.dtype("<u2")

#: Bytes per OVC code (the sidecar file record size).
OVC_BYTES = OVC_DTYPE.itemsize

#: Minimum batch size for which building the radix table pays off.
RADIX_MIN_BATCH = 2048

#: Number of radix table cells (top 16 bits of the key prefix).
_RADIX_CELLS = 1 << 16
_RADIX_SHIFT = np.uint64(48)


def kernel_mode() -> str:
    """The active kernel implementation: ``"ovc"`` (default) or ``"classic"``.

    Read from ``$REPRO_KERNELS`` at call time so tests and A/B benches
    can flip modes inside one process.  Unknown values fall back to
    ``"ovc"``.
    """
    mode = os.environ.get(KERNELS_ENV, "ovc").strip().lower()
    return "classic" if mode == "classic" else "ovc"


def use_ovc() -> bool:
    """True when the OVC/radix kernels are active."""
    return kernel_mode() == "ovc"


# ---------------------------------------------------------------------------
# Comparison accounting (read by bench_merge_kernels.py).
# ---------------------------------------------------------------------------


@dataclass
class KernelStats:
    """Counters quantifying what the merge kernels did (not) touch.

    A *rank query* asks "how many records of the other run precede this
    key".  ``prefix_resolved`` queries were answered by one ``uint64``
    prefix-word compare chain; ``fallback_queries`` also walked full
    ``S10`` keys; ``dup_records_skipped`` records never issued a query
    at all (their rank was copied from their duplicate-group head via
    the OVC column).
    """

    merge_records: int = 0
    rank_queries: int = 0
    prefix_resolved: int = 0
    fallback_queries: int = 0
    dup_records_skipped: int = 0
    codes_reused: int = 0
    codes_recomputed: int = 0

    def reset(self) -> None:
        for f in self.__dataclass_fields__:
            setattr(self, f, 0)

    def snapshot(self) -> dict:
        return {f: getattr(self, f) for f in self.__dataclass_fields__}

    def key_bytes_per_query(self) -> float:
        """Estimated key bytes examined per rank query (classic: 10)."""
        if self.rank_queries == 0:
            return 0.0
        touched = 8 * self.rank_queries + KEY_BYTES * self.fallback_queries
        return touched / self.rank_queries


#: Module-level counters; cheap (a few Python ints per merge call).
stats = KernelStats()

#: Pseudo-stage prefix carrying per-job kernel-counter deltas to the
#: driver inside each node's raw stage dict (see ``export_stats``).
KS_PREFIX = "ks_"


def export_stats(stopwatch, before: dict) -> None:
    """Stamp this job's kernel-counter deltas as ``ks_*`` pseudo-stages.

    Node programs snapshot :data:`stats` at run start and call this at
    run end; the deltas ride the per-node stage dicts to the driver
    (values are counts, not seconds — the same channel the residency
    and speculation stamps use).  Zero deltas are skipped so jobs that
    never touched a kernel add no keys.
    """
    after = stats.snapshot()
    for name, value in after.items():
        delta = value - before.get(name, 0)
        if delta:
            stopwatch.add(KS_PREFIX + name, float(delta))


def stats_meta(per_node_times) -> dict:
    """Sum every node's ``ks_*`` stamps into one kernel-stats dict.

    The driver-side finalize aggregator (the ``SortRun.meta
    ["kernel_stats"]`` payload): counter totals across nodes plus the
    active kernel mode, so benches can attribute wins to comm-hiding
    vs merge speed.
    """
    total = {name: 0 for name in KernelStats.__dataclass_fields__}
    for times in per_node_times:
        for name in total:
            value = times.get(KS_PREFIX + name)
            if value:
                total[name] += int(value)
    total["mode"] = kernel_mode()
    return total


# ---------------------------------------------------------------------------
# Key columns and OVC code computation.
# ---------------------------------------------------------------------------


def key_matrix(batch: RecordBatch) -> np.ndarray:
    """Keys as a contiguous ``(n, 10)`` uint8 matrix (copies 10n bytes)."""
    n = len(batch)
    if n == 0:
        return np.empty((0, KEY_BYTES), dtype=np.uint8)
    keys = np.ascontiguousarray(batch.keys)
    return keys.view(np.uint8).reshape(n, KEY_BYTES)


def _codes_from_matrix(
    km: np.ndarray, base_key: Optional[bytes], check: bool, what: str
) -> np.ndarray:
    """OVC column for the (sorted) key rows ``km``; see :func:`ovc_codes`."""
    n = len(km)
    codes = np.zeros(n, dtype=OVC_DTYPE)
    if n == 0:
        return codes
    if base_key is None:
        # Virtual minus-infinity predecessor: first difference at offset
        # 0 with the record's own first byte.
        codes[0] = KEY_BYTES * 256 + int(km[0, 0])
    else:
        base = np.frombuffer(base_key, dtype=np.uint8)
        if len(base) != KEY_BYTES:
            raise ValueError(f"base_key must be {KEY_BYTES} bytes")
        neq = km[0] != base
        if neq.any():
            off = int(np.argmax(neq))
            if check and km[0, off] < base[off]:
                raise ValueError(f"{what} is not sorted (vs base key)")
            codes[0] = (KEY_BYTES - off) * 256 + int(km[0, off])
    if n == 1:
        return codes
    neq = km[1:] != km[:-1]
    differs = neq.any(axis=1)
    off = np.argmax(neq, axis=1)
    rows = np.arange(n - 1)
    cur = km[1:][rows, off]
    if check:
        prev = km[:-1][rows, off]
        bad = differs & (cur < prev)
        if bad.any():
            raise ValueError(f"{what} is not sorted")
    packed = (KEY_BYTES - off) * 256 + cur
    codes[1:] = np.where(differs, packed, 0).astype(OVC_DTYPE)
    return codes


def ovc_codes(
    batch: RecordBatch,
    base_key: Optional[bytes] = None,
    check: bool = True,
    what: str = "run",
) -> np.ndarray:
    """Per-record offset-value codes for a sorted ``batch``.

    Args:
        batch: the sorted run (or a window of one).
        base_key: the 10-byte key of the record *preceding* ``batch``
            (the previous window's last record), or ``None`` for the
            virtual minus-infinity predecessor of a run's first record.
            This is what carries codes correctly across merge-window
            boundaries.
        check: raise ``ValueError`` on a descending key pair — code
            computation doubles as sortedness validation.  ``False``
            means the caller guarantees sortedness.
        what: label used in the error message (e.g. ``"run 3"``).

    Returns:
        ``uint16`` array, one code per record: ``0`` for an exact
        duplicate of the predecessor, else
        ``(10 - offset) * 256 + key[offset]`` where ``offset`` is the
        first differing byte.  Codes relative to the same predecessor
        order exactly as the keys do.
    """
    return _codes_from_matrix(key_matrix(batch), base_key, check, what)


# ---------------------------------------------------------------------------
# Column bundles: a run plus its cached comparison columns.
# ---------------------------------------------------------------------------


@dataclass
class RunColumns:
    """A sorted run bundled with its comparison columns.

    ``hi`` is the ``uint64`` prefix-word column; ``codes`` the OVC
    column (``codes[0]`` may be relative to a predecessor *outside*
    ``batch`` — window carry — which is fine: position 0 always starts
    a duplicate group regardless of its code).
    """

    batch: RecordBatch
    hi: np.ndarray
    codes: np.ndarray

    @classmethod
    def from_batch(
        cls,
        batch: RecordBatch,
        codes: Optional[np.ndarray] = None,
        base_key: Optional[bytes] = None,
        check: bool = True,
        what: str = "run",
    ) -> "RunColumns":
        if codes is None:
            codes = ovc_codes(batch, base_key, check, what)
        return cls(batch=batch, hi=batch.key_prefix_u64(), codes=codes)

    def __len__(self) -> int:
        return len(self.batch)

    def slice(self, start: int, stop: int) -> "RunColumns":
        return RunColumns(
            batch=self.batch.slice(start, stop),
            hi=self.hi[start:stop],
            codes=self.codes[start:stop],
        )

    @staticmethod
    def concat(parts: Sequence["RunColumns"]) -> "RunColumns":
        """Concatenate *consecutive* windows of one run (codes stay valid:
        each window's first code is relative to the previous window's
        last record, which concatenation restores as its predecessor)."""
        return RunColumns(
            batch=RecordBatch.concat([p.batch for p in parts]),
            hi=np.concatenate([p.hi for p in parts]),
            codes=np.concatenate([p.codes for p in parts]),
        )


# ---------------------------------------------------------------------------
# The OVC merge kernel.
# ---------------------------------------------------------------------------

#: Engage duplicate-group compression when at least this fraction of a
#: side's records are duplicates (below it the gathers cost more than
#: the searchsorted they save).
_DUP_COMPRESS_MIN_FRACTION = 0.125


def _group_starts(codes: np.ndarray) -> np.ndarray:
    """Indices starting a distinct-key group (index 0 always does)."""
    mask = np.empty(len(codes), dtype=bool)
    mask[0] = True
    np.not_equal(codes[1:], 0, out=mask[1:])
    return np.flatnonzero(mask)


def _ranks_strictly_less(query: RunColumns, run: RunColumns) -> np.ndarray:
    """For each query record, how many of ``run``'s records have a
    strictly smaller key.

    Resolves each query on the ``uint64`` prefix word; only queries
    whose prefix word ties a run prefix word fall back to full ``S10``
    key compares.  When either side is duplicate-heavy (per its OVC
    column), ranks are computed per *distinct-key group* and expanded —
    duplicates never issue a query.
    """
    nq, nr = len(query), len(run)
    q_hi, q_codes = query.hi, query.codes
    r_hi, r_codes = run.hi, run.codes
    q_starts = r_starts = None
    # A bundle may carry no code column (len 0): rounds over low-duplicate
    # data skip code assembly, trading dup compression it wouldn't use.
    q_dups = nq - 1 - np.count_nonzero(q_codes[1:]) if len(q_codes) == nq and nq else 0
    r_dups = nr - 1 - np.count_nonzero(r_codes[1:]) if len(r_codes) == nr and nr else 0
    if q_dups >= nq * _DUP_COMPRESS_MIN_FRACTION:
        q_starts = _group_starts(q_codes)
        q_hi = q_hi[q_starts]
    if r_dups >= nr * _DUP_COMPRESS_MIN_FRACTION:
        r_starts = _group_starts(r_codes)
        r_hi = r_hi[r_starts]

    ranks = np.searchsorted(r_hi, q_hi, side="left")
    upper = np.searchsorted(r_hi, q_hi, side="right")
    ties = np.flatnonzero(ranks != upper)
    stats.rank_queries += len(q_hi)
    stats.prefix_resolved += len(q_hi) - len(ties)
    stats.fallback_queries += len(ties)
    if len(ties):
        q_keys = query.batch.keys
        if q_starts is not None:
            q_keys = q_keys[q_starts]
        r_keys = run.batch.keys
        if r_starts is not None:
            r_keys = r_keys[r_starts]
        ranks[ties] = np.searchsorted(r_keys, q_keys[ties], side="left")

    if r_starts is not None:
        # Distinct-group rank -> record rank: records before group j
        # are exactly start-of-group-j many.
        ext = np.concatenate([r_starts, [nr]])
        ranks = ext[ranks]
    if q_starts is not None:
        # Expand group ranks back to every query record.
        group_id = np.zeros(nq, dtype=np.int64)
        group_id[q_starts] = 1
        group_id = np.cumsum(group_id) - 1
        ranks = ranks[group_id]
        stats.dup_records_skipped += nq - len(q_starts)
    return ranks


def _crossover_codes(
    out_keys: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Fresh OVC codes for output positions whose predecessor came from
    the other run (vectorized first-diff over just those key pairs)."""
    cur = np.ascontiguousarray(out_keys[positions]).view(np.uint8)
    prev = np.ascontiguousarray(out_keys[positions - 1]).view(np.uint8)
    cur = cur.reshape(len(positions), KEY_BYTES)
    prev = prev.reshape(len(positions), KEY_BYTES)
    neq = cur != prev
    differs = neq.any(axis=1)
    off = np.argmax(neq, axis=1)
    val = cur[np.arange(len(positions)), off]
    packed = (KEY_BYTES - off) * 256 + val
    return np.where(differs, packed, 0).astype(OVC_DTYPE)


def merge_two(
    a: RunColumns, b: RunColumns, want_codes: bool = True,
    want_hi: bool = True,
) -> RunColumns:
    """Stable merge of two sorted column bundles (``a`` wins key ties).

    Rank queries run only in one direction (``a`` against ``b``); ``b``'s
    records fill the complement slots, which is exactly the stable
    order.  With ``want_codes`` the output carries a valid OVC column:
    stored codes are reused wherever an output record is preceded by its
    own run predecessor (the OVC invariant), and only run-crossover
    positions get a fresh byte comparison.  ``want_hi=False`` also skips
    the prefix-word scatter (a tournament's final round feeds no further
    rank queries).
    """
    na, nb = len(a), len(b)
    if na == 0:
        return b
    if nb == 0:
        return a
    pos_a = np.arange(na, dtype=np.int64) + _ranks_strictly_less(a, b)
    from_b = np.ones(na + nb, dtype=bool)
    from_b[pos_a] = False
    pos_b = np.flatnonzero(from_b)
    merged = RecordBatch._scattered(
        na + nb, ((pos_a, a.batch), (pos_b, b.batch))
    )
    stats.merge_records += na + nb
    if want_hi or want_codes:
        hi = np.empty(na + nb, dtype=np.uint64)
        hi[pos_a] = a.hi
        hi[pos_b] = b.hi
    else:
        hi = np.empty(0, dtype=np.uint64)
    if not want_codes:
        return RunColumns(
            batch=merged, hi=hi, codes=np.empty(0, dtype=OVC_DTYPE)
        )
    if len(a.codes) != na or len(b.codes) != nb:
        # An input bundle dropped its code column; recompute from scratch.
        return RunColumns(
            batch=merged, hi=hi, codes=ovc_codes(merged, check=False)
        )
    codes = np.empty(na + nb, dtype=OVC_DTYPE)
    codes[pos_a] = a.codes
    codes[pos_b] = b.codes
    # Crossovers: output positions whose predecessor came from the other
    # run.  Everything else keeps its stored code (predecessor unchanged).
    cross = np.flatnonzero(from_b[1:] != from_b[:-1]) + 1
    if len(cross):
        codes[cross] = _crossover_codes(merged.keys, cross)
    # codes[0]: whichever run starts the output contributes its own
    # first code, already relative to that run's base.
    stats.codes_reused += na + nb - len(cross)
    stats.codes_recomputed += len(cross)
    return RunColumns(batch=merged, hi=hi, codes=codes)


def merge_sorted_columns(
    cols: Sequence[RunColumns], want_codes: bool = False
) -> RunColumns:
    """Stable k-way merge of column bundles (tournament of pairwise
    :func:`merge_two` merges; ties preserve run order).

    Code propagation through intermediate rounds is *adaptive*: codes
    are carried (stored codes reused, only run-crossover positions
    recomputed) when the inputs are duplicate-heavy enough for the next
    round's duplicate-group compression to pay for the crossover fixup;
    on low-duplicate data (e.g. TeraGen keys) rounds skip code assembly
    entirely.  The final round assembles codes only if the caller asked.
    """
    live = [c for c in cols if len(c)]
    if not live:
        return RunColumns(
            batch=RecordBatch.empty(),
            hi=np.empty(0, dtype=np.uint64),
            codes=np.empty(0, dtype=OVC_DTYPE),
        )
    total = sum(len(c) for c in live)
    dups = sum(
        len(c) - np.count_nonzero(c.codes)
        for c in live
        if len(c.codes) == len(c)
    )
    dup_heavy = dups >= total * _DUP_COMPRESS_MIN_FRACTION
    while len(live) > 1:
        final_round = len(live) <= 2
        merged = [
            merge_two(
                live[i],
                live[i + 1],
                want_codes=want_codes if final_round else dup_heavy,
                want_hi=not final_round or want_codes,
            )
            for i in range(0, len(live) - 1, 2)
        ]
        if len(live) % 2:
            merged.append(live[-1])
        live = merged
    return live[0]


# ---------------------------------------------------------------------------
# MSB radix partition.
# ---------------------------------------------------------------------------


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
