"""100-byte KV records stored in NumPy structured arrays.

Format (identical to Hadoop TeraGen, which the paper uses):

* key:   10 bytes, compared as a big-endian unsigned integer — i.e. plain
  lexicographic byte order;
* value: 90 bytes, opaque.

Key comparisons never go through Python objects.  A 10-byte key is decomposed
into ``(hi, lo)`` where ``hi`` is the first 8 bytes as a big-endian ``uint64``
and ``lo`` is the last 2 bytes as a big-endian ``uint16``; ordering by ``hi``
and breaking ties on ``lo`` realizes the exact 10-byte order
(:func:`repro.kvpairs.sorting.sort_key_order` sorts the ``hi`` word alone and
repairs the rare ties).  Range partitioning uses ``hi`` only, which is a
deterministic function of the key (all records with equal ``hi`` land in the
same partition, so global sortedness across partitions is preserved).

Records move as whole items.  Fancy-indexing a *structured* array —
``arr[idx]`` or ``out[pos] = arr`` — makes NumPy copy field by field (key,
then value, per record); the same gather or scatter through an opaque
100-byte item (:data:`_ITEM`) is one ``memcpy`` per record and 3-4x faster.
:meth:`RecordBatch.take` (gather) and :meth:`RecordBatch._scattered`
(scatter) are the two places whole records are permuted, and both go
through that view.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple, Union

import numpy as np

from repro.utils import copytrack

#: Anything exporting the buffer protocol that a batch can wrap or emit.
BufferLike = Union[bytes, bytearray, memoryview]

KEY_BYTES = 10
VALUE_BYTES = 90
RECORD_BYTES = KEY_BYTES + VALUE_BYTES

RECORD_DTYPE = np.dtype([("key", f"S{KEY_BYTES}"), ("value", f"S{VALUE_BYTES}")])
assert RECORD_DTYPE.itemsize == RECORD_BYTES

#: A record as one opaque item: what gathers and scatters move.
_ITEM = np.dtype(f"V{RECORD_BYTES}")

#: The key as two big-endian words read in place (no byte-matrix detour).
_KEY_WORDS_DTYPE = np.dtype(
    {
        "names": ["hi", "lo"],
        "formats": [">u8", ">u2"],
        "offsets": [0, 8],
        "itemsize": RECORD_BYTES,
    }
)


class RecordBatch:
    """An immutable-by-convention batch of 100-byte KV records.

    Wraps a C-contiguous structured array of :data:`RECORD_DTYPE`.  All
    operations returning new batches share memory where NumPy slicing allows.
    """

    __slots__ = ("_arr",)

    def __init__(self, arr: np.ndarray) -> None:
        if arr.dtype != RECORD_DTYPE:
            raise TypeError(f"expected dtype {RECORD_DTYPE}, got {arr.dtype}")
        if arr.ndim != 1:
            raise ValueError(f"expected 1-D record array, got shape {arr.shape}")
        self._arr = arr

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls) -> "RecordBatch":
        return cls(np.empty(0, dtype=RECORD_DTYPE))

    @classmethod
    def from_arrays(cls, keys: np.ndarray, values: np.ndarray) -> "RecordBatch":
        """Build a batch from parallel key/value byte arrays.

        Args:
            keys: shape ``(n,)`` of ``S10`` or ``(n, 10)`` uint8.
            values: shape ``(n,)`` of ``S90`` or ``(n, 90)`` uint8.
        """
        keys = _as_bytes_col(keys, KEY_BYTES, "key")
        values = _as_bytes_col(values, VALUE_BYTES, "value")
        if len(keys) != len(values):
            raise ValueError(
                f"length mismatch: {len(keys)} keys vs {len(values)} values"
            )
        arr = np.empty(len(keys), dtype=RECORD_DTYPE)
        arr["key"] = keys
        arr["value"] = values
        return cls(arr)

    @classmethod
    def concat(cls, batches: Iterable["RecordBatch"]) -> "RecordBatch":
        """Concatenate batches in order (empty input gives an empty batch)."""
        arrays = [b._arr for b in batches]
        if not arrays:
            return cls.empty()
        return cls(np.concatenate(arrays))

    # -- accessors ----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """The underlying structured array (do not mutate)."""
        return self._arr

    @property
    def keys(self) -> np.ndarray:
        return self._arr["key"]

    @property
    def values(self) -> np.ndarray:
        return self._arr["value"]

    @property
    def nbytes(self) -> int:
        """Payload size in bytes (``len(self) * 100``)."""
        return len(self._arr) * RECORD_BYTES

    def __len__(self) -> int:
        return len(self._arr)

    def __repr__(self) -> str:
        return f"RecordBatch(n={len(self)}, nbytes={self.nbytes})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RecordBatch):
            return NotImplemented
        return len(self) == len(other) and bool(
            np.array_equal(self._arr, other._arr)
        )

    __hash__ = None  # type: ignore[assignment]  # mutable buffer underneath

    # -- key decomposition ---------------------------------------------------

    def key_words(self) -> Tuple[np.ndarray, np.ndarray]:
        """Decompose keys into ``(hi, lo)`` sortable integer columns.

        Returns:
            ``hi``: first 8 key bytes as big-endian ``uint64``;
            ``lo``: last 2 key bytes as big-endian ``uint16``.

        Ordering by ``hi`` then ``lo`` is exactly 10-byte lexicographic
        key order.
        """
        lo = self._arr.view(_KEY_WORDS_DTYPE)["lo"].astype(np.uint16)
        return self.key_prefix_u64(), lo

    def key_prefix_u64(self) -> np.ndarray:
        """First 8 key bytes as big-endian ``uint64`` (partitioning column).

        One strided read + byteswap of 8 bytes per record.
        """
        return self._arr.view(_KEY_WORDS_DTYPE)["hi"].astype(np.uint64)

    def raw_view(self) -> np.ndarray:
        """The records as an ``(n, 100)`` uint8 matrix (zero-copy if possible).

        Columns ``0..9`` are the key bytes, ``10..99`` the value bytes.
        Field views of structured arrays are not byte-contiguous, so byte-level
        access must go through this whole-record view.
        """
        arr = self._arr
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        return arr.view(np.uint8).reshape(len(arr), RECORD_BYTES)

    # -- transforms ----------------------------------------------------------

    def take(self, indices: np.ndarray) -> "RecordBatch":
        """Gather the records at integer ``indices`` into a new owned batch.

        Negative indices count from the end; out-of-range ones raise
        ``IndexError``.

        Raises:
            TypeError: for a boolean mask (``np.take`` would read it as
                indices 0/1) — pass ``np.flatnonzero(mask)``.
        """
        indices = np.asarray(indices)
        if indices.dtype == np.bool_:
            raise TypeError(
                "RecordBatch.take needs integer indices, got a boolean "
                "mask; pass np.flatnonzero(mask)"
            )
        taken = np.take(self._arr.view(_ITEM), indices)
        return RecordBatch(taken.view(RECORD_DTYPE))

    @classmethod
    def _scattered(
        cls,
        total: int,
        runs: Iterable[Tuple[np.ndarray, "RecordBatch"]],
    ) -> "RecordBatch":
        """A new ``total``-record batch with each run written at its positions.

        ``runs`` yields ``(positions, batch)`` pairs; together the position
        arrays must cover ``range(total)`` exactly once (merges and
        multi-part sorts do) — uncovered slots would be uninitialised.
        """
        out = np.empty(total, dtype=RECORD_DTYPE)
        items = out.view(_ITEM)
        for positions, batch in runs:
            items[positions] = batch._arr.view(_ITEM)
        return cls(out)

    def slice(self, start: int, stop: int) -> "RecordBatch":
        return RecordBatch(self._arr[start:stop])

    def iter_slices(self, window_records: int) -> Iterable["RecordBatch"]:
        """Consecutive zero-copy windows of at most ``window_records``.

        The one bounded-windowing loop every streaming consumer (spill
        runs, stores, data sources, merges) shares.
        """
        if window_records <= 0:
            raise ValueError(
                f"window_records must be >= 1, got {window_records}"
            )
        for start in range(0, len(self), window_records):
            yield self.slice(start, min(start + window_records, len(self)))

    def split_at(self, offsets: Sequence[int]) -> List["RecordBatch"]:
        """Split into consecutive chunks at ``offsets`` (cumulative indices).

        ``offsets`` has one entry per split point, e.g. ``[3, 7]`` splits a
        batch of 10 into chunks of sizes 3, 4, 3.
        """
        parts = np.split(self._arr, list(offsets))
        return [RecordBatch(p) for p in parts]

    def copy(self) -> "RecordBatch":
        return RecordBatch(self._arr.copy())

    # -- raw bytes -----------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Raw little-overhead wire form: the packed 100-byte records (copies)."""
        copytrack.count_copy(self.nbytes, "records.to_bytes")
        return self._arr.tobytes()

    def as_memoryview(self) -> memoryview:
        """Flat byte view of the packed records (zero-copy when contiguous).

        The view aliases this batch's memory — use it as a gather-send
        part or an encoder input, not as something to mutate.  Batches
        built from non-contiguous slices are compacted first (one copy).
        """
        arr = self._arr
        if not arr.flags["C_CONTIGUOUS"]:
            copytrack.count_copy(self.nbytes, "records.compact")
            arr = np.ascontiguousarray(arr)
        return memoryview(arr.view(np.uint8).reshape(-1))

    @classmethod
    def from_bytes(cls, buf: BufferLike) -> "RecordBatch":
        """Inverse of :meth:`to_bytes`; copies into an owned array.

        Raises:
            ValueError: if ``len(buf)`` is not a multiple of 100.
        """
        view = _record_view(buf)
        copytrack.count_copy(view.size * RECORD_BYTES, "records.from_bytes")
        return cls(view.copy())

    @classmethod
    def from_buffer(cls, buf: BufferLike) -> "RecordBatch":
        """Zero-copy *read-only* batch over a received buffer.

        The array aliases ``buf`` (NumPy keeps the buffer alive, so the
        batch may outlive the name the caller held it by) and is marked
        non-writeable — but the aliasing runs both ways: if the *owner* of
        ``buf`` mutates it later, this batch sees the change.  Use it for
        decode-then-discard paths; any transform that must survive later
        buffer reuse (``sort_batch``, ``take``, ``concat``) already copies
        into fresh memory.

        Raises:
            ValueError: if ``len(buf)`` is not a multiple of 100.
        """
        arr = _record_view(buf)
        arr.flags.writeable = False
        return cls(arr)


def _record_view(buf: BufferLike) -> np.ndarray:
    """View ``buf`` as a 1-D :data:`RECORD_DTYPE` array (no copy)."""
    view = memoryview(buf)
    if view.ndim != 1 or view.format not in ("B", "b", "c"):
        view = view.cast("B")
    if len(view) % RECORD_BYTES != 0:
        raise ValueError(
            f"buffer length {len(view)} not a multiple of {RECORD_BYTES}"
        )
    return np.frombuffer(view, dtype=RECORD_DTYPE)


def _as_bytes_col(a: np.ndarray, width: int, what: str) -> np.ndarray:
    """Normalize an ``(n, width)`` uint8 or ``(n,)`` S<width> array to S<width>."""
    a = np.asarray(a)
    if a.dtype == np.uint8:
        if a.ndim != 2 or a.shape[1] != width:
            raise ValueError(f"{what} uint8 array must be (n, {width}), got {a.shape}")
        return np.ascontiguousarray(a).view(f"S{width}").reshape(len(a))
    if a.dtype == np.dtype(f"S{width}"):
        return a
    if a.dtype.kind == "S":
        # Narrower bytes are zero-padded to width by astype.
        if a.dtype.itemsize > width:
            raise ValueError(
                f"{what} byte strings wider than {width}: {a.dtype.itemsize}"
            )
        return a.astype(f"S{width}")
    raise TypeError(f"{what}: unsupported dtype {a.dtype}")
