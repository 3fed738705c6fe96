"""Pack / Unpack: the wire format for intermediate values.

The paper's implementation adds explicit Pack and Unpack stages around the
shuffle: each intermediate value is serialized into one contiguous memory
array so that a single TCP flow carries it (Section V-A).  We reproduce that
with a small framed binary format:

* ``pack_batch`` / ``unpack_batch`` — one RecordBatch <-> one frame;
* ``pack_batches`` / ``unpack_batches`` — an ordered sequence of tagged
  batches in a single buffer (used when a node ships several intermediate
  values to the same destination).

The pack side is zero-copy: ``pack_batch_parts`` / ``pack_batches_parts``
return a gather list of ``[header, records-view, header, records-view,
...]`` parts that feeds straight into the runtime's vectored send, so the
record bytes are never re-copied between the mapper's structured array and
the socket.  The joined-``bytes`` forms (``pack_batch`` / ``pack_batches``)
remain for callers that genuinely need one owned buffer.

The unpack side takes ``copy=False`` to return batches that are zero-copy
read-only views into the received buffer (``RecordBatch.from_buffer``);
the views keep the parent buffer alive, so they may safely outlive the
caller's reference to it.

Frame layout (little-endian):

========  =====  =========================================
offset    size   field
========  =====  =========================================
0         4      magic ``b"CTS1"``
4         8      tag (uint64, caller-defined identifier)
12        8      payload length in bytes (uint64)
20        n      payload: packed 100-byte records
========  =====  =========================================
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable, List, Tuple

from repro.kvpairs.records import RECORD_BYTES, BufferLike, RecordBatch
from repro.utils import copytrack

MAGIC = b"CTS1"
_HEADER = struct.Struct("<4sQQ")
HEADER_BYTES = _HEADER.size


class SerializationError(ValueError):
    """Raised when a buffer does not parse as a valid frame sequence."""


def pack_batch_parts(batch: RecordBatch, tag: int = 0) -> List[BufferLike]:
    """One batch as a ``[header, records-view]`` gather list (zero-copy)."""
    payload = batch.as_memoryview()
    return [_HEADER.pack(MAGIC, tag, len(payload)), payload]


def pack_batch(batch: RecordBatch, tag: int = 0) -> bytes:
    """Serialize one batch into a single owned framed buffer (one copy)."""
    parts = pack_batch_parts(batch, tag)
    copytrack.count_copy(batch.nbytes, "serialization.pack_join")
    return b"".join(parts)


def unpack_batch(buf: BufferLike, copy: bool = True) -> Tuple[int, RecordBatch]:
    """Parse a buffer holding exactly one frame.

    Args:
        buf: the framed buffer (any bytes-like object).
        copy: ``False`` returns a zero-copy read-only batch viewing
            ``buf``; ``True`` (default) copies into an owned batch.

    Returns:
        ``(tag, batch)``.

    Raises:
        SerializationError: on bad magic, truncation, or trailing bytes.
    """
    view = memoryview(buf)
    tag, batch, end = _read_frame(view, 0, copy)
    if end != len(view):
        raise SerializationError(
            f"{len(view) - end} trailing bytes after single frame"
        )
    return tag, batch


def pack_batches_parts(
    batches: Iterable[Tuple[int, RecordBatch]]
) -> List[BufferLike]:
    """An ordered ``(tag, batch)`` sequence as one flat gather list.

    The returned parts alternate ``header, records-view, ...`` and form
    exactly the buffer :func:`pack_batches` would produce — without
    materializing it.
    """
    parts: List[BufferLike] = []
    for tag, batch in batches:
        parts.extend(pack_batch_parts(batch, tag))
    return parts


def pack_batches(batches: Iterable[Tuple[int, RecordBatch]]) -> bytes:
    """Serialize an ordered sequence of ``(tag, batch)`` into one buffer."""
    parts = pack_batches_parts(batches)
    copytrack.count_copy(
        sum(len(p) for p in parts), "serialization.pack_join"
    )
    return b"".join(parts)


def unpack_batches(
    buf: BufferLike, copy: bool = True
) -> List[Tuple[int, RecordBatch]]:
    """Parse a concatenation of frames, preserving order.

    With ``copy=False`` every batch is a zero-copy read-only view into
    ``buf``; the views keep the underlying buffer alive even after the
    caller drops its own reference.

    Raises:
        SerializationError: if any frame is malformed.
    """
    view = memoryview(buf)
    out: List[Tuple[int, RecordBatch]] = []
    pos = 0
    while pos < len(view):
        tag, batch, pos = _read_frame(view, pos, copy)
        out.append((tag, batch))
    return out


def unpack_batches_dict(
    buf: BufferLike, copy: bool = True
) -> Dict[int, RecordBatch]:
    """Like :func:`unpack_batches` but keyed by tag.

    Raises:
        SerializationError: on duplicate tags.
    """
    out: Dict[int, RecordBatch] = {}
    for tag, batch in unpack_batches(buf, copy=copy):
        if tag in out:
            raise SerializationError(f"duplicate tag {tag} in frame sequence")
        out[tag] = batch
    return out


def _read_frame(
    view: memoryview, pos: int, copy: bool
) -> Tuple[int, RecordBatch, int]:
    if len(view) - pos < HEADER_BYTES:
        raise SerializationError(
            f"truncated header at offset {pos} ({len(view) - pos} bytes left)"
        )
    magic, tag, length = _HEADER.unpack_from(view, pos)
    if magic != MAGIC:
        raise SerializationError(f"bad magic {magic!r} at offset {pos}")
    start = pos + HEADER_BYTES
    end = start + length
    if end > len(view):
        raise SerializationError(
            f"truncated payload at offset {start}: need {length}, "
            f"have {len(view) - start}"
        )
    if length % RECORD_BYTES != 0:
        raise SerializationError(
            f"payload length {length} not a multiple of {RECORD_BYTES}"
        )
    body = view[start:end]
    batch = RecordBatch.from_bytes(body) if copy else RecordBatch.from_buffer(body)
    return tag, batch, end
