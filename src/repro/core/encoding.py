"""Algorithm 1: encoding intermediate values into coded multicast packets.

Within a multicast group ``M`` (an ``(r+1)``-subset of nodes), every member
``k`` builds one coded packet

    ``E_{M,k} = XOR over t in M\\{k} of  I^t_{M\\{t}, k}``

where ``I^t_{M\\{t}}`` — the intermediate value of file ``F_{M\\{t}}``
destined to node ``t`` — is *evenly split into r segments*, one per node of
``M\\{t}``, and ``I^t_{M\\{t}, k}`` is the segment indexed by ``k``.  Before
XORing, segments are zero-padded to the longest one (paper's footnote 3).

Because receivers do not know the lengths of the intermediate values they are
missing, each packet carries a small header mapping every target node ``t``
to the true (unpadded) length of its constituent segment; the payload is the
XOR of the zero-padded segments.  This mirrors what a real implementation
must transmit and is counted in the measured communication load.

The encoder is payload-agnostic: it sees serialized intermediate values as
buffers through a ``lookup(subset, target) -> bytes-like`` callable, so the
same machinery serves CodedTeraSort (record batches) and generic Coded
MapReduce jobs (pickled values).

Zero-copy data plane: :func:`segment_of` returns memoryview slices of the
serialized values (no per-segment ``bytes``), :func:`encode_packet` XORs
them into a single arena — a staging-free vectorized ``np.bitwise_xor``
reduction in the uniform-length case TeraSort always hits — and the wire form
separates into ``to_parts()`` (header blob + payload view) so the runtime's
gather send ships the payload without ever joining it to the header.
Parsing (:meth:`CodedPacket.from_bytes`) reads the whole header with
one-shot ``np.frombuffer`` views and keeps the payload as a slice of the
receive buffer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils import copytrack
from repro.utils.slabs import slab
from repro.utils.subsets import Subset, without

#: Anything exporting the buffer protocol (serialized values, arena views).
BufferLike = Union[bytes, bytearray, memoryview]

#: lookup(subset S, target t) -> serialized I^t_S
IntermediateLookup = Callable[[Subset, int], BufferLike]

_PACKET_HEADER = struct.Struct("<4sHI")  # magic, group size, sender
_SEG_ENTRY = struct.Struct("<IQ")  # target node, true segment length
_MEMBER = struct.Struct("<I")
_PAYLOAD_LEN = struct.Struct("<Q")
PACKET_MAGIC = b"CTP1"

# One-shot NumPy mirrors of the struct formats (packed little-endian, so
# the itemsizes line up with the structs byte-for-byte).
_HEADER_DTYPE = np.dtype(
    [("magic", "S4"), ("gsize", "<u2"), ("sender", "<u4")]
)
_SEG_DTYPE = np.dtype([("target", "<u4"), ("length", "<u8")])
assert _HEADER_DTYPE.itemsize == _PACKET_HEADER.size
assert _SEG_DTYPE.itemsize == _SEG_ENTRY.size


class CodingError(ValueError):
    """Raised on malformed packets or inconsistent coding inputs."""


def segment_bounds(total_len: int, num_segments: int) -> List[Tuple[int, int]]:
    """Deterministic even split of ``total_len`` bytes into segments.

    The first ``total_len % num_segments`` segments get the extra byte, so
    all segments differ in size by at most one.  Returns ``(start, stop)``
    offsets in order.
    """
    if num_segments < 1:
        raise CodingError(f"num_segments must be >= 1, got {num_segments}")
    base, extra = divmod(total_len, num_segments)
    bounds = []
    pos = 0
    for i in range(num_segments):
        size = base + (1 if i < extra else 0)
        bounds.append((pos, pos + size))
        pos += size
    return bounds


def segment_of(data: BufferLike, owners: Subset, owner: int) -> memoryview:
    """The segment of ``data`` assigned to ``owner`` (a zero-copy view).

    ``owners`` (the file's node subset, ascending) indexes the ``r``
    segments in sorted-node order; both sender and receiver derive identical
    boundaries from ``len(data)`` alone.
    """
    if owner not in owners:
        raise CodingError(f"owner {owner} not in {owners}")
    view = memoryview(data)
    idx = owners.index(owner)
    start, stop = segment_bounds(len(view), len(owners))[idx]
    return view[start:stop]


def xor_into(acc: Union[bytearray, memoryview], data: BufferLike) -> None:
    """``acc ^= data`` with ``data`` zero-padded/truncated to ``len(acc)``.

    Vectorized in place through a single writable ``np.frombuffer`` view of
    ``acc``; zero-padding means bytes of ``acc`` beyond ``len(data)`` are
    left untouched.  ``acc`` must be a writable buffer (``bytearray`` or a
    writable memoryview, e.g. an arena slice).
    """
    n = min(len(acc), len(data))
    if n == 0:
        return
    a = np.frombuffer(acc, dtype=np.uint8, count=n)
    b = np.frombuffer(data, dtype=np.uint8, count=n)
    np.bitwise_xor(a, b, out=a)


@dataclass(frozen=True)
class CodedPacket:
    """One coded multicast packet ``E_{M, sender}``.

    Attributes:
        group: the multicast group ``M`` (sorted, size ``r+1``).
        sender: the encoding node ``k ∈ M``.
        seg_lengths: ``(target t, true length of I^t_{M\\{t}, sender})`` for
            every ``t ∈ M\\{sender}``, in ascending ``t``.
        payload: XOR of the zero-padded segments (length = max true
            length).  A bytes-like buffer; packets parsed with
            :meth:`from_bytes` keep it as a zero-copy view into the
            receive buffer.
    """

    group: Subset
    sender: int
    seg_lengths: Tuple[Tuple[int, int], ...]
    payload: BufferLike

    @property
    def header_bytes(self) -> int:
        """Serialized header overhead (counted in measured load)."""
        return (
            _PACKET_HEADER.size
            + _MEMBER.size * len(self.group)
            + _SEG_ENTRY.size * len(self.seg_lengths)
            + _PAYLOAD_LEN.size
        )

    def length_for(self, target: int) -> int:
        """True segment length for ``target``; raises if not addressed."""
        for t, length in self.seg_lengths:
            if t == target:
                return length
        raise CodingError(f"target {target} not addressed by this packet")

    # -- wire form -------------------------------------------------------------

    def _header_blob(self) -> bytes:
        """The full wire header as one owned buffer."""
        buf = bytearray(self.header_bytes)
        _PACKET_HEADER.pack_into(
            buf, 0, PACKET_MAGIC, len(self.group), self.sender
        )
        pos = _PACKET_HEADER.size
        members = np.frombuffer(
            buf, dtype="<u4", count=len(self.group), offset=pos
        )
        members[:] = self.group
        pos += _MEMBER.size * len(self.group)
        if self.seg_lengths:
            segs = np.frombuffer(
                buf, dtype=_SEG_DTYPE, count=len(self.seg_lengths), offset=pos
            )
            segs["target"] = [t for t, _ in self.seg_lengths]
            segs["length"] = [length for _, length in self.seg_lengths]
        pos += _SEG_ENTRY.size * len(self.seg_lengths)
        _PAYLOAD_LEN.pack_into(buf, pos, len(self.payload))
        return bytes(buf)

    def to_parts(self) -> List[BufferLike]:
        """Wire form as a ``[header, payload-view]`` gather list (zero-copy)."""
        return [self._header_blob(), memoryview(self.payload)]

    def to_bytes(self) -> bytes:
        """Wire form as one owned buffer (joins header and payload: one copy)."""
        copytrack.count_copy(len(self.payload), "encoding.packet_join")
        return b"".join(self.to_parts())

    @classmethod
    def from_bytes(cls, buf: BufferLike) -> "CodedPacket":
        """Parse a packet; the payload stays a zero-copy view of ``buf``.

        The header is read with one-shot ``np.frombuffer`` views (one per
        header section) instead of per-member ``struct.unpack_from`` loops.
        """
        view = memoryview(buf)
        if view.ndim != 1 or view.format not in ("B", "b", "c"):
            view = view.cast("B")
        if len(view) < _PACKET_HEADER.size:
            raise CodingError(
                f"truncated packet header: {len(view)} bytes"
            )
        head = np.frombuffer(view, dtype=_HEADER_DTYPE, count=1)[0]
        if head["magic"] != PACKET_MAGIC:
            raise CodingError(f"bad packet magic {bytes(head['magic'])!r}")
        gsize = int(head["gsize"])
        sender = int(head["sender"])
        if gsize < 1:
            raise CodingError(f"invalid group size {gsize}")
        pos = _PACKET_HEADER.size
        fixed = (
            pos
            + _MEMBER.size * gsize
            + _SEG_ENTRY.size * (gsize - 1)
            + _PAYLOAD_LEN.size
        )
        if len(view) < fixed:
            raise CodingError(
                f"truncated packet: need {fixed} header bytes, have {len(view)}"
            )
        members = np.frombuffer(view, dtype="<u4", count=gsize, offset=pos)
        group = tuple(int(m) for m in members)
        pos += _MEMBER.size * gsize
        segs = np.frombuffer(view, dtype=_SEG_DTYPE, count=gsize - 1, offset=pos)
        seg_lengths = tuple(
            (int(t), int(length))
            for t, length in zip(segs["target"], segs["length"])
        )
        pos += _SEG_ENTRY.size * (gsize - 1)
        (plen,) = np.frombuffer(view, dtype="<u8", count=1, offset=pos)
        pos += _PAYLOAD_LEN.size
        payload = view[pos : pos + int(plen)]
        if len(payload) != plen:
            raise CodingError(
                f"truncated payload: header says {plen}, got {len(payload)}"
            )
        return cls(
            group=group,
            sender=sender,
            seg_lengths=seg_lengths,
            payload=payload,
        )


def encode_packet(
    sender: int,
    group: Subset,
    lookup: IntermediateLookup,
    out: Optional[Union[bytearray, memoryview]] = None,
) -> CodedPacket:
    """Build ``E_{group, sender}`` per Algorithm 1.

    Args:
        sender: encoding node ``k``; must be in ``group``.
        group: multicast group ``M``, sorted ascending, ``|M| = r+1``.
        lookup: access to the sender's locally known intermediate values;
            called as ``lookup(M\\{t}, t)`` for every ``t ∈ M\\{sender}`` —
            all of which node ``k`` mapped (``k ∈ M\\{t}``) and retained
            (``t ∉ M\\{t}``).
        out: optional caller-provided arena the payload is XORed into (at
            least max-segment-length bytes).  The returned packet's payload
            *aliases* the arena — do not reuse it until the packet has been
            sent.  ``None`` takes one arena per packet from
            :func:`~repro.utils.slabs.slab`.

    Returns:
        The coded packet with per-target true segment lengths; its payload
        is a view of the arena (no joining copy).
    """
    group = tuple(group)
    if sender not in group:
        raise CodingError(f"sender {sender} not in group {group}")
    if list(group) != sorted(set(group)):
        raise CodingError(f"group must be sorted and duplicate-free: {group}")
    targets = [t for t in group if t != sender]
    segments: List[Tuple[int, memoryview]] = []
    for t in targets:
        file_subset = without(group, t)  # F = M \ {t}; sender ∈ F
        value = lookup(file_subset, t)  # I^t_F, known at the sender
        segments.append((t, segment_of(value, file_subset, sender)))
    max_len = max((len(s) for _, s in segments), default=0)
    if out is None:
        arena = slab(max_len)
    else:
        if len(out) < max_len:
            raise CodingError(
                f"arena too small: {len(out)} < max segment {max_len}"
            )
        arena = memoryview(out)[:max_len]
    if max_len:
        acc = np.frombuffer(arena, dtype=np.uint8)
        rows = [
            np.frombuffer(s, dtype=np.uint8)
            for _, s in segments
            if len(s) == max_len
        ]
        if len(rows) == len(segments):
            # Uniform segment lengths (the common TeraSort case): a
            # vectorized XOR reduction straight into the arena.  A 2-D
            # np.bitwise_xor.reduce over a stacked matrix would be
            # equivalent but has to stage a full (r, max_len) copy of
            # every segment first; this in-place chain reads each segment
            # exactly once and stages nothing.
            np.copyto(acc, rows[0])
            for row in rows[1:]:
                np.bitwise_xor(acc, row, out=acc)
        else:
            acc.fill(0)
            for _, seg in segments:
                xor_into(arena, seg)
    return CodedPacket(
        group=group,
        sender=sender,
        seg_lengths=tuple((t, len(seg)) for t, seg in segments),
        payload=arena,
    )
