"""Algorithm 2: decoding coded packets back into intermediate values.

Within group ``M``, node ``k`` receives ``E_{M,u}`` from every other member
``u``.  For each such packet,

    ``E_{M,u} = XOR over t in M\\{u} of  I^t_{M\\{t}, u}``

and node ``k`` locally knows every constituent except the ``t = k`` term
(it mapped file ``M\\{t}`` for all ``t ∈ M\\{u, k}``).  XORing those known
segments out of the payload leaves ``I^k_{M\\{k}, u}`` — the ``u``-indexed
segment of the intermediate value node ``k`` is missing.  Collecting the
segments from all ``u ∈ M\\{k}`` and concatenating them in ascending ``u``
(the same order the encoder split in) reconstructs ``I^k_{M\\{k}}`` exactly.

Zero-copy data plane: :func:`recover_intermediate` sizes the full output
from the packet headers up front, allocates it once, and has
:func:`decode_segment_into` decode each sender's segment *directly into
its slice* of that arena — there is no per-segment ``bytes`` and no final
``b"".join``.  The arena (a :func:`~repro.utils.slabs.slab` buffer, the
caller's while anything views it) is returned as-is, so downstream
consumers (``RecordBatch.from_buffer``, ``pickle.loads``) can wrap it
without another copy.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.encoding import (
    CodedPacket,
    CodingError,
    IntermediateLookup,
    segment_of,
    xor_into,
)
from repro.utils.slabs import slab
from repro.utils.subsets import Subset, without


def decode_segment_into(
    receiver: int,
    packet: CodedPacket,
    lookup: IntermediateLookup,
    out: memoryview,
) -> None:
    """Decode ``I^receiver_{M\\{receiver}, sender}`` directly into ``out``.

    ``out`` must be a writable view of exactly the segment's true length
    (``packet.length_for(receiver)``).  The payload prefix is copied in
    once and every locally-known segment is XORed out in place; segments
    longer than the true length only influence bytes past the prefix, so
    truncating the XOR to ``len(out)`` is exact.

    Args:
        receiver: the decoding node ``k``; must be addressed by the packet.
        packet: ``E_{M, u}`` from some ``u ∈ M\\{k}``.
        lookup: the receiver's locally known intermediate values, called as
            ``lookup(M\\{t}, t)`` for ``t ∈ M\\{u, k}``.
    """
    group = packet.group
    sender = packet.sender
    if receiver == sender:
        raise CodingError("a node cannot decode its own packet")
    if receiver not in group:
        raise CodingError(f"receiver {receiver} not in group {group}")
    true_len = packet.length_for(receiver)
    if true_len > len(packet.payload):
        raise CodingError(
            f"header claims {true_len} bytes but payload is "
            f"{len(packet.payload)}"
        )
    if len(out) != true_len:
        raise CodingError(
            f"output slice is {len(out)} bytes, segment needs {true_len}"
        )
    out[:] = memoryview(packet.payload)[:true_len]
    for t in group:
        if t == sender or t == receiver:
            continue
        file_subset = without(group, t)  # receiver ∈ F, so I^t_F is known
        known = lookup(file_subset, t)
        expected = packet.length_for(t)
        seg = segment_of(known, file_subset, sender)
        if len(seg) != expected:
            raise CodingError(
                f"segment length mismatch for target {t}: local {len(seg)} "
                f"vs packet header {expected} (inconsistent map outputs?)"
            )
        xor_into(out, seg)


def recover_intermediate(
    receiver: int,
    group: Subset,
    packets: Mapping[int, CodedPacket],
    lookup: IntermediateLookup,
) -> memoryview:
    """Reassemble ``I^receiver_{M\\{receiver}}`` from a group's packets.

    The output buffer is preallocated from the packet headers and each
    sender's segment is decoded straight into its slice — no per-segment
    buffers, no join.

    Args:
        receiver: node ``k ∈ M``.
        group: the multicast group ``M``.
        packets: sender ``u`` -> ``E_{M,u}`` for every ``u ∈ M\\{k}``.
        lookup: locally known intermediate values.

    Returns:
        The full serialized intermediate value of file ``M\\{k}`` destined
        to the receiver (segments concatenated in ascending sender order,
        matching :func:`repro.core.encoding.segment_bounds`), in one
        writable buffer of its own from :func:`~repro.utils.slabs.slab`,
        which stays the caller's while anything views it.
    """
    file_subset = without(group, receiver)
    lengths = []
    for u in file_subset:  # ascending sender order == segment order
        if u not in packets:
            raise CodingError(f"missing packet from sender {u} in group {group}")
        pkt = packets[u]
        if tuple(pkt.group) != tuple(group):
            raise CodingError(
                f"packet group {pkt.group} does not match {group}"
            )
        if pkt.sender != u:
            raise CodingError(f"packet sender {pkt.sender} filed under {u}")
        lengths.append(pkt.length_for(receiver))
    out = slab(sum(lengths))
    pos = 0
    for u, seg_len in zip(file_subset, lengths):
        decode_segment_into(
            receiver, packets[u], lookup, out[pos : pos + seg_len]
        )
        pos += seg_len
    return out

