"""Socket framing for the multiprocessing backend.

Each point-to-point channel is an ``AF_UNIX`` stream socket (created with
``socket.socketpair`` in the parent and inherited over ``fork``).  Messages
are length-prefixed frames::

    <tag: uint64 LE> <length: uint64 LE> <payload: length bytes>

The data plane is zero-copy in both directions:

* **sends are vectored** — :func:`send_frame` accepts either one buffer or
  a gather list of buffer parts and hands ``[header, *parts]`` to
  ``sock.sendmsg`` in one call, so the header/payload concatenation and
  any caller-side part join never happen;
* **receives land in one arena** — :func:`recv_frame` reads the length,
  allocates a single ``bytearray``, and fills it with ``recv_into`` on
  memoryview slices; no parts list, no join.

Large paced payloads are still written in chunks so a sender-side
:class:`~repro.runtime.ratelimit.TokenBucket` can pace them, reproducing
the paper's 100 Mbps ``tc`` throttling in userspace.
"""

from __future__ import annotations

import socket
import struct
from typing import List, Optional, Tuple

from repro.runtime.api import BufferParts, as_views, chunk_views
from repro.runtime.ratelimit import TokenBucket

FRAME_HEADER = struct.Struct("<QQ")
#: Write granularity; also the pacing quantum for rate-limited sends.
CHUNK_BYTES = 64 * 1024
#: Max iovec entries per ``sendmsg`` call (conservative vs POSIX IOV_MAX).
_IOV_MAX = 512


class TransportError(ConnectionError):
    """Raised when a peer closes mid-frame or a read times out."""


def bound_sends(sock: socket.socket, timeout: float) -> None:
    """Bound blocking sends at the kernel (``SO_SNDTIMEO``): a wedged
    peer — connection up, nothing draining — raises in the blocked
    sender instead of hanging it forever.  Unlike ``settimeout`` this
    leaves blocking receives untouched: an idle receive direction is
    normal; a send that cannot drain for this long is not."""
    sock.setsockopt(
        socket.SOL_SOCKET,
        socket.SO_SNDTIMEO,
        struct.pack("ll", int(timeout), int((timeout % 1) * 1e6)),
    )


def send_frame(
    sock: socket.socket,
    tag: int,
    payload: BufferParts,
    pacer: Optional[TokenBucket] = None,
) -> None:
    """Write one frame; ``payload`` may be a buffer or a gather list.

    Unpaced, the header and every payload part go out through a single
    vectored ``sendmsg`` (no concatenation, no per-part ``sendall``).  A
    frame is one atomic unit on the stream either way: partial vectored
    writes are continued until the full frame is out.

    Paced, the header is charged together with the first chunk; pacing
    charges payload + header bytes so measured goodput matches the
    configured rate.
    """
    views = as_views(payload)
    total = sum(len(v) for v in views)
    header = FRAME_HEADER.pack(tag, total)
    if pacer is None:
        # An empty frame is complete once its header is out; sending it as
        # one sendmsg (not header-then-payload) also matters for
        # correctness: the receiver may legitimately consume the frame and
        # exit between two calls, and a trailing no-op send would then
        # raise EPIPE.
        _sendmsg_all(sock, [memoryview(header), *views])
        return
    pacer.consume(len(header))
    sock.sendall(header)
    for chunk in chunk_views(views, CHUNK_BYTES):
        pacer.consume(sum(len(v) for v in chunk))
        _sendmsg_all(sock, chunk)


def _sendmsg_all(sock: socket.socket, views: List[memoryview]) -> None:
    """Vectored ``sendall``: push every view out, resuming partial writes."""
    pending = [v for v in views if len(v)]
    while pending:
        try:
            n = sock.sendmsg(pending[:_IOV_MAX])
        except socket.timeout as exc:  # pragma: no cover - timing dependent
            raise TransportError("socket write timed out") from exc
        while pending and n >= len(pending[0]):
            n -= len(pending[0])
            pending.pop(0)
        if n:
            pending[0] = pending[0][n:]


def recv_frame(sock: socket.socket) -> Tuple[int, bytearray]:
    """Read one complete frame; raises :class:`TransportError` on EOF.

    The payload lands in a single freshly-allocated ``bytearray`` arena
    via ``recv_into`` — downstream consumers slice memoryviews off it
    instead of copying.
    """
    header = recv_exact(sock, FRAME_HEADER.size)
    tag, length = FRAME_HEADER.unpack(header)
    payload = bytearray(length)
    if length:
        recv_exact_into(sock, memoryview(payload))
    return tag, payload


def recv_exact_into(sock: socket.socket, view: memoryview) -> None:
    """Fill ``view`` completely from ``sock`` or raise :class:`TransportError`."""
    total = len(view)
    got = 0
    while got < total:
        try:
            n = sock.recv_into(view[got:])
        except socket.timeout as exc:  # pragma: no cover - timing dependent
            raise TransportError(
                f"socket read timed out ({total} byte frame)"
            ) from exc
        if n == 0:
            raise TransportError(
                f"peer closed connection with {total - got}/{total} bytes pending"
            )
        got += n


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Read exactly ``n`` bytes into one preallocated arena."""
    buf = bytearray(n)
    if n:
        recv_exact_into(sock, memoryview(buf))
    return buf
