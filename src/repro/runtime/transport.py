"""Socket framing: the data plane's frames and the control plane's codec.

Every socket in the system — a mesh link between workers, a forked or TCP
worker's control channel, the service port — carries length-prefixed
frames::

    <tag: uint64 LE> <length: uint64 LE> <payload: length bytes>

The data plane is zero-copy in both directions:

* **sends are vectored** — :func:`send_frame` accepts either one buffer or
  a gather list of buffer parts and hands ``[header, *parts]`` to
  ``sock.sendmsg`` in one call, so the header/payload concatenation and
  any caller-side part join never happen;
* **receives land in one arena** — :func:`recv_frame` reads the length,
  takes one buffer of that size from the process's slab pool
  (:func:`repro.utils.slabs.slab`: a reused anonymous ``mmap`` at 1 MiB
  and above, so a standing process does not fault a large frame's pages
  in again every job), and fills it with ``recv_into`` on memoryview
  slices; no parts list, no join.

A paced frame is written in :data:`CHUNK_BYTES` pieces, each charged to
the sender's :class:`~repro.runtime.ratelimit.TokenBucket` before it
goes out, reproducing the paper's 100 Mbps ``tc`` throttling in
userspace; the frame stays one frame on the stream.

Control messages (job dispatch, results, heartbeats, the rendezvous and
service requests) are one *codec* frame each (:func:`encode_msg` /
:func:`decode_msg`, sent by :func:`send_msg`, read by :func:`recv_msg`,
wrapped per socket by :class:`Channel`)::

    <buffers: uint32> <body: uint64> <length: uint64> x buffers
    <pickle body> (<pad to 8> <buffer>) x buffers

The body is a protocol-5 pickle whose large contiguous NumPy arrays — a
result's sorted partition, an inline input split — leave it as
out-of-band buffers.  They go to ``sendmsg`` as the array's own memory,
and decode rebuilds each array as a view of the one receive arena, so a
result crosses a control channel with no user-space copy on either side.

Trust model: the body is a pickle, so a control channel grants its peer
code execution (a corrupted body can even crash the receiver); it links
mutually trusted hosts only.  What a listening socket reads before it
knows its peer (the rendezvous and peer hellos, a service request) is
capped with :func:`recv_frame`'s ``limit``, and a frame whose framing
is broken — truncated, run long, a head that does not add up, the
wrong tag — raises :class:`CodecError`, never anything else.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, List, Optional, Sequence, Tuple

from repro.runtime.api import Buffer, BufferParts, as_views
from repro.runtime.ratelimit import TokenBucket
from repro.utils.slabs import slab

FRAME_HEADER = struct.Struct("<QQ")
#: Write granularity; also the pacing quantum for rate-limited sends.
CHUNK_BYTES = 64 * 1024
#: Max iovec entries per ``sendmsg`` call (conservative vs POSIX IOV_MAX).
_IOV_MAX = 512

#: Frame tag of pool control messages on every socket control channel.
CTRL_TAG = 2
#: A control message's fixed head: out-of-band buffer count, body length.
_MSG_HEAD = struct.Struct("<IQ")
#: Out-of-band buffers start 8-byte aligned within the frame.
_ALIGN = 8
#: Smaller buffers stay inside the pickle body: an iovec entry and a
#: length word cost more than copying a splitter array.
_INBAND_MAX = 4096


class TransportError(ConnectionError):
    """Raised when a peer closes mid-frame or a read times out."""


class CodecError(TransportError):
    """A control frame that does not decode: truncated, with trailing
    bytes, under an unexpected tag, or not a control message at all."""


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


def chunk_views(views: Sequence[memoryview], chunk: int):
    """Regroup ``views`` into gather lists of at most ``chunk`` bytes each.

    Slices across part boundaries without copying; every yielded list but
    the last totals exactly ``chunk`` bytes.
    """
    cur: List[memoryview] = []
    cur_len = 0
    for v in views:
        pos = 0
        while pos < len(v):
            take = min(chunk - cur_len, len(v) - pos)
            cur.append(v[pos : pos + take])
            cur_len += take
            pos += take
            if cur_len == chunk:
                yield cur
                cur, cur_len = [], 0
    if cur:
        yield cur


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


def recv_frame(
    sock: socket.socket, limit: Optional[int] = None
) -> Tuple[int, memoryview]:
    """Read one complete frame; raises :class:`TransportError` on EOF.

    The payload lands via ``recv_into`` in one writable arena from
    :func:`~repro.utils.slabs.slab`, returned as a ``memoryview`` of
    exactly the frame's length — downstream consumers slice memoryviews
    off it instead of copying, and the arena goes back to the pool once
    nothing views it.  A frame announcing more than ``limit`` bytes is
    refused before anything is allocated for it, and one whose arena
    cannot be allocated raises :class:`TransportError` too: a frame's
    length is its whole message's, so a bad length fails here.
    """
    header = recv_exact(sock, FRAME_HEADER.size)
    tag, length = FRAME_HEADER.unpack(header)
    if limit is not None and length > limit:
        raise TransportError(
            f"{length}-byte frame over this socket's {limit}-byte limit"
        )
    try:
        payload = slab(length)
    except (OverflowError, MemoryError, OSError) as exc:
        raise TransportError(
            f"cannot allocate a {length}-byte frame: {exc}"
        ) from exc
    if length:
        recv_exact_into(sock, payload)
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


# ---------------------------------------------------------------------------
# The control codec.
# ---------------------------------------------------------------------------


def encode_msg(obj: Any) -> List[Buffer]:
    """``obj`` as the gather list of one control frame (see the module
    docstring); out-of-band buffers are the objects' own memory."""
    buffers: List[memoryview] = []

    def in_band(buf: pickle.PickleBuffer) -> bool:
        view = buf.raw()
        if view.nbytes < _INBAND_MAX:
            return True
        buffers.append(view)
        return False

    body = pickle.dumps(obj, 5, buffer_callback=in_band)
    lengths = [v.nbytes for v in buffers]
    parts: List[Buffer] = [
        struct.pack(f"<IQ{len(lengths)}Q", len(lengths), len(body), *lengths),
        body,
    ]
    offset = _MSG_HEAD.size + 8 * len(lengths) + len(body)
    for view in buffers:
        pad = -offset % _ALIGN
        parts += (bytes(pad), view)
        offset += pad + view.nbytes
    return parts


def decode_msg(payload: Buffer) -> Any:
    """Inverse of :func:`encode_msg` over one received frame payload.

    Each out-of-band buffer is handed to the unpickler as a slice of
    ``payload``, so the arrays it rebuilds alias the arena.  Raises
    :class:`CodecError` on broken framing or a body that does not
    unpickle (what a well-formed but hostile body does is the trust
    model's business; see the module docstring).
    """
    view = memoryview(payload)
    if len(view) < _MSG_HEAD.size:
        raise CodecError(f"truncated control frame ({len(view)} bytes)")
    count, body_len = _MSG_HEAD.unpack_from(view)
    start = _MSG_HEAD.size + 8 * count
    if start > len(view):
        raise CodecError(
            f"control frame of {len(view)} bytes cannot hold {count} buffers"
        )
    end = start + body_len
    buffers = []
    for length in struct.unpack_from(f"<{count}Q", view, _MSG_HEAD.size):
        end += -end % _ALIGN
        buffers.append(view[end:end + length])
        end += length
    if end != len(view):
        raise CodecError(
            f"control frame of {len(view)} bytes, its head describes {end}"
        )
    try:
        return pickle.loads(view[start:start + body_len], buffers=buffers)
    except Exception as exc:  # noqa: BLE001 - wire garbage, typed here
        raise CodecError(f"undecodable control frame: {exc!r}") from exc


def send_msg(sock: socket.socket, obj: Any, tag: int = CTRL_TAG) -> None:
    """Write ``obj`` as one control frame (one vectored ``sendmsg``)."""
    send_frame(sock, tag, encode_msg(obj))


def recv_msg(
    sock: socket.socket, tag: int = CTRL_TAG, limit: Optional[int] = None
) -> Any:
    """Read one control frame of ``tag`` (at most ``limit`` bytes)."""
    got, payload = recv_frame(sock, limit)
    if got != tag:
        raise CodecError(f"expected control frame tag {tag}, got {got}")
    return decode_msg(payload)


class Channel:
    """One end of a pool control channel over a stream socket: a forked
    worker's ``socketpair`` end or a TCP worker's coordinator
    connection, on either side (``send`` / ``recv`` / ``fileno`` /
    ``close``).

    Sends are bounded at the kernel by ``timeout``
    (:func:`bound_sends`).  On the pool's end, which receives only once
    the socket is readable, a receive is bounded too (by ``timeout``, at
    most 30 s), so a worker that wedges mid-frame cannot hang the
    reactor; on a worker's end (``pool_end=False``) an idle channel is
    normal.
    """

    def __init__(
        self, sock: socket.socket, timeout: float, pool_end: bool = True
    ) -> None:
        sock.settimeout(None)
        bound_sends(sock, timeout)
        self._sock = sock
        self._recv_timeout = min(30.0, timeout) if pool_end else None

    def send(self, obj: Any) -> None:
        send_msg(self._sock, obj)

    def recv(self) -> Any:
        if self._recv_timeout is None:
            return recv_msg(self._sock)
        self._sock.settimeout(self._recv_timeout)
        try:
            return recv_msg(self._sock)
        finally:
            try:
                self._sock.settimeout(None)
            except OSError:
                pass  # closed under us; the caller sees the recv error

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        self._sock.close()
