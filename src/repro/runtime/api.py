"""The communication interface node programs are written against.

Mirrors the subset of MPI the paper uses, plus the non-blocking extensions
the pipelined shuffle engine is built on:

* ``send`` / ``recv`` — blocking point-to-point with integer tags
  (``MPI_Send`` / ``MPI_Recv``);
* ``isend`` / ``irecv`` — their non-blocking counterparts
  (``MPI_Isend`` / ``MPI_Irecv``): both return a :class:`Request` handle
  with ``wait`` / ``test``; :func:`wait_all` completes a batch
  (``MPI_Waitall``);
* ``bcast`` / ``ibcast`` — application-layer multicast within an explicit
  member group (``MPI_Bcast`` / ``MPI_Ibcast`` on a communicator built by
  ``MPI_Comm_split``); supports a *linear* root-sends-to-all mode and a
  *binomial tree* mode matching Open MPI's broadcast algorithm — the tree
  is what gives the logarithmic multicast penalty the paper measures
  (§V-C);
* ``barrier`` — full synchronization, used between the serial turns of the
  Fig. 9 schedules.

Non-blocking semantics: ``isend`` hands the payload to the backend's
asynchronous sender and returns immediately; ``irecv`` and a receiving
``ibcast`` return a lazily-completing request that consumes frames as they
arrive (``test`` never blocks, ``wait`` blocks for the remainder); no
receive starts a thread.  A receiving ``ibcast`` at an *interior* TREE
node hands its arena view to the same asynchronous sender, for its
children, the moment it lands; :meth:`Comm.wait_any` names the posted
receives that have a frame, so a program can sleep until any one does.
Requests must eventually be waited (or tested to completion): an abandoned
receive strands its message, and an interior one nobody drives stalls its
subtree — never block on one receive while another posted one may be
holding a packet its children wait for.

Every user-level payload travels as a small framing header plus one or more
chunks of at most ``chunk_bytes`` each, so a large transfer never occupies
a backend channel atomically and rate pacing / progress interleaving work
at chunk granularity.  Chunking is invisible to callers and to traffic
accounting (a message is logged once with its logical payload size).

The data plane is buffer-protocol end-to-end (zero-copy):

* **sending** — ``send`` / ``isend`` / ``bcast`` / ``ibcast`` accept either
  one buffer (``bytes`` / ``bytearray`` / ``memoryview``) or an ordered
  *gather list* of buffer parts; the framing prefix and chunk slices are
  prepended/cut as views, so the payload is never re-copied between the
  caller and the backend's wire primitive (the multiprocessing backend
  pushes the gather list straight into ``sendmsg``);
* **receiving** — ``recv`` / ``irecv`` / ``bcast`` / ``ibcast`` take a
  ``copy`` flag.  ``copy=True`` (default) returns owned ``bytes`` as
  before.  ``copy=False`` returns a zero-copy ``memoryview`` into the
  backend's receive arena; the view is *read-only by contract* — mutating
  it corrupts nothing downstream only if the caller has not shared it —
  and it keeps the arena alive for as long as the view (or anything
  borrowing from it, e.g. ``np.frombuffer``) is referenced.

Traffic accounting distinguishes *logical* transfers (one record per
unicast or multicast — the paper's load convention) from *physical* hops:
with ``record_relays=True`` every per-link hop a broadcast takes (root to
member in LINEAR mode; every parent-to-child edge in TREE mode, including
the root's own sends) is additionally logged with kind ``"relay"``, so the
two multicast modes can be compared byte-for-byte per link.  Relay records
are excluded from the default load/wire summaries.

Backends implement the raw primitives (``_send_raw`` / ``_recv_raw`` /
``_poll_raw`` / ``wait_any`` / ``_barrier_raw`` and the async dispatch
hooks); the group algorithms, chunked framing, and traffic accounting live
here so every backend behaves identically.

Internal tags live in namespaces disjoint from user tags *and* from each
other (broadcast, barrier), so long runs can never alias a barrier frame
onto a broadcast tag.  Session worker pools additionally shift each job's
user tags (and barrier epochs) into a per-job window via :meth:`Comm.begin_job`,
so one long-lived endpoint can run many jobs back to back without frames
of adjacent jobs ever sharing a tag.
"""

from __future__ import annotations

import enum
import struct
import threading
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Collection, List, Optional, Sequence, Tuple, Union

from repro.runtime.traffic import TrafficLog
from repro.testing import faults
from repro.utils import copytrack

#: Tags at or above this value are reserved for internal protocols
#: (broadcast trees, barriers).  User programs must stay below it.
RESERVED_TAG_BASE = 1 << 48

#: Broadcast inner tags: ``_BCAST_NS | user_tag`` — occupies [2^48, 2^49).
_BCAST_NS = 1 << 48
#: Barrier tags: ``_BARRIER_NS + sequence`` — occupies [2^49, 2^50).
_BARRIER_NS = 1 << 49

#: Session worker pools run many jobs over one long-lived endpoint; every
#: job is shifted into its own disjoint window of the user-tag space so a
#: straggler frame from job ``n`` can never alias a receive of job ``n+1``.
#: Inside a session, user tags must stay below the stride.
JOB_TAG_STRIDE = 1 << 32
#: Number of disjoint job windows before the namespace wraps.
_JOB_TAG_WINDOWS = RESERVED_TAG_BASE // JOB_TAG_STRIDE
#: Barrier-epoch stride per job (bounds barriers per job inside a session).
_JOB_BARRIER_EPOCH_STRIDE = 1 << 24

#: Default maximum chunk size for one raw frame of a user payload.
DEFAULT_CHUNK_BYTES = 1 << 20

#: Frame header: number of following chunk frames (0 = payload inline).
_FRAME_PREFIX = struct.Struct("<I")
#: Precomputed inline-payload prefix (the overwhelmingly common case).
_PREFIX_INLINE = _FRAME_PREFIX.pack(0)

#: Sentinel: use the backend's configured receive timeout.
BACKEND_TIMEOUT = object()

#: A single payload buffer (anything exporting the buffer protocol we use).
Buffer = Union[bytes, bytearray, memoryview]
#: One buffer or an ordered gather list of buffers forming one payload.
BufferParts = Union[Buffer, Sequence[Buffer]]
#: What a receive returns: owned bytes (``copy=True``) or an arena view.
ReceivedPayload = Union[bytes, memoryview]


def as_views(payload: BufferParts) -> List[memoryview]:
    """Normalize a payload (buffer or part sequence) to non-empty byte views."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        payload = (payload,)
    return [memoryview(p).cast("B") for p in payload if len(p)]


def payload_nbytes(payload: BufferParts) -> int:
    """Total byte length of a payload in either form."""
    if isinstance(payload, memoryview):
        return payload.nbytes
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return sum(payload_nbytes(p) for p in payload)


def chunk_views(views: Sequence[memoryview], chunk: int):
    """Regroup ``views`` into gather lists of at most ``chunk`` bytes each.

    Slices across part boundaries without copying; every yielded list but
    the last totals exactly ``chunk`` bytes.  Shared by the API's chunked
    framing and the socket transport's paced writes.
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


class CommError(RuntimeError):
    """Raised on protocol misuse (bad ranks, reserved tags, dead peers)."""


class MulticastMode(enum.Enum):
    """How ``bcast`` moves bytes.

    LINEAR: root unicasts to each member in turn — the naive application-
        layer multicast; wall time at the root scales with group size.
    TREE: binomial tree as in Open MPI's ``MPI_Bcast`` — wall time scales
        with ``log2(group size)`` rounds, the behaviour the paper observes.
    """

    LINEAR = "linear"
    TREE = "tree"


# ---------------------------------------------------------------------------
# Requests — waitable handles for non-blocking operations.
# ---------------------------------------------------------------------------


class Request(ABC):
    """Handle for an in-flight non-blocking operation.

    ``wait`` blocks until completion and returns the operation's payload:
    the received bytes (or zero-copy arena view, when posted with
    ``copy=False``) for ``irecv``, the broadcast payload for ``ibcast``
    (at every member, matching ``bcast``'s return contract), and ``None``
    for ``isend``.  ``test`` polls without blocking and reports
    completion.  Errors raised by the underlying transfer re-raise on
    ``wait`` (and on the ``test`` that observes them).  ``wait(timeout)``
    bounds the wait (``None`` = the backend's configured receive
    timeout); expiry raises :class:`CommError`.
    """

    @abstractmethod
    def wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        """Block until the operation completes; return its payload."""

    @abstractmethod
    def test(self) -> bool:
        """Non-blocking completion poll; True once ``wait`` would not block."""


def wait_all(
    requests: Sequence[Request], timeout: Optional[float] = None
) -> List[Optional[bytes]]:
    """Complete every request (``MPI_Waitall``); returns their payloads.

    ``timeout`` is one overall deadline for the whole batch, not a
    per-request allowance.
    """
    if timeout is None:
        return [req.wait() for req in requests]
    deadline = time.monotonic() + timeout
    return [
        req.wait(max(0.0, deadline - time.monotonic())) for req in requests
    ]


class _CompletedRequest(Request):
    """A request that finished (or failed) at creation time."""

    __slots__ = ("_value",)

    def __init__(self, value: Optional[bytes]) -> None:
        self._value = value

    def wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        return self._value

    def test(self) -> bool:
        return True


class _FutureRequest(Request):
    """A request completed by the backend's async sender thread.

    ``default_timeout`` bounds ``wait(None)``: send futures get the
    backend's receive timeout, so a wedged peer surfaces as an error
    instead of an unbounded hang.
    """

    def __init__(self, default_timeout: Optional[float] = None) -> None:
        self._event = threading.Event()
        self._value: Optional[bytes] = None
        self._error: Optional[BaseException] = None
        self._default_timeout = default_timeout

    def _set(self, value: Optional[bytes]) -> None:
        self._value = value
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._error = exc
        self._event.set()

    def wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if timeout is None:
            timeout = self._default_timeout
        if not self._event.wait(timeout):
            raise CommError("request wait timed out")
        if self._error is not None:
            raise CommError(f"async operation failed: {self._error}") from self._error
        return self._value

    def test(self) -> bool:
        if not self._event.is_set():
            return False
        if self._error is not None:
            raise CommError(f"async operation failed: {self._error}") from self._error
        return True


class _RecvRequest(Request):
    """Lazily-completing receive: consumes frames as they become available.

    No thread is involved: ``test`` pops whatever frames have already
    arrived via the backend's non-blocking ``_poll_raw``; ``wait`` blocks
    via ``_recv_raw`` for the remainder.  Must only be driven from the
    owning program's thread (like an MPI request).

    With ``children`` (a TREE interior receive) the landed arena view
    goes to the async sender for them first; the payload is the caller's
    at once, the relay's send request theirs to wait on.

    Attributes:
        key: what :meth:`Comm.wait_any` knows this receive by.
        forward: the relay's send request, once landed (else ``None``).
    """

    def __init__(
        self,
        comm: "Comm",
        src: int,
        tag: int,
        copy: bool = True,
        children: Sequence[int] = (),
        stage: str = "",
    ) -> None:
        self._comm = comm
        self._src = src
        self._tag = tag
        self._copy = copy
        self._children = children
        self._stage = stage
        self._expected: Optional[int] = None  # chunk frames still to come
        self._parts: List[Buffer] = []
        self._value: Optional[ReceivedPayload] = None
        self._done = False
        self.key = comm._mail_key(src, tag)
        self.forward: Optional[Request] = None

    def _consume(self, frame: Buffer) -> None:
        body: ReceivedPayload
        if self._expected is None:
            (nchunks,) = _FRAME_PREFIX.unpack_from(frame)
            if nchunks:
                self._expected = nchunks
                return
            body = memoryview(frame)[_FRAME_PREFIX.size:]
        else:
            self._parts.append(frame)
            self._expected -= 1
            if self._expected:
                return
            total = sum(len(p) for p in self._parts)
            copytrack.count_copy(total, "api.recv.assemble_chunks")
            if self._copy and not self._children:
                body = b"".join(self._parts)
            else:
                body = memoryview(bytearray(total))
                pos = 0
                for p in self._parts:
                    body[pos : pos + len(p)] = p
                    pos += len(p)
            self._parts = []
        if self._children:
            comm, view = self._comm, body
            comm._async_dispatch_used = True
            self.forward = comm._dispatch_send(
                lambda: comm._forward(
                    self._children, self._tag, view, self._stage
                )
            )
        if self._copy and not isinstance(body, bytes):
            copytrack.count_copy(len(body), "api.recv.materialize")
            body = bytes(body)
        self._value = body
        self._done = True

    def test(self) -> bool:
        # _poll_raw raises CommError once the source is closed and no
        # buffered frame remains, so polling callers observe peer death.
        while not self._done:
            frame = self._comm._poll_raw(self._src, self._tag)
            if frame is None:
                return False
            self._consume(frame)
        return True

    def wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if timeout is None:
            while not self._done:
                self._consume(self._comm._recv_raw(self._src, self._tag))
            return self._value
        deadline = time.monotonic() + timeout
        while not self._done:
            remaining = max(0.0, deadline - time.monotonic())
            self._consume(
                self._comm._recv_raw(self._src, self._tag, timeout=remaining)
            )
        return self._value


class Comm(ABC):
    """Per-node communication endpoint.

    Attributes:
        rank: this node's id in ``range(size)``.
        size: total number of nodes (the paper's ``K``).
        chunk_bytes: maximum raw-frame payload; larger user messages are
            split into chunks transparently.
        record_relays: when True, every physical broadcast hop is logged
            to the traffic log with kind ``"relay"`` in addition to the
            one logical multicast record.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        traffic: Optional[TrafficLog] = None,
        multicast_mode: MulticastMode = MulticastMode.LINEAR,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        record_relays: bool = False,
    ) -> None:
        if not 0 <= rank < size:
            raise CommError(f"rank {rank} out of range(size={size})")
        if chunk_bytes < 1:
            raise CommError(f"chunk_bytes must be >= 1, got {chunk_bytes}")
        self.rank = rank
        self.size = size
        self.traffic = traffic
        self.multicast_mode = multicast_mode
        self.chunk_bytes = chunk_bytes
        self.record_relays = record_relays
        self._stage = "init"
        self._stage_listeners: List[Callable[[str, str], None]] = []
        # Set once the async sender path has been used; from then on
        # blocking sends route through it too, preserving per-channel FIFO
        # with any still-queued closures.
        self._async_dispatch_used = False
        # Session pools shift every job into its own user-tag window.
        self._job_tag_offset = 0
        self._in_session = False
        self._job_seq = 0
        # Driver->worker mid-job control channel (speculation); installed
        # by the pool's control loop, None on one-shot/thread backends.
        self.job_control: Optional[Any] = None

    # -- session jobs -----------------------------------------------------------

    def begin_job(self, job_seq: int, traffic: Optional[TrafficLog]) -> None:
        """Rebind this endpoint to job ``job_seq`` of a session worker pool.

        Long-lived pool endpoints call this between jobs: it installs the
        job's own traffic log (per-job byte isolation), resets the stage to
        ``"init"``, and shifts all user tags into the job's reserved window
        of :data:`JOB_TAG_STRIDE` tags — so a stale frame from an earlier
        job (e.g. one aborted mid-shuffle) can never alias a receive of the
        current one.  All endpoints of a cluster must begin the same job
        sequence number before the job's program runs.
        """
        if job_seq < 0:
            raise CommError(f"job_seq must be >= 0, got {job_seq}")
        self.traffic = traffic
        self._stage = "init"
        self._in_session = True
        self._job_seq = job_seq
        self.job_control = None
        self._job_tag_offset = (job_seq % _JOB_TAG_WINDOWS) * JOB_TAG_STRIDE
        self._begin_job_raw(job_seq)

    def _begin_job_raw(self, job_seq: int) -> None:
        """Backend hook: re-namespace internal protocol state per job."""

    def _user_tag(self, tag: int) -> int:
        """Validate a user tag and shift it into the current job window."""
        self._check_tag(tag)
        if self._in_session and tag >= JOB_TAG_STRIDE:
            # Enforced for every job (including job 0, whose offset is 0):
            # a window-straddling tag would alias a neighbouring job's.
            raise CommError(
                f"tag {tag} outside the session job window "
                f"[0, {JOB_TAG_STRIDE})"
            )
        return tag + self._job_tag_offset

    # -- stage attribution ----------------------------------------------------

    def set_stage(self, name: str) -> None:
        """Attribute subsequent traffic to stage ``name``."""
        previous = self._stage
        self._stage = name
        if previous != name:
            for listener in list(self._stage_listeners):
                listener(previous, name)

    @property
    def stage(self) -> str:
        return self._stage

    def add_stage_listener(
        self, listener: Callable[[str, str], None]
    ) -> None:
        """Register ``listener(previous, current)`` for stage changes.

        Stage-progress hook: fired from :meth:`set_stage` whenever the
        attributed stage actually changes — including entry/exit of the
        nested stage scopes the overlapped engines open mid-loop, so a
        listener observes the real stage interleaving (e.g. ``shuffle``
        -> ``map`` -> ``shuffle`` transitions prove Map ran inside the
        shuffle span).  Listeners run on the worker's own thread; they
        must be cheap and must not raise.  ``begin_job`` resets the
        stage directly, so listeners only see intra-job transitions.
        """
        self._stage_listeners.append(listener)

    def remove_stage_listener(
        self, listener: Callable[[str, str], None]
    ) -> None:
        """Deregister a listener; unknown listeners are ignored."""
        try:
            self._stage_listeners.remove(listener)
        except ValueError:
            pass

    # -- backend primitives ----------------------------------------------------

    @abstractmethod
    def _send_raw(self, dst: int, tag: int, payload: BufferParts) -> None:
        """Deliver one raw frame to ``dst`` under ``tag`` (blocking ok).

        ``payload`` is a buffer or a gather list of buffer parts forming
        one frame; backends must treat the parts as a single atomic frame
        (the multiprocessing backend hands them to vectored ``sendmsg``).

        Must be safe to call from multiple threads for *different* tags on
        the same destination (frames of one tag are never sent from two
        threads at once by this layer).
        """

    @abstractmethod
    def _recv_raw(self, src: int, tag: int, timeout=BACKEND_TIMEOUT) -> Buffer:
        """Block until a raw frame from ``src`` with ``tag`` arrives.

        ``timeout``: seconds to wait, ``None`` for unbounded, or the
        :data:`BACKEND_TIMEOUT` sentinel for the backend's configured
        default.  Expiry raises :class:`CommError`.
        """

    @abstractmethod
    def _barrier_raw(self) -> None:
        """Block until all ``size`` nodes have entered the barrier."""

    def _poll_raw(self, src: int, tag: int) -> Optional[bytes]:
        """Non-blocking: pop a buffered raw frame or return None.

        Must raise :class:`CommError` (after draining buffered frames) if
        the source can never deliver — that is how ``Request.test``
        observes peer death.
        """
        raise NotImplementedError

    def _mail_key(self, src: int, tag: int) -> Tuple[int, int]:
        """The backend's name for frames of ``(src, tag)`` (``Request.key``)."""
        return (src, tag)

    def _dispatch_send(self, fn: Callable[[], Optional[bytes]]) -> Request:
        """Run a send closure asynchronously; default executes inline.

        Backends whose raw sends can block for long (socket backpressure)
        override this with a sender-thread dispatch.  Closures for one
        destination+tag must execute in dispatch order.
        """
        return _CompletedRequest(fn())

    def _close_async(self) -> None:
        """Stop backend async helpers; called once the node program ends."""

    # -- chunked framing --------------------------------------------------------

    def _send_framed(self, dst: int, tag: int, payload: BufferParts) -> None:
        """Send one logical payload as a header frame plus chunk frames.

        The framing prefix travels as an extra gather-list part and chunks
        are memoryview slices, so the payload bytes are never copied here.
        """
        views = as_views(payload)
        total = sum(len(v) for v in views)
        if total <= self.chunk_bytes:
            self._send_raw(dst, tag, [_PREFIX_INLINE, *views])
            return
        chunk = self.chunk_bytes
        nchunks = (total + chunk - 1) // chunk
        self._send_raw(dst, tag, [_FRAME_PREFIX.pack(nchunks)])
        for piece in chunk_views(views, chunk):
            self._send_raw(dst, tag, piece)

    # -- public API -------------------------------------------------------------

    def send(self, dst: int, tag: int, payload: BufferParts) -> None:
        """Blocking tagged unicast (logged as one unicast transfer).

        ``payload`` may be one buffer or a gather list of buffer parts
        (sent as one logical message, zero-copy).

        Runs inline (no sender-thread handoff) until the first non-blocking
        send is posted; after that it rides the async sender so messages on
        one channel can never overtake queued closures.
        """
        self._check_peer(dst)
        tag = self._user_tag(tag)
        faults.comm_op("send", self.rank, dst, self._stage, self._job_seq)
        if self.traffic is not None:
            self.traffic.record(
                self._stage, "unicast", self.rank, (dst,), payload_nbytes(payload)
            )
        if self._async_dispatch_used:
            self._dispatch_send(
                lambda: self._send_framed(dst, tag, payload)
            ).wait()
        else:
            self._send_framed(dst, tag, payload)

    def isend(self, dst: int, tag: int, payload: BufferParts) -> Request:
        """Non-blocking tagged unicast; returns a waitable :class:`Request`.

        ``payload`` may be one buffer or a gather list of parts; the caller
        must not mutate any part until the request completes.  The payload
        is logged (one unicast record) at post time, in the stage active
        when ``isend`` was called.
        """
        self._check_peer(dst)
        tag = self._user_tag(tag)
        if self.traffic is not None:
            self.traffic.record(
                self._stage, "unicast", self.rank, (dst,), payload_nbytes(payload)
            )
        self._async_dispatch_used = True
        return self._dispatch_send(lambda: self._send_framed(dst, tag, payload))

    def recv(self, src: int, tag: int, copy: bool = True) -> ReceivedPayload:
        """Blocking tagged receive from a specific source.

        ``copy=False`` returns a zero-copy ``memoryview`` into the receive
        arena (read-only by contract) instead of owned ``bytes``.
        """
        self._check_peer(src)
        tag = self._user_tag(tag)
        faults.comm_op("recv", self.rank, src, self._stage, self._job_seq)
        return _RecvRequest(self, src, tag, copy).wait()

    def irecv(self, src: int, tag: int, copy: bool = True) -> Request:
        """Non-blocking tagged receive; ``wait()`` returns the payload.

        ``copy=False`` makes ``wait()`` return a zero-copy arena view,
        with the same read-only contract as :meth:`recv`.
        """
        self._check_peer(src)
        tag = self._user_tag(tag)
        return _RecvRequest(self, src, tag, copy=copy)

    def bcast(
        self,
        members: Sequence[int],
        root: int,
        tag: int,
        payload: Optional[BufferParts] = None,
        copy: bool = True,
    ) -> BufferParts:
        """Multicast within ``members``; every member must call this.

        Args:
            members: group ranks; must contain both ``root`` and ``self.rank``
                and hold no duplicates.  All members must pass the same group
                (in any order) and tag.
            root: the sending rank.
            tag: user tag (also namespaces concurrent broadcasts).
            payload: required at the root (one buffer or a gather list of
                parts), ignored elsewhere.
            copy: receivers only — ``False`` returns a zero-copy arena view
                instead of owned bytes (read-only contract).

        Returns:
            The payload at every member: the root gets its own payload back
            verbatim (parts stay parts); receivers get bytes or a view.
        """
        group = self._bcast_preflight(members, root, tag, payload)
        if len(group) == 1:
            assert payload is not None
            return payload
        inner_tag = _BCAST_NS | self._user_tag(tag)
        return self._bcast(
            *self._links(group, root), inner_tag, payload, self._stage, copy
        )

    def ibcast(
        self,
        members: Sequence[int],
        root: int,
        tag: int,
        payload: Optional[BufferParts] = None,
        copy: bool = True,
    ) -> Request:
        """Non-blocking multicast; ``wait()`` returns the payload everywhere.

        The root's sends run on the backend's async sender.  Every
        receiver gets a threadless lazy request; a TREE interior one,
        driven (``test`` / ``wait``) onto its landed packet, also hands it
        to the async sender for its children — ``forward`` is that send,
        to be waited like any other.  At most one in-flight broadcast may
        use a given ``(group, tag)`` pair at a time (same as ``bcast``);
        drive a request only from the thread that posted it.
        """
        group = self._bcast_preflight(members, root, tag, payload)
        if len(group) == 1:
            return _CompletedRequest(payload)
        inner_tag = _BCAST_NS | self._user_tag(tag)
        stage = self._stage
        parent, children = self._links(group, root)
        if parent is not None:
            return _RecvRequest(self, parent, inner_tag, copy, children, stage)
        self._async_dispatch_used = True
        return self._dispatch_send(
            lambda: self._bcast(None, children, inner_tag, payload, stage)
        )

    def wait_any(
        self, keys: Collection[Tuple[int, int]], timeout=BACKEND_TIMEOUT
    ) -> List[Tuple[int, int]]:
        """The posted receives, by ``Request.key``, that have a frame
        waiting (``MPI_Waitsome``'s first half).

        ``keys``: an O(1)-membership collection of keys (the caller's own
        dict will do).  Blocks until one has a frame, at most ``timeout``
        seconds (default: the backend's receive timeout; ``None``:
        unbounded), then :class:`CommError` — except ``timeout=0``, a poll
        that may return nothing.  A listed request's ``test()`` then makes
        progress (a chunked payload takes several arrivals).  A source
        dead with a listed receive still empty raises, as ``Request.test``
        does.  Backends implement it (see ``MailboxComm``).
        """
        raise NotImplementedError

    def barrier(self) -> None:
        """Block until every rank has reached the barrier."""
        self._barrier_raw()

    # -- broadcast algorithms -----------------------------------------------------

    def _bcast_preflight(
        self,
        members: Sequence[int],
        root: int,
        tag: int,
        payload: Optional[BufferParts],
    ) -> Tuple[int, ...]:
        """Validate a broadcast call; log the logical multicast at the root."""
        group = tuple(sorted(members))
        if len(set(group)) != len(group):
            raise CommError(f"duplicate members in bcast group {members!r}")
        if root not in group:
            raise CommError(f"root {root} not in group {group}")
        if self.rank not in group:
            raise CommError(f"rank {self.rank} called bcast for group {group}")
        self._check_tag(tag)
        if self.rank == root:
            if payload is None:
                raise CommError("bcast root must provide a payload")
            if self.traffic is not None:
                dsts = tuple(m for m in group if m != root)
                if dsts:
                    self.traffic.record(
                        self._stage, "multicast", root, dsts,
                        payload_nbytes(payload),
                    )
        return group

    def _record_hop(self, stage: str, dst: int, nbytes: int) -> None:
        """Log one physical broadcast hop (kind ``"relay"``) if enabled."""
        if self.record_relays and self.traffic is not None:
            self.traffic.record(stage, "relay", self.rank, (dst,), nbytes)

    def _links(
        self, group: Tuple[int, ...], root: int
    ) -> Tuple[Optional[int], Sequence[int]]:
        """This rank's parent and children in a broadcast from ``root``:
        the binomial tree's, or (LINEAR) the star's — the root sends to
        every member in turn."""
        if self.multicast_mode is MulticastMode.TREE:
            return self._tree_links(group, root, self.rank)
        if self.rank == root:
            return None, [m for m in group if m != root]
        return root, ()

    @staticmethod
    def _tree_links(
        group: Tuple[int, ...], root: int, rank: int
    ) -> Tuple[Optional[int], List[int]]:
        """``rank``'s parent and children in the binomial broadcast tree.

        Members are renumbered relative to the root; in round ``i`` every
        current holder forwards to the member ``2^i`` positions ahead.
        Scanning masks upward, the first set bit of the relative index
        names the round in which a member is reached; its parent is the
        index with that bit cleared, and its children are the indices
        reached by setting each lower bit (in descending round order).
        The root (relative index 0) has no parent.
        """
        g = len(group)
        root_idx = group.index(root)
        rel = (group.index(rank) - root_idx) % g
        parent: Optional[int] = None
        mask = 1
        while mask < g:
            if rel & mask:
                parent = group[((rel - mask) + root_idx) % g]
                break
            mask <<= 1
        mask >>= 1
        children: List[int] = []
        while mask > 0:
            if rel + mask < g:
                children.append(group[(rel + mask + root_idx) % g])
            mask >>= 1
        return parent, children

    def _forward(
        self, children: Sequence[int], tag: int, data: BufferParts, stage: str
    ) -> None:
        """Send ``data`` to this node's children, logging each hop."""
        nbytes = payload_nbytes(data)
        for child in children:
            self._send_framed(child, tag, data)
            self._record_hop(stage, child, nbytes)

    def _bcast(
        self,
        parent: Optional[int],
        children: Sequence[int],
        tag: int,
        payload: Optional[BufferParts],
        stage: str,
        copy: bool = True,
    ) -> BufferParts:
        """One node's blocking share of a broadcast over its :meth:`_links`.

        On the binomial tree (MPICH/Open MPI algorithm) every non-root
        receives exactly once, so wire bytes equal the linear mode; only
        the critical path shortens to ``ceil(log2(g))`` rounds.  Interior
        nodes forward their received arena view to children without
        copying, regardless of ``copy``.
        """
        data = payload
        if parent is not None:
            data = _RecvRequest(
                self, parent, tag, copy and not children
            ).wait()
        assert data is not None
        self._forward(children, tag, data, stage)
        if parent is not None and copy and children:
            copytrack.count_copy(payload_nbytes(data), "api.recv.materialize")
            return bytes(data) if not isinstance(data, bytes) else data
        return data

    # -- checks ----------------------------------------------------------------

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise CommError(f"peer {peer} out of range(size={self.size})")
        if peer == self.rank:
            raise CommError("self-send/recv is not allowed")

    @staticmethod
    def _check_tag(tag: int) -> None:
        if not 0 <= tag < RESERVED_TAG_BASE:
            raise CommError(
                f"tag {tag} outside user range [0, {RESERVED_TAG_BASE})"
            )


def barrier_tag(round_idx: int) -> int:
    """Internal tag for dissemination-barrier round ``round_idx``."""
    return _BARRIER_NS + round_idx
