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
  ``MPI_Comm_split``).  Members forward what they receive, and each
  non-root receives exactly once.  ``ibcast`` runs the binomial tree of
  Open MPI's broadcast algorithm — the logarithmic multicast penalty the
  paper measures (§V-C), which the closed-form model keeps — and the
  blocking ``bcast`` a root-relative chain, so the root sends one copy
  and each member forwards at most one;
* ``barrier`` — full synchronization, used between the serial turns of the
  Fig. 9 schedules.

Non-blocking semantics: ``isend`` hands the payload to the endpoint's
asynchronous sender and returns immediately; ``irecv`` and a receiving
``ibcast`` return a lazily-completing request that completes when its
frame arrives (``test`` never blocks, ``wait`` blocks for it); no
receive starts a thread.  A receiving ``ibcast`` at an *interior* tree
node hands its arena view to the same asynchronous sender, for its
tree children, the moment it lands; :meth:`Comm.wait_any` names the posted
receives that have a frame, so a program can sleep until any one does.
Requests must eventually be waited (or tested to completion): an abandoned
receive strands its message, and an interior one nobody drives stalls its
subtree — never block on one receive while another posted one may be
holding a packet its children wait for.

One frame per message; a frame is atomic on its link.  Every user-level
payload crosses its link as exactly one raw frame, which a socket link
writes under the link's lock and a mailbox link puts whole, and the
receiver takes that frame as the payload.  Every peer pair has its own
link, and the async sender runs a whole message at a time, so a large
frame holds up only later frames to the same peer.  Rate pacing works
inside the frame (:func:`~repro.runtime.transport.send_frame`).

The data plane is buffer-protocol end-to-end (zero-copy):

* **sending** — ``send`` / ``isend`` / ``bcast`` / ``ibcast`` accept either
  one buffer (``bytes`` / ``bytearray`` / ``memoryview``) or an ordered
  *gather list* of buffer parts, handed to the link as it is, so the
  payload is never re-copied between the caller and the backend's wire
  primitive (the multiprocessing backend pushes the gather list straight
  into ``sendmsg``);
* **receiving** — ``recv`` / ``irecv`` / ``bcast`` / ``ibcast`` take a
  ``copy`` flag.  ``copy=True`` (default) returns owned ``bytes`` as
  before.  ``copy=False`` returns a zero-copy ``memoryview`` into the
  backend's receive arena; the view is *read-only by contract* — mutating
  it corrupts nothing downstream only if the caller has not shared it —
  and it keeps the arena (from :func:`~repro.utils.slabs.slab`) out of
  reuse for as long as the view (or anything borrowing from it, e.g.
  ``np.frombuffer``) is referenced.

Traffic accounting distinguishes *logical* transfers (one record per
unicast or multicast — the paper's load convention) from *physical* hops:
with ``record_relays=True`` every per-link hop a broadcast takes (every
parent-to-child edge of the tree or chain, including the root's own
sends) is additionally logged with kind ``"relay"``, so the two
broadcast shapes can be compared byte-for-byte per link.  Relay records
are excluded from the default load/wire summaries.

:class:`Comm` is the one communicator, concrete: a pool worker builds one
per job over its mesh endpoint (:class:`~repro.runtime.process.MeshEndpoint`:
peer links, one inbound mailbox, one async sender), the way the paper's
implementation cuts ``MPI_Comm_split`` communicators from its cluster.
The group algorithms, traffic accounting, logical ranks
and typed receive failures live here, so every backend behaves
identically.

Internal tags live in namespaces disjoint from user tags *and* from each
other (broadcast, barrier), so long runs can never alias a barrier frame
onto a broadcast tag.  Every job's user tags (and barrier epochs) are
shifted into the job's own window, so one long-lived endpoint runs many
jobs, back to back or side by side, without frames of two jobs ever
sharing a tag.
"""

from __future__ import annotations

import socket
import threading
import time
from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Collection,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.errors import CommError, RuntimeTimeoutError, WorkerFailure
from repro.runtime.mailbox import Mailbox, MailboxClosed
from repro.runtime.traffic import TrafficLog
from repro.testing import faults
from repro.utils import copytrack

if TYPE_CHECKING:
    from repro.runtime.process import MeshEndpoint

#: Tags at or above this value are reserved for internal protocols
#: (broadcast trees, barriers).  User programs must stay below it.
RESERVED_TAG_BASE = 1 << 48

#: Broadcast inner tags: ``_BCAST_NS | user_tag`` — occupies [2^48, 2^49).
_BCAST_NS = 1 << 48
#: Barrier tags: ``_BARRIER_NS + sequence`` — occupies [2^49, 2^50).
_BARRIER_NS = 1 << 49

#: Pool workers run many jobs over one long-lived endpoint; every job is
#: shifted into its own disjoint window of the user-tag space so a
#: straggler frame from job ``n`` can never alias a receive of job ``n+1``.
#: User tags must stay below the stride.
JOB_TAG_STRIDE = 1 << 32
#: Number of disjoint job windows before the namespace wraps.
_JOB_TAG_WINDOWS = RESERVED_TAG_BASE // JOB_TAG_STRIDE
#: Barrier-epoch stride per job (bounds barriers per job).
_JOB_BARRIER_EPOCH_STRIDE = 1 << 24

#: Sentinel: use the endpoint's configured receive timeout.
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
    bounds the wait (``None`` = the endpoint's configured receive
    timeout); expiry raises :class:`RuntimeTimeoutError`.
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
    """A request completed by the endpoint's async sender thread.

    ``default_timeout`` bounds ``wait(None)``: send futures get the
    endpoint's receive timeout, so a wedged peer surfaces as an error
    instead of an unbounded hang.
    """

    def __init__(self, default_timeout: Optional[float], stage: str) -> None:
        self._event = threading.Event()
        self._value: Optional[bytes] = None
        self._error: Optional[BaseException] = None
        self._default_timeout = default_timeout
        self._stage = stage

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
            raise RuntimeTimeoutError(
                f"send posted in stage {self._stage!r} not complete after "
                f"{timeout}s",
                stage=self._stage,
                seconds=timeout,
            )
        if self._error is not None:
            raise self._error
        return self._value

    def test(self) -> bool:
        if not self._event.is_set():
            return False
        if self._error is not None:
            raise self._error
        return True


class _RecvRequest(Request):
    """Lazily-completing receive: completes on its one frame's arrival.

    No thread is involved: ``test`` pops the frame if it has already
    arrived (a zero-timeout :meth:`Comm.wait_any`); ``wait`` blocks for
    it.  Must only be driven from the owning program's thread (like an
    MPI request).

    With ``children`` (an interior ``ibcast`` receive) the landed arena view
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
        self._tag = tag
        self._copy = copy
        self._children = children
        self._stage = stage
        self._value: Optional[ReceivedPayload] = None
        self._done = False
        self.key = (comm.members[src], tag)
        self.forward: Optional[Request] = None

    def _consume(self, body: Buffer) -> None:
        if self._children:
            comm = self._comm
            self.forward = comm._post(
                lambda: comm._forward(
                    self._children, self._tag, body, self._stage
                )
            )
        if not self._copy:
            body = memoryview(body)
        elif not isinstance(body, bytes):
            copytrack.count_copy(len(body), "api.recv.materialize")
            body = bytes(body)
        self._value = body
        self._done = True

    def test(self) -> bool:
        # wait_any raises once the source is closed and no buffered frame
        # remains, so polling callers observe peer death.
        comm = self._comm
        if not self._done and comm.wait_any((self.key,), 0):
            self._consume(comm._mailbox.pop(self.key))
        return self._done

    def wait(self, timeout: Optional[float] = None) -> Optional[bytes]:
        if not self._done:
            self._consume(
                self._comm._take(
                    self.key, BACKEND_TIMEOUT if timeout is None else timeout
                )
            )
        return self._value


def _purge_stale_frames(mailbox: Mailbox, job_seq: int) -> int:
    """Drop every buffered frame outside ``job_seq``'s tag windows.

    A failed (or aborted) job can leave undelivered frames in the
    worker's mailbox, and a peer may still be sending it that job's
    queued frames after it has moved on; the worker outlives the job, so
    they must be reclaimed.  Covers all three namespaces a job receives
    in: shifted user tags, broadcast inner tags, and barrier rounds.
    """
    window = job_seq % _JOB_TAG_WINDOWS

    def stale(src: int, tag: int) -> bool:
        if tag >= _BARRIER_NS:
            epoch = (tag - _BARRIER_NS) // 64
            return epoch // _JOB_BARRIER_EPOCH_STRIDE != window
        if tag >= _BCAST_NS:
            return (tag - _BCAST_NS) // JOB_TAG_STRIDE != window
        return tag // JOB_TAG_STRIDE != window

    return mailbox.purge(stale)


class Comm:
    """One job's communicator: what a node program is written against.

    A pool worker builds one per job over its mesh endpoint, and building
    it is the job's start.  Logical rank ``i`` is global rank
    ``members[i]``, so a program written for a K'-node cluster runs
    unmodified — and byte-identically to a dedicated K'-worker mesh — on
    any K' workers of a standing mesh, beside other jobs on the rest (a
    Session's jobs name every rank).  Isolation between jobs:

    * the job's user tags and barrier epochs are shifted into the window
      of ``job_seq`` (coordinator-unique), and every buffered frame
      outside it — a finished or failed job's — is dropped
      (:func:`_purge_stale_frames`);
    * the members' links are taken from the endpoint here, once: a job
      planned at membership ``epoch`` refuses a member whose link was
      re-established later (a recycled rank the plan knows nothing
      about), as a :class:`CommError` the coordinator retries on;
    * every receive — blocking, polled or the event loop's arrival wait —
      sleeps on the endpoint's mailbox in ``_ABORT_POLL`` slices,
      checking ``job_control``'s abort flag (a coordinator
      ``("ctl", seq, ("abort", reason))`` frame) after each that came
      back empty, so the members of a job the coordinator failed
      elsewhere unwind promptly; a frame, or the closed source of a dead
      peer (a :class:`WorkerFailure` naming it), wins over the abort
      that peer's death also set off;
    * sends run inline until the first non-blocking one, then on the
      endpoint's one async sender; once ``failed`` is set, what the job
      still has queued there is dropped, not sent ahead of the next
      job's (a peer it waits behind may be stopped for good).

    Attributes:
        rank: this node's logical rank in ``range(size)``.
        size: the job's node count (the paper's ``K``).
        members: the global rank of each logical rank.
        job_seq: the job's coordinator-unique sequence number.
        traffic: the job's traffic log (``None``: nothing logged).
        job_control: the coordinator's mid-job directives (speculation,
            abort), or ``None``.
        stage: the stage traffic is attributed to (:meth:`set_stage`).
        record_relays: when True, every physical broadcast hop is logged
            to the traffic log with kind ``"relay"`` in addition to the
            one logical multicast record.
    """

    _ABORT_POLL = 0.1

    def __init__(
        self,
        endpoint: "MeshEndpoint",
        members: Sequence[int],
        job_seq: int,
        traffic: Optional[TrafficLog],
        epoch: Optional[int] = None,
        control: Optional[Any] = None,
    ) -> None:
        members = list(members)
        me = endpoint.rank
        if len(set(members)) != len(members):
            raise CommError(f"duplicate ranks in job members {members}")
        if me not in members:
            raise CommError(f"rank {me} is not a member of {members}")
        if job_seq < 0:
            raise CommError(f"job_seq must be >= 0, got {job_seq}")
        peers = {}
        for i, g in enumerate(members):
            if g == me:
                continue
            if g not in endpoint.links:
                raise CommError(f"member {g} is not a mesh peer of rank {me}")
            joined = endpoint.peer_epochs[g]
            if epoch is not None and joined > epoch:
                raise CommError(
                    f"member {g} rejoined at membership epoch {joined}, "
                    f"newer than the job's planning epoch {epoch} "
                    f"(recycled rank)"
                )
            peers[i] = endpoint.links[g]
        self.rank = members.index(me)
        self.size = len(members)
        self.members = members
        self.job_seq = job_seq
        self.traffic = traffic
        self.job_control = control
        self.stage = "init"
        self.failed = False
        self.record_relays = endpoint.record_relays
        self._endpoint = endpoint
        self._peers = peers
        self._mailbox = endpoint.mailbox
        self._recv_timeout = endpoint.recv_timeout
        window = job_seq % _JOB_TAG_WINDOWS
        self._job_tag_offset = window * JOB_TAG_STRIDE
        self._barrier_epoch = window * _JOB_BARRIER_EPOCH_STRIDE
        # Set once the async sender has been used; from then on blocking
        # sends route through it too, preserving per-channel FIFO with
        # any still-queued closures.
        self._async_dispatch_used = False
        # A worker runs one job at a time, so only the job starting now
        # can have sent here early: anything else buffered is a finished
        # job's late frame, and nothing will ever receive it.
        _purge_stale_frames(self._mailbox, job_seq)

    def set_stage(self, name: str) -> None:
        """Attribute subsequent traffic to stage ``name``."""
        self.stage = name

    # -- raw frames ------------------------------------------------------------

    def _user_tag(self, tag: int) -> int:
        """Validate a user tag and shift it into the job's window."""
        self._check_tag(tag)
        return tag + self._job_tag_offset

    def _send_raw(self, dst: int, tag: int, payload: BufferParts) -> None:
        """``payload`` as one frame to ``dst``, over the link the job
        started with; its parts go to the link as views, never copied."""
        try:
            self._peers[dst].send(tag, as_views(payload))
        except socket.timeout as exc:
            # SO_SNDTIMEO expiry: the peer stopped draining (wedged or
            # dead) — typed so drivers can tell timeout from protocol bug.
            raise RuntimeTimeoutError(
                f"send to worker {dst} timed out in stage "
                f"{self.stage!r}: {exc}",
                peer=dst,
                stage=self.stage,
            ) from exc
        except OSError as exc:
            raise WorkerFailure(
                dst, self.stage, f"send failed: {exc}"
            ) from exc

    def _post(self, fn: Callable[[], Optional[bytes]]) -> Request:
        """Run a send closure on the endpoint's one async sender, in post
        order; dropped there once the job failed."""
        self._async_dispatch_used = True
        return self._endpoint.post(
            lambda: None if self.failed else fn(), self.stage
        )

    def _take(self, key: Tuple[int, int], timeout=BACKEND_TIMEOUT) -> Buffer:
        """Pop the next frame of ``key``, waiting at most ``timeout``."""
        if not self.wait_any((key,), timeout):  # an expired deadline polls
            raise self._expired((key,), 0)
        return self._mailbox.pop(key)

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
        faults.comm_op("send", self.rank, dst, self.stage, self.job_seq)
        if self.traffic is not None:
            self.traffic.record(
                self.stage, "unicast", self.rank, (dst,), payload_nbytes(payload)
            )
        if self._async_dispatch_used:
            self._post(lambda: self._send_raw(dst, tag, payload)).wait()
        else:
            self._send_raw(dst, tag, payload)

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
                self.stage, "unicast", self.rank, (dst,), payload_nbytes(payload)
            )
        return self._post(lambda: self._send_raw(dst, tag, payload))

    def recv(self, src: int, tag: int, copy: bool = True) -> ReceivedPayload:
        """Blocking tagged receive from a specific source.

        ``copy=False`` returns a zero-copy ``memoryview`` into the receive
        arena (read-only by contract) instead of owned ``bytes``.
        """
        self._check_peer(src)
        tag = self._user_tag(tag)
        faults.comm_op("recv", self.rank, src, self.stage, self.job_seq)
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

        All members of one broadcast must call ``bcast`` (not mix it with
        :meth:`ibcast`): the two forward along different shapes — this
        one along the root-relative chain (:meth:`_chain_links`), each
        member receiving from its predecessor and forwarding to its
        successor.  Only the serial Fig. 9(b) walk calls it, one
        multicast in flight cluster-wide, so a sender's back-to-back
        turns do not pile ``log2`` copies onto its own paced link.

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
            *self._chain_links(group, root, self.rank),
            inner_tag, payload, self.stage, copy,
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

        All members of one broadcast must call ``ibcast`` (not mix it
        with :meth:`bcast`): this one forwards along the binomial tree
        of Open MPI's ``MPI_Bcast`` (:meth:`_tree_links`), ``log2(group
        size)`` rounds on the critical path.  The root's sends run on
        the endpoint's async sender.  Every receiver gets a threadless
        lazy request; an interior one, driven (``test`` / ``wait``)
        onto its landed packet, also hands it to the async sender for its
        children — ``forward`` is that send, to be waited like any other.
        At most one in-flight broadcast may use a given ``(group, tag)``
        pair at a time (same as ``bcast``); drive a request only from the
        thread that posted it.
        """
        group = self._bcast_preflight(members, root, tag, payload)
        if len(group) == 1:
            return _CompletedRequest(payload)
        inner_tag = _BCAST_NS | self._user_tag(tag)
        stage = self.stage
        parent, children = self._tree_links(group, root, self.rank)
        if parent is not None:
            return _RecvRequest(self, parent, inner_tag, copy, children, stage)
        return self._post(
            lambda: self._bcast(None, children, inner_tag, payload, stage)
        )

    def wait_any(
        self, keys: Collection[Tuple[int, int]], timeout=BACKEND_TIMEOUT
    ) -> List[Tuple[int, int]]:
        """The posted receives, by ``Request.key``, that have a frame
        waiting (``MPI_Waitsome``'s first half).

        ``keys``: an O(1)-membership collection of keys (the caller's own
        dict will do).  Blocks until one has a frame, at most ``timeout``
        seconds (default: the endpoint's receive timeout; ``None``:
        unbounded), then :class:`RuntimeTimeoutError` — except
        ``timeout=0``, a poll that may return nothing.  A listed
        request's ``test()`` then completes it.  A source dead with a
        listed receive still empty raises :class:`WorkerFailure`, as
        ``Request.test`` does; so does the coordinator's abort.
        """
        if timeout is BACKEND_TIMEOUT:
            timeout = self._recv_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            remaining = (
                float("inf") if deadline is None else deadline - time.monotonic()
            )
            try:
                ready = self._mailbox.wait_any(
                    keys, max(0.0, min(self._ABORT_POLL, remaining))
                )
            except MailboxClosed as exc:
                raise WorkerFailure(
                    self.members.index(exc.src),
                    self.stage,
                    f"peer connection lost: {exc}",
                ) from exc
            if ready:
                return ready
            control = self.job_control
            reason = None if control is None else control.abort_reason()
            if reason is not None:
                raise WorkerFailure(
                    -1, self.stage, f"job aborted by coordinator: {reason}"
                )
            if remaining <= self._ABORT_POLL:
                break
        if timeout == 0:
            return ready
        raise self._expired(keys, timeout)

    def _expired(self, keys, timeout) -> RuntimeTimeoutError:
        peer = self.members.index(next(iter(keys))[0])  # the first awaited
        return RuntimeTimeoutError(
            f"recv from worker {peer} timed out after {timeout}s in stage "
            f"{self.stage!r} ({len(keys)} receive(s) posted)",
            peer=peer,
            stage=self.stage,
            seconds=timeout,
        )

    def barrier(self) -> None:
        """Block until every rank has reached the barrier: a
        dissemination barrier, log2(K) rounds of shifted token passing."""
        k = self.size
        epoch = self._barrier_epoch
        self._barrier_epoch += 1
        round_idx = 0
        dist = 1
        while dist < k:
            tag = _BARRIER_NS + epoch * 64 + round_idx
            self._send_raw((self.rank + dist) % k, tag, b"")
            self._take((self.members[(self.rank - dist) % k], tag))
            dist <<= 1
            round_idx += 1

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
                        self.stage, "multicast", root, dsts,
                        payload_nbytes(payload),
                    )
        return group

    def _record_hop(self, stage: str, dst: int, nbytes: int) -> None:
        """Log one physical broadcast hop (kind ``"relay"``) if enabled."""
        if self.record_relays and self.traffic is not None:
            self.traffic.record(stage, "relay", self.rank, (dst,), nbytes)

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

    @staticmethod
    def _chain_links(
        group: Tuple[int, ...], root: int, rank: int
    ) -> Tuple[Optional[int], List[int]]:
        """``rank``'s predecessor and successor on the root-relative chain.

        Members are renumbered relative to the root, as in
        :meth:`_tree_links`; relative index ``i`` receives from ``i - 1``
        and forwards to ``i + 1``.  The root has no parent, the last
        member no child.
        """
        g = len(group)
        root_idx = group.index(root)
        rel = (group.index(rank) - root_idx) % g
        parent = None if rel == 0 else group[(root_idx + rel - 1) % g]
        children = [group[(root_idx + rel + 1) % g]] if rel + 1 < g else []
        return parent, children

    def _forward(
        self, children: Sequence[int], tag: int, data: BufferParts, stage: str
    ) -> None:
        """Send ``data`` to this node's children, logging each hop."""
        nbytes = payload_nbytes(data)
        for child in children:
            self._send_raw(child, tag, data)
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
        """One node's blocking share of a broadcast, given its parent and
        children in the broadcast's shape.

        The blocking ``bcast`` runs it on the chain; ``ibcast``'s root
        runs it, on the async sender, to send to its binomial-tree
        children.  Every non-root receives exactly once under either
        shape, so wire bytes are the same; the shape only moves which
        links carry the copies.  Interior nodes
        forward their received arena view to children without copying,
        regardless of ``copy``.
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
        # A window-straddling tag would alias a neighbouring job's.
        if not 0 <= tag < JOB_TAG_STRIDE:
            raise CommError(
                f"tag {tag} outside the job window [0, {JOB_TAG_STRIDE})"
            )
