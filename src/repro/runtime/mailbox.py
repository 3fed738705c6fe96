"""Tagged mailbox shared by the threaded and multiprocessing backends.

A :class:`Mailbox` is one node's inbound message store: frames are keyed by
``(src, tag)`` and delivered FIFO per key.  One waiting primitive serves
every receive the runtime has:

* ``wait_any`` — which of a set of keys have a frame, blocking up to a
  timeout for the first: one key for a blocking selective receive (the
  classic MPI-style matching), one key and no wait for
  ``Request.test()``, every posted receive for the shuffle event loop's
  sleep between arrivals;
* ``pop`` — take the next frame of a key ``wait_any`` reported;
* per-source closure — when a peer's channel dies, only receives matching
  that source fail; traffic from healthy peers keeps flowing (the
  multiprocessing backend's per-peer reader threads close their source on
  EOF while the rest of the mesh stays up).

``close()`` (global) additionally fails *all* pending receives — used by the
threaded backend when any node thread dies so the rest unblock promptly.

Frames are opaque buffers (``bytes`` / ``bytearray`` / ``memoryview``) and
are handed to the consumer *by reference* — the zero-copy ``copy=False``
receive path slices views straight off whatever the producer enqueued (a
receive arena in the multiprocessing backend, possibly the sender's own
memory in the threaded backend).  Consumers must treat popped frames as
read-only.

:class:`MailboxComm` is the receive half of a
:class:`~repro.runtime.api.Comm` over such a mailbox, shared by both
backends.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Collection, Deque, Dict, List, Optional, Tuple, Union

from repro.runtime.api import BACKEND_TIMEOUT, Comm
from repro.runtime.errors import RuntimeTimeoutError, WorkerFailure

_MailKey = Tuple[int, int]  # (src, tag)
_Frame = Union[bytes, bytearray, memoryview]


class MailboxClosed(Exception):
    """Raised by ``wait_any`` when nothing awaited can ever arrive.

    ``src`` is the closed source when one is to blame, else ``None``.
    """

    def __init__(self, message: str, src: Optional[int] = None) -> None:
        super().__init__(message)
        self.src = src


class Mailbox:
    """Per-node tagged mailbox with blocking and non-blocking receive."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: A key leaves with its last frame: bounded by what is in flight.
        self._queues: Dict[_MailKey, Deque[_Frame]] = {}
        self._closed = False
        self._closed_sources: Dict[int, str] = {}

    def put(self, src: int, tag: int, payload: _Frame) -> None:
        with self._cond:
            if self._closed:
                raise MailboxClosed("mailbox closed (peer died?)")
            self._queues.setdefault((src, tag), deque()).append(payload)
            self._cond.notify_all()

    def pop(self, key: _MailKey) -> _Frame:
        """Take the next frame of a key :meth:`wait_any` reported."""
        with self._cond:
            q = self._queues[key]
            frame = q.popleft()
            if not q:
                del self._queues[key]
            return frame

    def wait_any(
        self, keys: Collection[_MailKey], timeout: Optional[float]
    ) -> List[_MailKey]:
        """The members of ``keys`` that have a frame buffered, waiting up
        to ``timeout`` seconds (``None`` = unbounded, 0 = poll) for the
        first; empty once the timeout expired.  Nothing is popped, and
        buffered frames drain before a closure surfaces.

        One absolute deadline for the whole call: wakeups for *other*
        keys (``notify_all`` fires on every put) must not restart the
        clock.  A wakeup costs the smaller of the awaited and buffered
        key counts (pass a dict or set when many keys are awaited).

        Raises:
            MailboxClosed: nothing awaited is buffered and the mailbox, or
                the source of an awaited key, is closed.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                if len(keys) < len(self._queues):
                    ready = [key for key in keys if key in self._queues]
                else:
                    ready = [key for key in self._queues if key in keys]
                if ready:
                    return ready
                if self._closed:
                    raise MailboxClosed("mailbox closed with a receive posted")
                if self._closed_sources:
                    for src, tag in keys:
                        if src in self._closed_sources:
                            raise MailboxClosed(
                                f"source {src} closed with a posted receive "
                                f"(tag {tag}) still empty: "
                                f"{self._closed_sources[src]}",
                                src,
                            )
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return []
                self._cond.wait(timeout=remaining)

    def purge(self, match: "Callable[[int, int], bool]") -> int:
        """Drop every buffered frame whose ``(src, tag)`` key matches.

        Pool workers outlive a failed job and never tear the mailbox
        down between jobs: every job start reclaims a finished or
        aborted job's undelivered frames with this.

        Returns:
            The number of frames dropped.
        """
        with self._cond:
            dropped = 0
            for key in [k for k in self._queues if match(*k)]:
                dropped += len(self._queues[key])
                del self._queues[key]
            return dropped

    def close_source(self, src: int, reason: str) -> None:
        """Fail future receives from ``src`` (already-buffered frames drain)."""
        with self._cond:
            self._closed_sources.setdefault(src, reason)
            self._cond.notify_all()

    def reopen_source(self, src: int) -> None:
        """Clear a per-source closure: a replacement peer took over ``src``.

        Elastic pools recycle a dead worker's rank — when the rejoined
        worker's fresh connection is integrated, receives from that
        source must block for new frames again instead of failing on the
        old incarnation's EOF.  A no-op if the source was never closed.
        """
        with self._cond:
            self._closed_sources.pop(src, None)
            self._cond.notify_all()

    def close(self) -> None:
        """Fail all pending and future receives."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class MailboxComm(Comm):
    """The receive primitives of a ``Comm`` whose inbound frames sit in a
    :class:`Mailbox` (``self._mailbox``, bounded by ``self._recv_timeout``).

    Every receive — blocking, polled, the event loop's arrival wait —
    is one ``wait_any`` through :meth:`_ready` and surfaces the same
    typed failures: a closed source is a :class:`WorkerFailure` naming
    it, an expired wait a :class:`RuntimeTimeoutError`.
    """

    _mailbox: Mailbox
    _recv_timeout: Optional[float]

    def _recv_raw(self, src: int, tag: int, timeout=BACKEND_TIMEOUT) -> _Frame:
        key = self._mail_key(src, tag)
        self.wait_any((key,), timeout)
        return self._mailbox.pop(key)

    def _poll_raw(self, src: int, tag: int) -> Optional[_Frame]:
        key = self._mail_key(src, tag)
        return self._mailbox.pop(key) if self.wait_any((key,), 0) else None

    def wait_any(self, keys, timeout=BACKEND_TIMEOUT):
        if timeout is BACKEND_TIMEOUT:
            timeout = self._recv_timeout
        try:
            ready = self._ready(keys, timeout)
        except MailboxClosed as exc:
            raise WorkerFailure(
                -1 if exc.src is None else self._rank_of(exc.src),
                self._stage,
                f"peer connection lost: {exc}",
            ) from exc
        if ready or timeout == 0:
            return ready
        peer = self._rank_of(next(iter(keys))[0])  # the first one awaited
        raise RuntimeTimeoutError(
            f"recv from worker {peer} timed out after {timeout}s in stage "
            f"{self._stage!r} ({len(keys)} receive(s) posted)",
            peer=peer,
            stage=self._stage,
            seconds=timeout,
        )

    def _rank_of(self, src: int) -> int:
        """The job's rank for mailbox source ``src`` (see ``_mail_key``)."""
        return src

    def _ready(self, keys, timeout: Optional[float]) -> List[_MailKey]:
        """How this endpoint sleeps on its mailbox (a subset job's: in slices)."""
        return self._mailbox.wait_any(keys, timeout)
