"""Thin client for the sort service: futures over the control port.

:class:`ServiceClient` opens **one connection per request** (the control
protocol is strictly request/response), so a single client object is
safe to share across threads — three threads can submit and wait
concurrently with no shared socket state.  :class:`ServiceJobHandle`
is a :class:`~repro.session.JobHandle` settled over the wire
(``done`` / ``wait`` / ``result`` / ``exception``), so driver code
written against a local ``Session`` ports to the service by swapping
``Session(...)`` for ``ServiceClient(addr)`` — both are context
managers with the same ``submit(spec) -> handle`` surface::

    with ServiceClient(addr) as client:
        run = client.submit(TeraSortSpec(input=src)).result()

A handle settled through an elastic shrink-to-fit re-plan reports the
width it actually ran at via :attr:`ServiceJobHandle.replanned_k`.
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, List, Optional

from repro.runtime.errors import WorkerFailure
from repro.runtime.tcp import parse_address
from repro.service.protocol import request
from repro.service.stats import ServiceStats
from repro.session import JobHandle, JobSpec

__all__ = ["ServiceClient", "ServiceJobHandle", "ServiceRejected"]


class ServiceRejected(RuntimeError):
    """The service rejected a submission (admission control).

    Attributes:
        kind: the machine-readable rejection kind from the daemon
            (``"queue_full"``, ``"quota_exceeded"``, or ``"invalid"``
            with the spec's own ``validate`` message).
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _rebuild_failure(kind: str, message: str) -> BaseException:
    """A job failure arrives as ``(kind, message)`` strings; rebuild the
    closest typed exception so client-side ``except WorkerFailure``
    sites keep working."""
    if kind == "worker_failure":
        failure = WorkerFailure(-1, "service", message)
        failure.args = (message,)
        return failure
    return RuntimeError(message)


class ServiceClient:
    """Client for one :class:`~repro.service.daemon.SortService`.

    Args:
        address: the daemon's control address (``tcp://HOST:PORT``).
        connect_timeout: per-request dial + I/O bound.
    """

    def __init__(
        self, address: str, connect_timeout: float = 30.0
    ) -> None:
        self._host, self._port = parse_address(address)
        self._connect_timeout = connect_timeout
        self._closed = False

    # -- lifecycle (context-manager parity with Session) --------------------

    def close(self) -> None:
        """Mark the client closed; later requests raise.  There is no
        standing connection to tear down (one connection per request),
        so this is purely a use-after-close guard.  Idempotent."""
        self._closed = True

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _request(self, req: Any, timeout: Optional[float] = None) -> Any:
        if self._closed:
            raise RuntimeError("service client is closed")
        sock = socket.create_connection(
            (self._host, self._port), timeout=self._connect_timeout
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if timeout is not None:
                sock.settimeout(timeout)
            resp = request(sock, req)
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass
        if (
            isinstance(resp, tuple)
            and resp
            and resp[0] == "error"
        ):
            raise _rebuild_failure(resp[1], resp[2])
        return resp

    # -- API ----------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "default",
        priority: int = 0,
        workers: Optional[int] = None,
    ) -> "ServiceJobHandle":
        """Submit one job; returns a handle immediately.

        Raises:
            ServiceRejected: admission control turned the job away
                (``.kind`` says why — back off or shrink the request),
                or the spec does not validate at the daemon's K
                (``.kind == "invalid"``).
        """
        resp = self._request(
            (
                "submit",
                spec,
                {"tenant": tenant, "priority": priority, "workers": workers},
            )
        )
        if resp[0] == "rejected":
            raise ServiceRejected(resp[1], resp[2])
        assert resp[0] == "ok", resp
        return ServiceJobHandle(self, resp[1], spec)

    def status(
        self, job_id: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Status rows for one job (or all), as plain dicts."""
        resp = self._request(("status", job_id))
        assert resp[0] == "ok", resp
        return resp[1]

    def stats(self) -> ServiceStats:
        resp = self._request(("stats",))
        assert resp[0] == "ok", resp
        return resp[1]

    def shutdown(self) -> None:
        """Ask the daemon to shut down (it responds, then closes)."""
        self._request(("shutdown",))


class ServiceJobHandle(JobHandle):
    """A :class:`~repro.session.JobHandle` settled over the control
    port: :meth:`wait` long-polls the daemon, so ``done`` / ``result`` /
    ``exception`` block, time out and raise as a Session's handle does.

    Attributes:
        replanned_k: once settled, the smaller worker count the
            scheduler's shrink-to-fit policy re-planned the final
            attempt onto, or ``None`` when it ran at the requested
            width.
        attempts: once settled, how many attempts the job took (the
            attempt records stay with the daemon).
    """

    def __init__(
        self, client: ServiceClient, job_id: int, spec: JobSpec
    ) -> None:
        super().__init__(job_id, spec)
        self._client = client
        self.attempts: Optional[int] = None

    def wait(self, timeout: Optional[float] = None) -> bool:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._event.is_set():
            remaining = (
                25.0
                if deadline is None
                else min(25.0, deadline - time.monotonic())
            )
            if remaining < 0:
                return False
            resp = self._client._request(
                ("result", self.job_id, remaining), timeout=remaining + 60.0
            )
            if resp[0] == "ok":
                info = resp[2] if len(resp) > 2 else {}
                self.replanned_k = info.get("replanned_k")
                self.attempts = info.get("attempts")
                self._settle(None, resp[1])
            elif resp[0] == "failed":
                self._settle(_rebuild_failure(*resp[1:]), kind=resp[1])
            elif deadline is not None and time.monotonic() >= deadline:
                return False
        return True
