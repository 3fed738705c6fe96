"""Control-port wire protocol for the sort service.

One request/response pair per connection, length-prefixed frames from
:mod:`repro.runtime.transport` carrying pickled tuples — the same
framing the worker rendezvous uses, behind tiny helpers so the daemon
and client cannot disagree on tags.

Requests (client -> daemon)::

    ("submit", spec, {"tenant": str, "priority": int, "workers": int|None})
    ("status", job_id | None)       # one job, or all jobs
    ("result", job_id, timeout)     # long-poll for a job's outcome
    ("stats",)
    ("shutdown",)

Responses are ``("ok", payload)`` or ``("error", kind, message)`` —
errors travel as strings because the runtime's typed failures do not
round-trip through pickle (``WorkerFailure`` rewrites its ``args``).
Since protocol v2 a settled ``("result", ...)`` success is ``("ok",
payload, info)`` where ``info`` carries attempt metadata (the elastic
scheduler's ``replanned_k``, the attempt count).

Trust model matches the worker rendezvous: submissions pickle arbitrary
job specs, so expose the control port only to trusted clients on a
private network.
"""

from __future__ import annotations

import pickle
import socket
from typing import Any, Tuple

from repro.runtime.transport import TransportError, recv_frame, send_frame

__all__ = [
    "SERVICE_PROTOCOL_VERSION",
    "ServiceProtocolError",
    "recv_obj",
    "request",
    "send_obj",
]

#: Bumped on incompatible control-port changes; checked per frame.
#: v2: settled result responses grew a third attempt-metadata element.
SERVICE_PROTOCOL_VERSION = 2

#: Frame tag for service control messages — distinct from the worker
#: rendezvous tags so a client dialing the wrong port fails typed.
_TAG_SERVICE = 17


class ServiceProtocolError(TransportError):
    """A malformed or mis-versioned control-port frame."""


def send_obj(sock: socket.socket, obj: Any) -> None:
    payload = pickle.dumps(
        (SERVICE_PROTOCOL_VERSION, obj), pickle.HIGHEST_PROTOCOL
    )
    send_frame(sock, _TAG_SERVICE, payload)


def recv_obj(sock: socket.socket) -> Any:
    tag, payload = recv_frame(sock)
    if tag != _TAG_SERVICE:
        raise ServiceProtocolError(
            f"expected service frame tag {_TAG_SERVICE}, got {tag} "
            "(is this really the service control port?)"
        )
    try:
        version, obj = pickle.loads(bytes(payload))
    except Exception as exc:  # noqa: BLE001 - wire garbage, typed below
        raise ServiceProtocolError(f"undecodable service frame: {exc}") from exc
    if version != SERVICE_PROTOCOL_VERSION:
        raise ServiceProtocolError(
            f"service protocol mismatch: peer speaks {version}, "
            f"this side speaks {SERVICE_PROTOCOL_VERSION}"
        )
    return obj


def request(sock: socket.socket, obj: Any) -> Any:
    """One round-trip: send ``obj``, receive the response."""
    send_obj(sock, obj)
    return recv_obj(sock)
