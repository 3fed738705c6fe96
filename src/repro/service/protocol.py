"""Control-port wire protocol for the sort service.

One request/response pair per connection, each one control-codec frame
(:func:`repro.runtime.transport.send_msg`) — the framing and codec the
worker channels use, so a settled result's sorted partitions leave the
daemon as out-of-band buffers, not inside a pickle — behind tiny helpers
so the daemon and client cannot disagree on tags.

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
private network.  The daemon reads at most :data:`MAX_REQUEST_BYTES`
of a request, and a frame that does not decode is a typed
:class:`ServiceProtocolError`.
"""

from __future__ import annotations

import socket
from typing import Any, Optional

from repro.runtime.transport import CodecError, recv_msg, send_msg

__all__ = [
    "MAX_REQUEST_BYTES",
    "SERVICE_PROTOCOL_VERSION",
    "ServiceProtocolError",
    "recv_obj",
    "request",
    "send_obj",
]

#: Bumped on incompatible control-port changes; checked per frame.
#: v2: settled result responses grew a third attempt-metadata element.
#: v3: frames are control-codec frames (arrays out of band), not bare
#: pickles.
SERVICE_PROTOCOL_VERSION = 3

#: Frame tag for service control messages — distinct from the worker
#: rendezvous tags so a client dialing the wrong port fails typed.
_TAG_SERVICE = 17

#: Largest request frame the daemon reads (an inline input rides in
#: one); anything announcing more is refused before it is allocated.
MAX_REQUEST_BYTES = 1 << 30


class ServiceProtocolError(CodecError):
    """A malformed or mis-versioned control-port frame."""


def send_obj(sock: socket.socket, obj: Any) -> None:
    send_msg(sock, (SERVICE_PROTOCOL_VERSION, obj), _TAG_SERVICE)


def recv_obj(sock: socket.socket, limit: Optional[int] = None) -> Any:
    try:
        msg = recv_msg(sock, _TAG_SERVICE, limit)
    except CodecError as exc:
        raise ServiceProtocolError(
            f"{exc} (is this really a v{SERVICE_PROTOCOL_VERSION} service "
            "control port?)"
        ) from exc
    if not (isinstance(msg, tuple) and len(msg) == 2):
        raise ServiceProtocolError(f"not a service message: {msg!r:.80}")
    version, obj = msg
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
