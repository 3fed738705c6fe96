"""Message-passing runtime: an MPI-like substrate built from scratch.

The paper implements both algorithms in C++ over Open MPI (``MPI_Send``,
``MPI_Bcast``, ``MPI_Comm_split``).  This package provides the equivalent
communication layer for the reproduction:

* :mod:`repro.runtime.api` — the :class:`Comm` communicator (blocking send /
  recv / bcast / barrier plus non-blocking isend / irecv / ibcast with
  :class:`Request` handles) that node programs are written against;
* the pool's three worker transports, one per :func:`repro.connect`
  scheme: :mod:`repro.runtime.inproc` (``inproc://``) — worker threads
  in this process over shared mailboxes, used for functional tests and
  byte accounting; :mod:`repro.runtime.process` (``proc://``) — forked
  workers over an AF_UNIX socket mesh with optional token-bucket rate
  limiting (the paper throttles EC2 NICs to 100 Mbps with ``tc``);
  :mod:`repro.runtime.tcp` (``tcp://``) — ``repro worker`` agents dial a
  rendezvous coordinator over TCP and form the same K×K mesh across real
  machines (the paper's actual EC2 deployment shape);
* :mod:`repro.runtime.transport` — the one socket framing: the zero-copy
  data plane's frames, and the control codec (a pickle body, NumPy arrays
  out of band) that every socket control channel speaks — forked and TCP
  workers' :class:`~repro.runtime.transport.Channel` and the service port;
* :mod:`repro.runtime.pool` — the one driver-side worker pool: a reactor
  (dispatch, heartbeats, failure classification) over every backend's
  worker *transport*, shared by ``Session``, the sort service and the
  one-shot ``cluster.run``;
* :mod:`repro.runtime.traffic` — traffic accounting that counts each
  multicast payload once (the paper's communication-load convention) while
  also tracking raw wire bytes.
"""

from repro.runtime.api import Comm, CommError, Request, wait_all
from repro.runtime.traffic import TrafficLog, TrafficRecord
from repro.runtime.program import (
    ClusterResult,
    NodeProgram,
    streaming_multicast_shuffle,
)

__all__ = [
    "Comm",
    "CommError",
    "Request",
    "wait_all",
    "TrafficLog",
    "TrafficRecord",
    "NodeProgram",
    "ClusterResult",
    "streaming_multicast_shuffle",
]
