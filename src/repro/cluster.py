"""The one cluster: :func:`connect` builds it from a URL.

The paper's implementation (§V) is one coordinator and K workers running
one program.  So is this one: a :class:`Cluster` is the configuration of
one :class:`~repro.runtime.pool.WorkerPool`, and the URL's scheme picks
the transport its workers come to exist by::

    import repro

    repro.connect("inproc://4")            # 4 worker threads, this process
    repro.connect("proc://8")              # 8 forked worker processes
    repro.connect("tcp://10.0.0.1:4000", size=8)   # real multi-host mesh

The rest of the URL is the worker count for the local schemes and the
rendezvous address for TCP, whose worker count an address cannot name
(hence ``size=``).  Every other knob is a keyword setting, declared once
in :data:`SETTINGS` with one name, one default and one meaning on every
scheme; a setting a scheme cannot honour is rejected by name::

    repro.connect("proc://8", rate_bytes_per_s=12.5e6)
    repro.connect("tcp://127.0.0.1:0", size=6, failure_timeout=10.0)

``Session`` / ``SortService`` / ``repro.run`` take the cluster as it is.
"""

from __future__ import annotations

import itertools
import socket
from typing import Any, Dict, Optional, Tuple

from repro.runtime.api import Comm, MulticastMode
from repro.runtime.inproc import InprocMesh
from repro.runtime.pool import WorkerPool
from repro.runtime.process import WORKER_SETTINGS, ForkMesh
from repro.runtime.program import (
    ClusterResult,
    NodeProgram,
    PreparedJob,
    ProgramFactory,
)
from repro.runtime.tcp import Rendezvous, TcpClusterError, parse_address

__all__ = ["Cluster", "SETTINGS", "connect"]

#: scheme -> the transport its pool's workers come to exist by
_TRANSPORTS = {"inproc": InprocMesh, "proc": ForkMesh, "tcp": Rendezvous}
_ALL = tuple(_TRANSPORTS)

#: Every cluster setting: name -> (default, the schemes that honour it).
SETTINGS: Dict[str, Tuple[Any, Tuple[str, ...]]] = {
    # Linear or binomial-tree application multicast.
    "multicast_mode": (MulticastMode.TREE, _ALL),
    # Per-worker egress throttle (12.5e6 is the paper's 100 Mbps; None:
    # unpaced).  Mailbox links between worker threads never pace.
    "rate_bytes_per_s": (None, ("proc", "tcp")),
    # The per-job bound: any one receive on a worker, and the pool's
    # deadline for the whole job.
    "timeout": (300.0, _ALL),
    # Also log every physical broadcast hop (kind "relay").
    "record_relays": (False, _ALL),
    # How often a worker reports its stage mid-job (None: never); feeds
    # failure detection and map speculation.
    "heartbeat_interval": (0.5, _ALL),
    # A worker silent this long mid-job is declared dead (WorkerFailure).
    "failure_timeout": (30.0, _ALL),
    # How long a pool start waits for K workers to dial the rendezvous.
    "connect_timeout": (30.0, ("tcp",)),
    # Per-step bound of the rendezvous handshake.
    "handshake_timeout": (30.0, ("tcp",)),
}


class Cluster:
    """K workers behind one coordinator; build it with :func:`connect`.

    Attributes:
        scheme: ``"inproc"``, ``"proc"`` or ``"tcp"``.
        size: the worker count (the paper's ``K``).
        listener: the TCP rendezvous listener, bound at construction and
            kept open across pool generations, so workers may dial in
            before or after the driver starts and replacements can
            rejoin; ``None`` on the local schemes.

    Every name in :data:`SETTINGS` is an attribute too.  Workers outlive
    a failed job; whether the mesh is re-formed after one is up to the
    pool's entry point (a Session does, the sort service never does).
    """

    def __init__(
        self,
        scheme: str,
        size: int,
        listen: Optional[Tuple[str, int]] = None,
        **settings: Any,
    ) -> None:
        if size < 1:
            raise ValueError(f"cluster size must be >= 1, got {size}")
        unknown = sorted(set(settings) - set(SETTINGS))
        if unknown:
            raise TypeError(
                f"unknown cluster setting(s) {', '.join(unknown)} "
                f"(known: {', '.join(SETTINGS)})"
            )
        for name, (default, schemes) in SETTINGS.items():
            value = settings.get(name, default)
            if scheme not in schemes and value != default:
                raise ValueError(
                    f"{scheme}:// cannot honour {name}={value!r}; only "
                    f"{', '.join(s + '://' for s in schemes)} can"
                )
            setattr(self, name, value)
        self.scheme = scheme
        self.size = size
        self.listener: Optional[socket.socket] = None
        if listen is None:
            return
        host, port = listen
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError as exc:
            sock.close()
            raise TcpClusterError(
                f"cannot listen on {host}:{port}: {exc}"
            ) from exc
        sock.listen(size + 8)
        self.listener = sock
        self.host = host
        self.port = sock.getsockname()[1]

    @property
    def address(self) -> str:
        """This cluster's URL; on ``tcp://`` the bound rendezvous address
        workers should ``--join`` (port 0 resolved)."""
        if self.listener is None:
            return f"{self.scheme}://{self.size}"
        return f"tcp://{self.host}:{self.port}"

    def worker_settings(self) -> Dict[str, Any]:
        """What every worker runs under, by the keys the TCP welcome
        carries (:data:`~repro.runtime.process.WORKER_SETTINGS`)."""
        settings = {name: getattr(self, name) for name in WORKER_SETTINGS}
        settings["multicast_mode"] = self.multicast_mode.value
        return settings

    def create_pool(self) -> WorkerPool:
        """A standing worker pool over this cluster.

        The pool forms the mesh on its first job (threads, a fork, or K
        workers admitted through the rendezvous) and runs many jobs on
        it.  :class:`repro.session.Session` is the driver-facing API over
        it.
        """
        return WorkerPool(_TRANSPORTS[self.scheme](self), self)

    def run(self, factory: ProgramFactory) -> ClusterResult:
        """Run one program instance per worker and gather results,
        timings and traffic: a one-job :meth:`create_pool`.

        ``factory`` stays in this process, parked in a registry by
        token; only the token crosses the control channel.  Worker
        threads read the registry, forked workers inherit it through
        ``fork``, so the factory may close over anything without
        pickling.  A remote worker inherits nothing, so ``tcp://``
        rejects it.

        Raises:
            RuntimeError: a worker failed (a
                :class:`~repro.runtime.errors.WorkerFailure` when it
                died) or the run timed out; the worker's traceback text
                is included.
        """
        if self.scheme == "tcp":
            raise ValueError(
                "tcp:// cannot honour run(factory): a remote worker cannot "
                "inherit a factory; submit a JobSpec to a Session instead"
            )
        token = next(_factory_tokens)
        _FACTORIES[token] = factory
        try:
            with self.create_pool() as pool:
                return pool.run_job(
                    PreparedJob(
                        builder=_build_inherited,
                        payloads=[token] * self.size,
                        finalize=lambda result: result,
                    ),
                    last=True,
                )
        finally:
            del _FACTORIES[token]

    def close(self) -> None:
        """Close the TCP rendezvous listener (idempotent; nothing to do on
        a local scheme).  Pools already running keep their connections;
        no new pool can start."""
        if self.listener is not None:
            self.listener.close()

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster({self.address!r}, size={self.size})"


#: Program factories of in-flight :meth:`Cluster.run` calls, by token.
_FACTORIES: Dict[int, ProgramFactory] = {}
_factory_tokens = itertools.count()


def _build_inherited(comm: Comm, token: int) -> NodeProgram:
    return _FACTORIES[token](comm)


def connect(url: str, size: Optional[int] = None, **settings: Any) -> Cluster:
    """Build the cluster a URL names (see the module docstring).

    Args:
        url: ``"inproc://K"`` (worker threads), ``"proc://K"`` (forked
            worker processes), or ``"tcp://HOST:PORT"`` (multi-host
            rendezvous mesh; ``HOST:PORT`` is where the coordinator
            listens and workers ``repro worker --join``).
        size: worker count.  Required for ``tcp://``; optional for the
            local schemes, where it must agree with the URL's count.
        **settings: any of :data:`SETTINGS`.

    Raises:
        ValueError: unknown scheme, malformed worker count or port,
            missing or conflicting ``size``, or a setting the scheme
            cannot honour.
        TypeError: a keyword that is no setting.
        TcpClusterError: the rendezvous address cannot be bound.
    """
    scheme, sep, rest = url.partition("://")
    if not sep or scheme not in _TRANSPORTS:
        raise ValueError(
            f"cluster address must look like inproc://K, proc://K, or "
            f"tcp://HOST:PORT, got {url!r} "
            f"(known schemes: {', '.join(_TRANSPORTS)})"
        )
    if scheme == "tcp":
        if size is None:
            raise ValueError(
                f"connect({url!r}) needs size= — a TCP rendezvous "
                "address does not name a worker count"
            )
        return Cluster(scheme, size, parse_address(url), **settings)
    if not (rest.isascii() and rest.isdigit()):
        raise ValueError(
            f"{scheme}:// takes a worker count, got {url!r} "
            f"(expected e.g. {scheme}://4)"
        )
    if size is not None and size != int(rest):
        raise ValueError(
            f"conflicting worker counts: address says {int(rest)}, "
            f"size= says {size}"
        )
    return Cluster(scheme, int(rest), **settings)
