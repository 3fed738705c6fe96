"""The unified cluster factory: one URL scheme for all three backends.

Before this module, driver code hand-picked a constructor per backend —
``ThreadCluster(4)``, ``ProcessCluster(8)``, ``TcpCluster(8,
"tcp://host:port")`` — with three divergent call sites in the CLI and
every benchmark.  :func:`connect` collapses them behind one address::

    import repro

    repro.connect("inproc://4")            # 4 worker threads, this process
    repro.connect("proc://8")              # 8 forked worker processes
    repro.connect("tcp://10.0.0.1:4000", size=8)   # real multi-host mesh

The scheme picks the backend, the rest of the URL its only positional
parameter (worker count for the local backends, rendezvous address for
TCP — whose worker count cannot be inferred from an address, hence the
required ``size=`` keyword).  Every other knob is passed through as
keyword arguments to the backend constructor unchanged, so anything the
constructors accept, ``connect`` accepts::

    repro.connect("proc://8", rate_bytes_per_s=12.5e6)
    repro.connect("tcp://:0", size=6, failure_timeout=10.0)

The old constructors remain importable aliases — ``connect`` is sugar,
not a new layer: it returns the exact backend instance, with ``Session``
/ ``SortService`` / ``repro.run`` taking it unchanged.
"""

from __future__ import annotations

from typing import Any, Optional, Union

from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.tcp import TcpCluster

__all__ = ["connect"]

#: scheme -> (backend, what the URL body means)
_SCHEMES = {
    "inproc": (ThreadCluster, "worker count"),
    "thread": (ThreadCluster, "worker count"),
    "proc": (ProcessCluster, "worker count"),
    "process": (ProcessCluster, "worker count"),
    "tcp": (TcpCluster, "rendezvous HOST:PORT"),
}

Cluster = Union[ThreadCluster, ProcessCluster, TcpCluster]


def connect(address: str, size: Optional[int] = None, **options: Any) -> Cluster:
    """Build a cluster from a backend URL (see the module docstring).

    Args:
        address: ``"inproc://K"`` / ``"thread://K"`` (worker threads),
            ``"proc://K"`` / ``"process://K"`` (forked worker
            processes), or ``"tcp://HOST:PORT"`` (multi-host rendezvous
            mesh; ``HOST:PORT`` is where the coordinator listens and
            workers ``repro worker --join``).
        size: worker count.  Required for ``tcp://`` (an address does
            not name a K); optional for the local schemes, where it must
            agree with the URL's count if both are given.
        **options: passed through to the backend constructor unchanged
            (``rate_bytes_per_s=``, ``timeout=``, ``failure_timeout=``,
            ...).

    Returns:
        The backend cluster instance (``ThreadCluster`` /
        ``ProcessCluster`` / ``TcpCluster``).

    Raises:
        ValueError: unknown scheme, malformed worker count, missing or
            conflicting ``size``.
    """
    scheme, sep, rest = address.partition("://")
    if not sep or scheme not in _SCHEMES:
        raise ValueError(
            f"cluster address must look like inproc://K, proc://K, or "
            f"tcp://HOST:PORT, got {address!r} "
            f"(known schemes: {', '.join(sorted(set(_SCHEMES)))})"
        )
    if scheme == "tcp":
        if size is None:
            raise ValueError(
                f"connect({address!r}) needs size= — a TCP rendezvous "
                "address does not name a worker count"
            )
        return TcpCluster(size, address, **options)
    try:
        url_size = int(rest)
    except ValueError:
        raise ValueError(
            f"{scheme}:// takes a worker count, got {address!r} "
            f"(expected e.g. {scheme}://4)"
        ) from None
    if size is not None and size != url_size:
        raise ValueError(
            f"conflicting worker counts: address says {url_size}, "
            f"size= says {size}"
        )
    backend = _SCHEMES[scheme][0]
    return backend(url_size, **options)
