"""Payload-copy accounting for the zero-copy shuffle data plane.

The data plane's performance contract is *counted in copies*: a record
batch should be materialized once at the producer and land once in the
receiver's arena, with every intermediate hop operating on buffer views.
This module gives that contract a measurable witness: every library site
that still copies payload bytes calls :func:`count_copy`, and the perf
ledger's ``runtime.transport.copies_per_byte`` row
(``benchmarks/ledger/layers.py``) wraps its transport loop in
:func:`track` to report copied bytes per payload byte.

Accounting convention: the receive-side arena fill (``recv_into`` moving
bytes out of the kernel) is the transfer itself and is *not* counted; any
user-space duplication of payload bytes after production or after landing
is.  Tracking is process-local (a forked worker counts its own copies and
ships the totals home in its program result) and disabled by default, so
the hot path pays one global-flag check when idle.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator

_lock = threading.Lock()
_enabled = False
_sites: Dict[str, int] = {}


def count_copy(nbytes: int, site: str) -> None:
    """Record ``nbytes`` of payload copied at ``site`` (no-op when idle)."""
    if not _enabled or nbytes <= 0:
        return
    with _lock:
        _sites[site] = _sites.get(site, 0) + nbytes


@contextmanager
def track() -> Iterator[Dict[str, int]]:
    """Enable copy counting; yields the ``site -> bytes`` dict.

    The dict is filled on scope exit (and is safe to read afterwards).
    Scopes do not nest: the innermost exit disables counting globally.
    """
    global _enabled
    with _lock:
        _sites.clear()
    _enabled = True
    counts: Dict[str, int] = {}
    try:
        yield counts
    finally:
        _enabled = False
        with _lock:
            counts.update(_sites)
