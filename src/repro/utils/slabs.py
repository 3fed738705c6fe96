"""One pool per process for the data plane's large buffers.

A sort job's large buffers -- every received frame and result, every
gathered or sorted batch, the coded shuffle's XOR and decode arenas --
have about the same sizes job after job.  Allocated fresh, each one is a
new anonymous mapping whose pages the kernel zero-fills on first touch
(2 to 3 us per 4 KiB page on a 2-vCPU VM: 5 to 7 ms for a 10 MB
result).  :func:`slab` hands such a buffer out of a pool of anonymous
``mmap`` slabs instead, so the next job writes into pages that are
already there.

* **Size.**  A request below :data:`SLAB_MIN` is a plain, unpooled
  buffer (``np.empty``).  At or above it, the buffer is a prefix of a
  slab whose size is the request rounded up to a power of two, so a
  buffer that is a few records longer than last job's still lands in
  last job's slab.  Either way its bytes are undefined (a slab's are
  whatever its last user left there); every caller overwrites the whole
  buffer.
* **Reuse.**  A slab is handed out again only when nothing views it.
  Every ``memoryview`` and NumPy array over a slab holds a reference to
  its ``mmap`` (directly, or through the view it was cut from), so the
  ``mmap``'s reference count tells exactly whether anything still views
  it.  Holding a buffer keeps its slab; nothing is ever given back.
* **Retention.**  :func:`job_window` marks the start of a job.  A free
  slab that no lease used during the window that just ended is released,
  and its pages go back to the kernel; when the new job runs another
  program than the last one, every free slab is.  A job of another
  program has buffers of other sizes, and would hold the last job's
  spare pages through its own peak: where two programs take turns (the
  sort service's tenants), that costs a worker as much resident memory
  as the spare slabs hold.  A lease takes the free slab of its size that
  was leased least recently, so a job whose buffers of one size peak at
  N at once, however briefly, keeps all N slabs in use instead of
  faulting a spare in again whenever the peak recurs.
* **Fork.**  Before a fork the free slabs are released, and the child
  starts with an empty pool, so a forked worker never counts the
  parent's spare pages as its own.
"""

from __future__ import annotations

import mmap
import os
import sys
import threading
from typing import Dict, Hashable, List

import numpy as np

__all__ = ["SLAB_MIN", "job_window", "slab"]

#: The smallest request served from a slab.
SLAB_MIN = 1 << 20


class _Slab:
    __slots__ = ("mm", "used")

    def __init__(self, size: int) -> None:
        # Private, like the heap: after a fork the child's copy is its own.
        self.mm = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        self.used = True  # leased during the current job window


def _refs(s: _Slab) -> int:
    return sys.getrefcount(s.mm)


#: What :func:`_refs` reads for a slab that nothing views.
_IDLE = _refs(_Slab(mmap.PAGESIZE))


class _Pool:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.slabs: Dict[int, List[_Slab]] = {}  # size -> slabs
        self.window: Hashable = None
        self.program: Hashable = None

    def lease(self, nbytes: int) -> memoryview:
        size = 1 << (nbytes - 1).bit_length()
        with self.lock:
            slabs = self.slabs.setdefault(size, [])  # least recent first
            for s in slabs:
                if _refs(s) == _IDLE:
                    slabs.remove(s)
                    break
            else:
                s = _Slab(size)
            slabs.append(s)
            s.used = True
            return memoryview(s.mm)[:nbytes]

    def release(self, keep_used: bool) -> None:
        """Close the free slabs (``keep_used``: only those that no lease
        used in this window); the lock is held."""
        for size, slabs in list(self.slabs.items()):
            kept = []
            for s in slabs:
                idle = _refs(s) == _IDLE
                if idle and not (keep_used and s.used):
                    s.mm.close()
                    continue
                s.used = not idle  # still leased: used in the next window
                kept.append(s)
            if kept:
                self.slabs[size] = kept
            else:
                del self.slabs[size]


_pool = _Pool()


def slab(nbytes: int) -> memoryview:
    """A writable ``nbytes``-byte buffer of undefined contents: from the
    pool at or above :data:`SLAB_MIN`, else a plain one.  It stays the
    caller's while anything views it."""
    if nbytes < SLAB_MIN:
        return memoryview(np.empty(nbytes, dtype=np.uint8))
    return _pool.lease(nbytes)


def job_window(key: Hashable, program: Hashable) -> None:
    """Start the window of job ``key`` (its sequence number), which runs
    ``program`` (its builder), in this process, and release the free
    slabs the retention rule does not keep (see the module docstring).

    Every party of a job calls this as the job starts -- the driver when
    it dispatches, each worker when it receives it -- so where several of
    them share a process (worker threads), repeating the current ``key``
    is a no-op.
    """
    pool = _pool
    with pool.lock:
        if key == pool.window:
            return
        same = program == pool.program
        pool.window, pool.program = key, program
        pool.release(keep_used=same)


def _before_fork() -> None:
    # Held across the fork, so no lease is half done in the child's copy.
    _pool.lock.acquire()
    _pool.release(keep_used=False)


def _after_fork_in_child() -> None:
    global _pool
    _pool = _Pool()


os.register_at_fork(
    before=_before_fork,
    after_in_parent=lambda: _pool.lock.release(),
    after_in_child=_after_fork_in_child,
)
