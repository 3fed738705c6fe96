"""Spillable run files and the streaming external k-way merge.

This is the disk half of the out-of-core data plane.  A **run** is a
sorted sequence of 100-byte records stored either resident (one
:class:`~repro.kvpairs.records.RecordBatch`) or in a *run file* — raw
packed teragen-format records, the same on-disk layout Hadoop TeraGen
writes, read back as mmap-backed zero-copy ``RecordBatch`` views (NumPy
keeps the mapping alive, so views stay valid after the file object is
closed and even after the run file is unlinked).

:func:`merge_runs` is the streaming external k-way merge: it walks every
run in bounded windows and repeatedly emits the records at or below the
smallest loaded *window-end* key, merging each round with one
:func:`~repro.kvpairs.sorting.merge_sorted` call (the one-word stable
sort of the round's heads).  The merge is **stable across runs** — ties go to the earlier run, and within
a run to the earlier record — so merging the stably-sorted chunks of a
stream, in chunk order, reproduces byte-for-byte what one stable in-RAM
sort of the whole stream would produce.  That equivalence is what lets
the out-of-core sort programs promise output byte-identical to the
in-memory path.

Run files are the only on-disk format: a run carries no side data, and
every window is validated once as it is loaded (an ``is_sorted`` scan
plus the window-boundary key check), so :func:`merge_runs` calls the
merge with ``check=False`` and still keeps the "unsorted runs raise"
contract.

:class:`ExternalSorter` packages the write side of that contract: feed it
batches in stream order, it accumulates up to a chunk budget, stable-sorts
each chunk, spills it as one run, and hands the ordered run list to
:func:`merge_runs`.  :class:`StreamStore` is the unsorted cousin used by
the coded Map stage: per-key append-ordered record streams spilled to one
file per key, read back as mmap views (the deterministic byte layout XOR
coding requires) or as bounded windows.

Spill hygiene: every run file lives under a per-job :class:`SpillDir`
(``repro-spill-<pid>-*`` under the system temp dir, or ``$REPRO_SPILL_DIR``).
Dirs are removed on job success *and* failure (program ``finally``),
at interpreter exit (``atexit``), and :func:`SpillDir.sweep_stale` lets a
fresh worker reap dirs orphaned by a SIGKILLed predecessor on the same
host.
"""

from __future__ import annotations

import atexit
import mmap
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.sorting import is_sorted, merge_sorted, sort_batches
from repro.utils import copytrack
from repro.utils.residency import ResidencyMeter

#: Default merge window per run and output chunk, in records.
DEFAULT_WINDOW_RECORDS = 16384
#: Prefix shared by every spill dir (the ``.gitignore``d pattern).
SPILL_DIR_PREFIX = "repro-spill"

_active_dirs: "set[str]" = set()
_active_lock = threading.Lock()


def _cleanup_active() -> None:  # pragma: no cover - exercised at exit
    with _active_lock:
        paths = list(_active_dirs)
        _active_dirs.clear()
    for path in paths:
        shutil.rmtree(path, ignore_errors=True)


atexit.register(_cleanup_active)


def spill_base_dir() -> str:
    """Where spill dirs are created: ``$REPRO_SPILL_DIR`` or the system tmp."""
    return os.environ.get("REPRO_SPILL_DIR") or tempfile.gettempdir()


class SpillDir:
    """A per-job temp directory holding run files (context manager).

    The directory name embeds the creating pid
    (``repro-spill-<pid>-<rand>``) so :func:`sweep_stale` can tell live
    dirs from orphans.  ``cleanup()`` is idempotent and also runs from an
    ``atexit`` hook, so a worker that exits through ``SystemExit`` (e.g.
    the TCP agent's SIGTERM handler) still removes its dirs.
    """

    def __init__(self, tag: str = "job", base: Optional[str] = None) -> None:
        base = base or spill_base_dir()
        os.makedirs(base, exist_ok=True)
        self.path = tempfile.mkdtemp(
            prefix=f"{SPILL_DIR_PREFIX}-{os.getpid()}-{tag}-", dir=base
        )
        self._seq = 0
        self._lock = threading.Lock()
        with _active_lock:
            _active_dirs.add(self.path)

    def new_path(self, prefix: str = "run") -> str:
        """A fresh file path inside the dir (files are created lazily)."""
        with self._lock:
            self._seq += 1
            return os.path.join(self.path, f"{prefix}-{self._seq:06d}.bin")

    def cleanup(self) -> None:
        """Remove the directory and everything in it (idempotent)."""
        with _active_lock:
            _active_dirs.discard(self.path)
        shutil.rmtree(self.path, ignore_errors=True)

    @property
    def exists(self) -> bool:
        return os.path.isdir(self.path)

    def __enter__(self) -> "SpillDir":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()

    @staticmethod
    def sweep_stale(base: Optional[str] = None) -> List[str]:
        """Remove spill dirs whose creator process is gone; returns removals.

        Covers workers that died without running ``atexit`` (SIGKILL): the
        next agent starting on the same host reaps their leftovers.  Dirs
        belonging to live pids (including this process) are left alone.

        Race-safe under concurrent sweeps (every worker of a re-forked
        pool sweeps at startup): a sweeper first *claims* an orphan by
        renaming it to ``<name>.reap-<sweeper pid>`` — the atomic rename
        ensures exactly one winner per dir — then removes the claimed
        name.  A claim whose sweeper itself died is re-claimed by the
        next sweep.
        """
        base = base or spill_base_dir()
        removed: List[str] = []
        try:
            entries = os.listdir(base)
        except OSError:
            return removed
        for name in entries:
            if not name.startswith(SPILL_DIR_PREFIX + "-"):
                continue
            plain, _, claim = name.partition(".reap-")
            parts = plain.split("-")
            try:
                owner = int(parts[2])
            except (IndexError, ValueError):
                continue
            if claim:
                # Already claimed: only steal it from a dead sweeper.
                try:
                    claimer = int(claim.rsplit(".reap-", 1)[-1])
                except ValueError:
                    continue
                if claimer == os.getpid() or _pid_alive(claimer):
                    continue
            elif owner == os.getpid() or _pid_alive(owner):
                continue
            path = os.path.join(base, name)
            claimed = f"{path}.reap-{os.getpid()}"
            try:
                os.rename(path, claimed)
            except OSError:
                continue  # lost the claim race to a concurrent sweeper
            shutil.rmtree(claimed, ignore_errors=True)
            removed.append(path)
        return removed


def install_spill_cleanup_handler() -> None:
    """Make SIGTERM run ``atexit`` hooks (i.e. remove live spill dirs).

    Python's default SIGTERM disposition kills the process without
    running ``atexit``, so a terminated worker would leak its spill dirs
    until a successor sweeps them.  Worker entry points (forked pool
    workers, TCP agents) call this from their main thread; elsewhere it
    is a silent no-op.  SIGKILL still leaks — that is what
    :func:`SpillDir.sweep_stale` is for.
    """
    import signal

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise SystemExit(128 + signum)

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # not the main thread
        pass


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - pid exists, other user
        return True
    return True


# ---------------------------------------------------------------------------
# Run files: raw packed records on disk, mmap-backed zero-copy reads.
# ---------------------------------------------------------------------------


def write_run_file(path: str, batches: Iterable[RecordBatch]) -> int:
    """Append ``batches`` to ``path`` as packed records; returns bytes written."""
    written = 0
    with open(path, "ab") as f:
        for batch in batches:
            if len(batch) == 0:
                continue
            f.write(batch.as_memoryview())
            written += batch.nbytes
    return written


def read_run_file(path: str) -> RecordBatch:
    """The whole run file as one mmap-backed read-only batch (zero-copy).

    The returned batch's array aliases the mapping; NumPy keeps the mmap
    object alive, so the batch (and any view sliced from it) stays valid
    after this function closes the file descriptor — and after the file
    is later unlinked (POSIX keeps mapped pages reachable).
    """
    size = os.path.getsize(path)
    if size == 0:
        return RecordBatch.empty()
    with open(path, "rb") as f:
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return RecordBatch.from_buffer(mm)


def write_sorted_run(path: str, chunk: RecordBatch) -> None:
    """Write one sorted chunk as a run file.

    The one write path every sorted-run producer (``ExternalSorter``,
    ``PartitionSpiller``, ``keep_or_spill``) shares.
    """
    write_run_file(path, [chunk])


@dataclass
class Run:
    """One sorted run: resident batch or file-backed records.

    ``num_records`` is tracked so sizing decisions never need an extra
    ``stat`` (and so empty runs short-circuit without touching disk).
    """

    path: Optional[str] = None
    batch: Optional[RecordBatch] = None
    num_records: int = 0

    @classmethod
    def resident(cls, batch: RecordBatch) -> "Run":
        return cls(batch=batch, num_records=len(batch))

    @classmethod
    def from_file(cls, path: str, num_records: Optional[int] = None) -> "Run":
        if num_records is None:
            num_records = os.path.getsize(path) // RECORD_BYTES
        return cls(path=path, num_records=num_records)

    @property
    def nbytes(self) -> int:
        return self.num_records * RECORD_BYTES

    def load(self) -> RecordBatch:
        """The whole run (mmap-backed view for file runs)."""
        if self.batch is not None:
            return self.batch
        if self.path is None or self.num_records == 0:
            return RecordBatch.empty()
        return read_run_file(self.path)

    def iter_batches(self, window_records: int) -> Iterator[RecordBatch]:
        """The run as consecutive windows of at most ``window_records``."""
        if window_records <= 0:
            window_records = DEFAULT_WINDOW_RECORDS
        return iter(self.load().iter_slices(window_records))


RunLike = Union[Run, RecordBatch]


def _as_run(run: RunLike) -> Run:
    return Run.resident(run) if isinstance(run, RecordBatch) else run


def spill_blob(spill: SpillDir, data, prefix: str = "blob") -> memoryview:
    """Write arbitrary serialized bytes to a file; return a mmap read view.

    The generic-payload cousin of run files, used by the CMR engine to
    keep pickled intermediate values out of RAM: the returned view is
    mmap-backed (the mapping outlives the file descriptor) and works
    anywhere a bytes-like intermediate is accepted — the XOR encoder's
    ``lookup``, ``pickle.loads``, ``memoryview`` slicing.
    """
    path = spill.new_path(prefix)
    with open(path, "wb") as f:
        f.write(data)
    return read_blob(path)


def read_blob(path: str) -> memoryview:
    """A zero-copy mmap view of a whole file (empty files give ``b""``)."""
    if os.path.getsize(path) == 0:
        return memoryview(b"")
    with open(path, "rb") as f:
        mm = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    return memoryview(mm)


# ---------------------------------------------------------------------------
# The streaming external k-way merge.
# ---------------------------------------------------------------------------


class _Cursor:
    """Bounded, validating read position into one sorted run.

    Pulls the run in windows and validates each window exactly once as
    it loads (an ``is_sorted`` scan plus the window-boundary key check).
    Downstream merges therefore run with ``check=False`` while the
    documented "unsorted runs raise ``ValueError``" contract holds.
    """

    __slots__ = (
        "_source", "_window", "_pos", "_n", "_meter", "_what",
        "_last_key", "head",
    )

    def __init__(
        self,
        run: Run,
        window_records: int,
        meter: Optional[ResidencyMeter],
        index: int,
    ) -> None:
        if window_records <= 0:
            window_records = DEFAULT_WINDOW_RECORDS
        self._source = run.load()
        self._n = run.num_records
        self._window = window_records
        self._pos = 0
        self._meter = meter
        self._what = f"run {index}"
        self._last_key: Optional[np.bytes_] = None
        #: The loaded-but-unconsumed records.
        self.head: Optional[RecordBatch] = None

    @property
    def done(self) -> bool:
        return self._pos >= self._n

    def pull(self) -> RecordBatch:
        """Load, validate, and meter the next window (call only while
        not :attr:`done`)."""
        start = self._pos
        stop = min(start + self._window, self._n)
        self._pos = stop
        window = self._source.slice(start, stop)
        if not is_sorted(window) or (
            self._last_key is not None and window.keys[0] < self._last_key
        ):
            raise ValueError(f"{self._what} is not sorted")
        self._last_key = window.keys[-1]
        if self._meter is not None:
            self._meter.charge(window.nbytes, "merge.window")
        return window

    def refill(self) -> None:
        """Ensure at least one unconsumed record is loaded (or exhausted)."""
        while not self.done and not self.live:
            self.head = self.pull()

    def extend_past(self, bound: np.bytes_) -> None:
        """Load more windows until the last loaded key exceeds ``bound``.

        Needed for cross-run tie stability: a run whose loaded window *ends*
        exactly at the bound may continue with equal keys in the next
        window, and those must be emitted in the same round (before any
        later run's equal keys get a chance to overtake them).
        """
        assert self.head is not None
        parts = [self.head]
        while not self.done and parts[-1].keys[-1] <= bound:
            parts.append(self.pull())
        if len(parts) > 1:
            self.head = RecordBatch.concat(parts)

    def take_upto(self, bound: np.bytes_) -> RecordBatch:
        """Split off (and return) every loaded record with key <= ``bound``."""
        assert self.head is not None
        cut = int(np.searchsorted(self.head.keys, bound, side="right"))
        head = self.head.slice(0, cut)
        self.head = self.head.slice(cut, len(self.head))
        if self._meter is not None:
            self._meter.discharge(head.nbytes)
        return head

    @property
    def live(self) -> bool:
        return self.head is not None and len(self.head) > 0

    @property
    def head_last_key(self) -> np.bytes_:
        return self.head.keys[-1]


def merge_runs(
    runs: Sequence[RunLike],
    window_records: int = DEFAULT_WINDOW_RECORDS,
    out_records: int = DEFAULT_WINDOW_RECORDS,
    meter: Optional[ResidencyMeter] = None,
) -> Iterator[RecordBatch]:
    """Stream-merge sorted runs into sorted output batches (stable).

    Args:
        runs: the sorted runs, **in priority order** — key ties are broken
            toward earlier runs, which is exactly the contract that makes
            merging a stream's stably-sorted chunks equivalent to stably
            sorting the whole stream.
        window_records: how many records to hold per run at a time.
        out_records: maximum records per yielded batch.
        meter: optional residency meter charged for loaded windows.

    Yields:
        Sorted batches whose concatenation is the stable merge of all
        runs.  Empty runs contribute nothing; a single run streams through
        a re-chunking fast path with no merge work.

    Raises:
        ValueError: if any run's records are found out of order (every
            window is checked as it loads, on both paths).
    """
    runs = [_as_run(r) for r in runs]
    live_runs = [r for r in runs if r.num_records > 0]
    if not live_runs:
        return
    if out_records <= 0:
        out_records = DEFAULT_WINDOW_RECORDS
    if len(live_runs) == 1:
        # Single-run fast path: no merge work, just bounded re-chunking
        # through the validating cursor (the "unsorted runs raise"
        # contract still holds); nothing is held, so nothing is metered.
        cursor = _Cursor(live_runs[0], out_records, None, 0)
        while not cursor.done:
            yield cursor.pull()
        return
    cursors = [
        _Cursor(r, window_records, meter, i) for i, r in enumerate(live_runs)
    ]
    for c in cursors:
        c.refill()
    while True:
        active = [c for c in cursors if c.live]
        if not active:
            return
        # The smallest loaded window-end key bounds what can be emitted:
        # every record <= bound across *all* runs is currently loaded
        # (after extend_past pulls the boundary ties), so one stable
        # merge round emits them in globally correct, stable order.
        bound = min(c.head_last_key for c in active)
        for c in active:
            c.extend_past(bound)
        # Windows were validated at load time — no re-validation.
        merged = merge_sorted(
            [c.take_upto(bound) for c in active], check=False
        )
        yield from merged.iter_slices(out_records)
        for c in cursors:
            c.refill()


# ---------------------------------------------------------------------------
# ExternalSorter: stream in, sorted runs out.
# ---------------------------------------------------------------------------


class ExternalSorter:
    """Budget-bounded stable external sort over a stream of batches.

    Feed batches **in stream order** via :meth:`add`; once pending bytes
    reach ``chunk_bytes`` the chunk is stable-sorted and spilled as one
    run.  :meth:`finish` flushes the tail and returns the runs in chunk
    order — merge them with :func:`merge_runs` to get exactly the output
    of one stable in-RAM sort of the concatenated stream.
    """

    def __init__(
        self,
        spill: SpillDir,
        chunk_bytes: int,
        meter: Optional[ResidencyMeter] = None,
        tag: str = "sort",
    ) -> None:
        if chunk_bytes < RECORD_BYTES:
            chunk_bytes = RECORD_BYTES
        self._spill = spill
        self._chunk_bytes = chunk_bytes
        self._meter = meter
        self._tag = tag
        self._pending: List[RecordBatch] = []
        self._pending_bytes = 0
        self._runs: List[Run] = []

    def add(self, batch: RecordBatch) -> None:
        if len(batch) == 0:
            return
        if self._meter is not None:
            self._meter.charge(batch.nbytes, f"{self._tag}.pending")
        self._pending.append(batch)
        self._pending_bytes += batch.nbytes
        if self._pending_bytes >= self._chunk_bytes:
            self._flush()

    def _flush(self) -> None:
        if not self._pending:
            return
        chunk = sort_batches(self._pending)
        path = self._spill.new_path(self._tag)
        write_sorted_run(path, chunk)
        self._runs.append(Run.from_file(path, len(chunk)))
        if self._meter is not None:
            self._meter.spilled(chunk.nbytes)
            self._meter.discharge(self._pending_bytes)
        self._pending = []
        self._pending_bytes = 0

    def finish(self) -> List[Run]:
        """Flush the tail chunk and return all runs in chunk order."""
        self._flush()
        return list(self._runs)

    def merge(
        self,
        window_records: int = DEFAULT_WINDOW_RECORDS,
        out_records: int = DEFAULT_WINDOW_RECORDS,
    ) -> Iterator[RecordBatch]:
        """Finish and stream the fully sorted output."""
        return merge_runs(
            self.finish(),
            window_records=window_records,
            out_records=out_records,
            meter=self._meter,
        )


# ---------------------------------------------------------------------------
# Incremental merge frontier (the budgeted reduce side).
# ---------------------------------------------------------------------------


class IncrementalMerger:
    """The budgeted merge frontier: bounds how many runs wait for Reduce.

    Sorted runs are fed into priority **slots** as they arrive (slot
    index = the run's position in the serial reduce's priority order;
    runs within a slot arrive in stream order), and the merger eagerly
    pre-merges *adjacent* runs within a slot whenever the stack top
    grows to within ``eager_factor`` of its neighbor — a size-ladder
    that keeps the run count logarithmic in what was fed, at amortized
    ``O(n log n)`` eager work.  Because the stable merge is associative
    and ties break toward the earlier run, pre-merging adjacent runs
    never changes the final byte stream: :meth:`finish` yields exactly
    what :func:`merge_runs` over all fed runs in slot-major, feed order
    would.

    The sort pipelines construct one only under a ``memory_budget``
    (:class:`~repro.core.outofcore.MergeFrontier`): there the final
    merge splits a fixed window budget across the runs left, so fewer
    runs mean wider windows.  In memory a merge costs one sort of
    everything however the chunks arrived, so pre-merging buys nothing
    and the frontier just collects.

    With a ``spill`` dir the pair-merge streams through
    :func:`merge_runs` into a new run file whenever either side is
    file-backed or the pair exceeds ``resident_limit``; merged source
    files are unlinked (fed file runs are owned by the merger).  Without
    one, everything stays resident.  ``eager_factor=0`` turns the eager
    merging off: the fed runs wait untouched and :meth:`finish` is one
    :func:`merge_runs`.
    """

    def __init__(
        self,
        num_slots: int,
        spill: Optional[SpillDir] = None,
        resident_limit: Optional[int] = None,
        window_records: int = DEFAULT_WINDOW_RECORDS,
        out_records: int = DEFAULT_WINDOW_RECORDS,
        meter: Optional[ResidencyMeter] = None,
        eager_factor: float = 2.0,
        tag: str = "overlap",
    ) -> None:
        self._slots: List[List[Run]] = [[] for _ in range(num_slots)]
        self._spill = spill
        self._limit = (
            resident_limit if resident_limit is not None else float("inf")
        )
        self._window = window_records
        self._out = out_records
        self._meter = meter
        self._factor = max(1.0, eager_factor) if eager_factor else 0.0
        self._tag = tag
        #: Eager pair merges done so far (overlap telemetry).
        self.eager_merges = 0
        #: Records pushed through a merge: every pair merge's inputs plus
        #: what :meth:`finish` emits when more than one run is left.
        self.merged_records = 0

    @property
    def pending_runs(self) -> int:
        return sum(len(s) for s in self._slots)

    def feed(self, slot: int, run: RunLike) -> None:
        """Add the next run of ``slot`` (runs within a slot in stream order)."""
        run = _as_run(run)
        if run.num_records == 0:
            return
        stack = self._slots[slot]
        stack.append(run)
        while (
            len(stack) >= 2
            and stack[-2].num_records <= self._factor * stack[-1].num_records
        ):
            hi = stack.pop()
            lo = stack.pop()
            stack.append(self._merge_pair(lo, hi))

    def _merge_pair(self, lo: Run, hi: Run) -> Run:
        self.eager_merges += 1
        self.merged_records += lo.num_records + hi.num_records
        resident = lo.batch is not None and hi.batch is not None
        if self._spill is None or (
            resident and lo.nbytes + hi.nbytes <= self._limit
        ):
            return Run.resident(
                merge_sorted([lo.load(), hi.load()], check=False)
            )
        path = self._spill.new_path(self._tag)
        write_run_file(
            path,
            merge_runs(
                [lo, hi],
                window_records=self._window,
                out_records=self._out,
                meter=self._meter,
            ),
        )
        merged = Run.from_file(path, lo.num_records + hi.num_records)
        if self._meter is not None:
            self._meter.spilled(merged.nbytes)
        for old in (lo, hi):
            if old.path is not None:
                try:
                    os.unlink(old.path)
                except OSError:
                    pass
        return merged

    def finish(
        self, window_records: Optional[int] = None
    ) -> Iterator[RecordBatch]:
        """Stream the stable merge of everything fed, in slot order.

        ``window_records`` overrides the construction-time window for the
        final merge (out-of-core callers re-derive it from how many runs
        actually remain on the frontier).
        """
        runs = [run for stack in self._slots for run in stack]
        merging = len(runs) > 1  # a lone run re-chunks, it does not merge
        for batch in merge_runs(
            runs,
            window_records=(
                self._window if window_records is None else window_records
            ),
            out_records=self._out,
            meter=self._meter,
        ):
            if merging:
                self.merged_records += len(batch)
            yield batch


# ---------------------------------------------------------------------------
# StreamStore: per-key append-ordered record streams (the coded Map store).
# ---------------------------------------------------------------------------


class StreamStore:
    """Keyed, append-ordered, spillable record streams (NOT sorted).

    The coded Map stage retains one intermediate value per ``(subset,
    target)``; XOR coding requires every replica to serialize it
    byte-identically, so the layout is purely *append order* — windows of
    each file hashed in window order, files in ascending id — never a
    sort.  The store accumulates per-key batches and, when the shared
    resident total passes ``flush_bytes``, appends everything to one file
    per key (order preserved: a flush only moves the resident prefix to
    disk).  :meth:`finalize` flushes the tails; sealed or finalized keys
    read back as zero-copy mmap views of the complete per-key byte
    streams for the encoder.

    With ``spill=None`` nothing is ever flushed (the in-memory sort's
    store): :meth:`seal` serializes the key's appended pieces into one
    owned buffer — the single copy an encoder input costs — and
    :meth:`take` hands a stream's pieces on without serializing them.
    """

    def __init__(
        self,
        spill: Optional[SpillDir],
        flush_bytes: int,
        meter: Optional[ResidencyMeter] = None,
        tag: str = "store",
    ) -> None:
        self._spill = spill
        self._flush_bytes = max(flush_bytes, RECORD_BYTES)
        self._meter = meter
        self._tag = tag
        self._pending: Dict[Hashable, List[RecordBatch]] = {}
        self._paths: Dict[Hashable, str] = {}
        self._counts: Dict[Hashable, int] = {}
        self._resident = 0
        self._order: List[Hashable] = []
        #: Sealed keys -> their read-back batch (``None`` until first read).
        self._sealed: Dict[Hashable, Optional[RecordBatch]] = {}
        self._final = False

    def append(self, key: Hashable, batch: RecordBatch) -> None:
        if self._final:
            raise RuntimeError("store already finalized")
        if key in self._sealed:
            raise RuntimeError(f"key {key!r} already sealed")
        if key not in self._counts:
            self._counts[key] = 0
            self._order.append(key)
        if len(batch) == 0:
            return
        if self._meter is not None:
            self._meter.charge(batch.nbytes, f"{self._tag}.pending")
        self._pending.setdefault(key, []).append(batch)
        self._counts[key] += len(batch)
        self._resident += batch.nbytes
        if self._spill is not None and self._resident >= self._flush_bytes:
            self._flush()

    def _write(self, key: Hashable, batches: List[RecordBatch]) -> None:
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self._spill.new_path(self._tag)
        written = write_run_file(path, batches)
        if self._meter is not None:
            self._meter.spilled(written)

    def _flush(self) -> None:
        for key, batches in self._pending.items():
            if batches:
                self._write(key, batches)
        if self._meter is not None:
            self._meter.discharge(self._resident)
        self._pending = {}
        self._resident = 0

    def keys(self) -> List[Hashable]:
        """All keys in first-append order (deterministic across replicas)."""
        return list(self._order)

    def num_records(self, key: Hashable) -> int:
        return self._counts.get(key, 0)

    def seal(self, key: Hashable) -> None:
        """Flush ``key``'s pending tail and allow reading it back early.

        Streaming-overlap hook: once a subset's last file is mapped its
        store entries are complete, so sealing just those keys lets the
        encoder / decoder mmap them while other subsets still append.
        The per-key file receives exactly the bytes the eventual global
        flush would have written (append order is preserved; flush timing
        never reorders within a key), so sealed reads are byte-identical
        to post-:meth:`finalize` reads.  Without a spill dir the pieces
        are joined here instead (same bytes, one owned buffer), which
        also lets go of the map windows they were views into.
        """
        if self._final or key in self._sealed:
            return
        batches = self._pending.pop(key, [])
        if self._spill is None:
            joined = self._sealed[key] = RecordBatch.concat(batches)
            copytrack.count_copy(joined.nbytes, "spill.store_seal")
            return
        if batches:
            nbytes = sum(b.nbytes for b in batches)
            self._write(key, batches)
            self._resident -= nbytes
            if self._meter is not None:
                self._meter.discharge(nbytes)
        self._sealed[key] = None

    def finalize(self) -> None:
        """Seal every key; afterwards each reads back as one view."""
        if self._final:
            return
        if self._spill is None:
            for key in list(self._pending):
                self.seal(key)
        else:
            self._flush()
        self._final = True

    def get(self, key: Hashable) -> RecordBatch:
        """The complete stream for ``key`` as one zero-copy view.

        Readable after :meth:`finalize`, or early for a :meth:`seal`-ed
        key (the streaming-overlap path reads completed subsets while
        the map tail is still appending other keys).
        """
        if not self._final and key not in self._sealed:
            raise RuntimeError(
                "finalize() the store (or seal() the key) before "
                "reading it back"
            )
        batch = self._sealed.get(key)
        if batch is None:
            path = self._paths.get(key)
            batch = RecordBatch.empty() if path is None else read_run_file(path)
            self._sealed[key] = batch
        return batch

    def get_bytes(self, key: Hashable) -> memoryview:
        """The stream's raw serialized bytes (the encoder's lookup form)."""
        return self.get(key).as_memoryview()

    def iter_batches(
        self, key: Hashable, window_records: int
    ) -> Iterator[RecordBatch]:
        """The stream as bounded windows (reduce-side consumption)."""
        return iter(self.get(key).iter_slices(window_records))

    def take(
        self, key: Hashable, window_records: Optional[int] = None
    ) -> Iterable[RecordBatch]:
        """Read a complete stream once and drop it from the store.

        How a value that never meets the encoder (the node's own
        partition) leaves the store for Reduce: under a spill dir the
        key is sealed and streamed off its file in windows of
        ``window_records``; without one the appended pieces themselves
        are handed on — no serialization, and the store stops holding
        them.
        """
        if self._spill is None and key not in self._sealed:
            return self._pending.pop(key, [])
        self.seal(key)
        return self.iter_batches(key, window_records)
