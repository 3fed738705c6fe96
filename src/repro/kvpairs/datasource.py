"""DataSource descriptors: inputs workers materialize or stream locally.

The seed reproduction shipped every worker's input records *through the
control plane* — ``PreparedJob`` payloads pickled whole ``RecordBatch``es
to the pool — so the driver's RAM bounded the cluster's dataset.  The CMR
line of work (and every real MapReduce deployment) assumes the opposite:
workers *own their input splits* and the coordinator ships only
descriptors.  A :class:`DataSource` is that descriptor: a tiny picklable
value naming where a worker's records come from, with three concrete
kinds:

* :class:`InlineSource` — wraps a resident batch; pickles the records
  themselves.  The default, preserving the seed behavior exactly for
  in-memory datasets and tests.
* :class:`FileSource` — a path plus a record range into a raw
  teragen-format file (packed 100-byte records).  Workers mmap the file
  locally; the control plane carries ~100 bytes per rank.  The path must
  resolve on the worker's host (same machine or a shared filesystem).
* :class:`TeragenSource` — seed + row range of a deterministic synthetic
  dataset; workers generate their own split.  Generation is windowed on
  fixed 65536-row boundaries so any subrange of the same (seed) stream
  yields byte-identical records regardless of how ranks were split.

Every source supports full materialization (:meth:`DataSource.load`),
bounded streaming (:meth:`DataSource.iter_batches` — the out-of-core Map
stage's input path), descriptor-level splitting (:meth:`DataSource.subrange`,
used by the driver to cut per-rank/per-file splits without touching
records), and splitter sampling (:meth:`DataSource.sample`).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from repro.kvpairs.records import RECORD_BYTES, RecordBatch
from repro.kvpairs.teragen import teragen

#: Default streaming window, in records (1 MiB of payload).
DEFAULT_BATCH_RECORDS = 10486

#: TeragenSource generation window (rows); fixed so subranges align.
TERAGEN_WINDOW_ROWS = 65536


class DataSource(ABC):
    """A picklable descriptor of one contiguous record dataset."""

    @property
    @abstractmethod
    def num_records(self) -> int:
        """Total records this source yields."""

    @property
    def nbytes(self) -> int:
        return self.num_records * RECORD_BYTES

    def __len__(self) -> int:
        return self.num_records

    @abstractmethod
    def load(self) -> RecordBatch:
        """Materialize the whole source (zero-copy where the kind allows)."""

    @abstractmethod
    def subrange(self, start: int, count: int) -> "DataSource":
        """A descriptor for records ``[start, start + count)`` of this source."""

    def iter_batches(
        self, batch_records: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[RecordBatch]:
        """Stream the source as consecutive windows of ``batch_records``."""
        if batch_records <= 0:
            batch_records = DEFAULT_BATCH_RECORDS
        return iter(self.load().iter_slices(batch_records))

    def sample(self, max_records: int, seed: int = 7) -> RecordBatch:
        """Up to ``max_records`` records for splitter estimation.

        The default takes an evenly strided subset (robust to sorted or
        clustered files); subclasses may override with cheaper schemes.
        """
        n = self.num_records
        take = min(max_records, n)
        if take <= 0:
            return RecordBatch.empty()
        idx = np.linspace(0, n - 1, take).astype(np.int64)
        return self.load().take(idx)

    def _check_range(self, start: int, count: int) -> None:
        if start < 0 or count < 0 or start + count > self.num_records:
            raise ValueError(
                f"subrange [{start}, {start + count}) outside "
                f"[0, {self.num_records})"
            )


@dataclass(frozen=True)
class InlineSource(DataSource):
    """A resident batch shipped by value (the seed behavior)."""

    batch: RecordBatch

    @property
    def num_records(self) -> int:
        return len(self.batch)

    def load(self) -> RecordBatch:
        return self.batch

    def subrange(self, start: int, count: int) -> "InlineSource":
        self._check_range(start, count)
        return InlineSource(self.batch.slice(start, start + count))

    def sample(self, max_records: int, seed: int = 7) -> RecordBatch:
        # Preserves the seed partitioner exactly: a uniform random sample
        # of the resident batch under the spec's ``sample_seed``.
        n = len(self.batch)
        take = min(max_records, n)
        if take <= 0:
            return RecordBatch.empty()
        rng = np.random.default_rng(seed)
        idx = rng.choice(n, size=take, replace=False)
        return self.batch.take(idx)


@dataclass(frozen=True)
class FileSource(DataSource):
    """A record range of a raw teragen-format file, read locally.

    Attributes:
        path: file of packed 100-byte records; must exist on the host of
            whoever calls :meth:`load` / :meth:`iter_batches` (worker-local
            path or shared filesystem).
        start_record: first record of the range.
        count: records in the range; ``None`` means "through end of file"
            (resolved against the file size when first needed).
    """

    path: str
    start_record: int = 0
    count: Optional[int] = None

    @property
    def num_records(self) -> int:
        if self.count is not None:
            return self.count
        size = os.path.getsize(self.path)
        if size % RECORD_BYTES:
            raise ValueError(
                f"{self.path}: size {size} not a multiple of {RECORD_BYTES}"
            )
        return max(0, size // RECORD_BYTES - self.start_record)

    def load(self) -> RecordBatch:
        from repro.kvpairs.spill import read_run_file

        n = self.num_records
        whole = read_run_file(self.path)
        if self.start_record + n > len(whole):
            raise ValueError(
                f"{self.path}: range [{self.start_record}, "
                f"{self.start_record + n}) beyond {len(whole)} records"
            )
        # mmap-backed zero-copy slice; pages fault in as they are read.
        return whole.slice(self.start_record, self.start_record + n)

    def subrange(self, start: int, count: int) -> "FileSource":
        self._check_range(start, count)
        return FileSource(self.path, self.start_record + start, count)


@dataclass(frozen=True)
class TeragenSource(DataSource):
    """Rows ``[start_row, start_row + count)`` of a synthetic teragen stream.

    The stream keyed by ``seed`` is generated in fixed
    :data:`TERAGEN_WINDOW_ROWS`-aligned windows (window ``w`` uses the
    spawned seed ``(seed, w)``), so any two descriptors over the same seed
    produce byte-identical records for overlapping rows — ranks can split
    a dataset without coordinating generation order.  Values embed the
    absolute row id, exactly like :func:`~repro.kvpairs.teragen.teragen`.
    """

    count: int
    seed: int = 0
    start_row: int = 0

    def __post_init__(self) -> None:
        for name in ("count", "start_row"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name}: must be >= 0, got {getattr(self, name)}"
                )

    @property
    def num_records(self) -> int:
        return self.count

    def load(self) -> RecordBatch:
        return RecordBatch.concat(list(self.iter_batches()))

    def subrange(self, start: int, count: int) -> "TeragenSource":
        self._check_range(start, count)
        return TeragenSource(count, self.seed, self.start_row + start)

    def iter_batches(
        self, batch_records: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[RecordBatch]:
        if batch_records <= 0:
            batch_records = DEFAULT_BATCH_RECORDS
        pos = self.start_row
        end = self.start_row + self.count
        pending = []
        pending_n = 0
        while pos < end:
            w = pos // TERAGEN_WINDOW_ROWS
            w_start = w * TERAGEN_WINDOW_ROWS
            w_end = min(w_start + TERAGEN_WINDOW_ROWS, end)
            window = teragen(
                TERAGEN_WINDOW_ROWS, seed=(self.seed, w), start_row=w_start
            ).slice(pos - w_start, w_end - w_start)
            pos = w_end
            pending.append(window)
            pending_n += len(window)
            while pending_n >= batch_records:
                chunk = RecordBatch.concat(pending)
                yield chunk.slice(0, batch_records)
                rest = chunk.slice(batch_records, len(chunk))
                pending = [rest] if len(rest) else []
                pending_n = len(rest)
        if pending_n:
            yield RecordBatch.concat(pending)

    def sample(self, max_records: int, seed: int = 7) -> RecordBatch:
        # Keys are i.i.d. uniform at every row, so a prefix is an unbiased
        # key sample — no need to generate the whole stream.
        take = min(max_records, self.count)
        if take <= 0:
            return RecordBatch.empty()
        out = []
        got = 0
        for batch in self.iter_batches(min(take, DEFAULT_BATCH_RECORDS)):
            out.append(batch.slice(0, min(len(batch), take - got)))
            got += len(out[-1])
            if got >= take:
                break
        return RecordBatch.concat(out)


def as_source(data: Union[RecordBatch, DataSource]) -> DataSource:
    """Coerce a batch (seed call style) or pass a source through."""
    if isinstance(data, DataSource):
        return data
    if isinstance(data, RecordBatch):
        return InlineSource(data)
    raise TypeError(
        f"expected RecordBatch or DataSource, got {type(data).__name__}"
    )
