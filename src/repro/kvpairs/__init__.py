"""Key-value record substrate (the paper's TeraGen data format).

Every record is 100 bytes: a 10-byte key and a 90-byte value, matching the
Hadoop TeraGen records the paper sorts.  Records are held in NumPy structured
arrays and all bulk operations (partitioning, sorting, serialization) are
vectorized per the HPC guide — no per-record Python loops on the data path.

Map's partition pass runs on the MSB radix kernel of
:mod:`repro.kvpairs.kernels`; Reduce — sorting a partition or merging
sorted runs, in memory or over spilled run files — is the one-word
stable sort of :mod:`repro.kvpairs.sorting` throughout.
"""

from repro.kvpairs.records import (
    KEY_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    VALUE_BYTES,
    RecordBatch,
)
from repro.kvpairs.teragen import teragen, teragen_skewed
from repro.kvpairs.serialization import (
    pack_batch,
    pack_batch_parts,
    unpack_batch,
    pack_batches,
    pack_batches_parts,
    unpack_batches,
)
from repro.kvpairs.sorting import sort_batch, merge_sorted, is_sorted
from repro.kvpairs.validation import (
    validate_sorted,
    validate_permutation,
    batch_checksum,
)

__all__ = [
    "KEY_BYTES",
    "VALUE_BYTES",
    "RECORD_BYTES",
    "RECORD_DTYPE",
    "RecordBatch",
    "teragen",
    "teragen_skewed",
    "pack_batch",
    "pack_batch_parts",
    "unpack_batch",
    "pack_batches",
    "pack_batches_parts",
    "unpack_batches",
    "sort_batch",
    "merge_sorted",
    "is_sorted",
    "validate_sorted",
    "validate_permutation",
    "batch_checksum",
]
