"""File placement: splitting the input and assigning files to nodes.

CodedTeraSort (§IV-A) splits the input into ``N = C(K, r)`` files indexed
by ``r``-subsets ``S`` of the node set, and stores ``F_S`` on *all* ``r``
nodes in ``S`` — the structured redundancy that creates the coding
opportunities.  Each node then stores ``C(K-1, r-1)`` files, and every
``r``-subset of nodes shares exactly one file.  TeraSort (§III-A1) is
``r = 1``: ``K`` disjoint files, one per node.

The placement also does the actual data splitting: given a
:class:`~repro.kvpairs.records.RecordBatch` they cut it into near-equal
contiguous files (sizes differ by at most one record, first ``n mod N``
files get the extra record).

``batches_per_subset`` multiplies the file count: ``N = b * C(K, r)`` files
with ``b`` files per subset, the batching the general CMR scheme of [9] uses
when the input has more natural splits than ``C(K, r)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro.kvpairs.datasource import DataSource
from repro.kvpairs.records import RecordBatch
from repro.utils.subsets import Subset, binomial, k_subsets, subsets_containing


def split_even_ranges(n: int, parts: int) -> List[Tuple[int, int]]:
    """The ``(start, stop)`` record ranges of an even ``parts``-way split.

    Sizes are ``ceil`` for the first ``n % parts`` ranges and ``floor``
    for the rest, so they differ by at most one record.  This is the
    arithmetic the placement uses — factored out so the driver can split
    a :class:`~repro.kvpairs.datasource.DataSource` at the descriptor
    level without touching records.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    base, extra = divmod(n, parts)
    ranges = []
    pos = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        ranges.append((pos, pos + size))
        pos += size
    return ranges


def split_even(batch: RecordBatch, parts: int) -> List[RecordBatch]:
    """Split a batch into ``parts`` contiguous near-equal files.

    Sizes follow :func:`split_even_ranges`; chunks are zero-copy views.
    """
    return [
        batch.slice(start, stop)
        for start, stop in split_even_ranges(len(batch), parts)
    ]


@dataclass(frozen=True)
class FileAssignment:
    """One input file and the set of nodes storing it."""

    file_id: int
    subset: Subset  # nodes storing the file (singleton for uncoded)
    data: RecordBatch


class CodedPlacement:
    """The structured redundant placement of CodedTeraSort (§IV-A).

    Files are indexed by the lexicographically ordered ``r``-subsets of
    ``range(K)`` (times ``batches_per_subset``); file ids are dense ints.

    Args:
        num_nodes: ``K``.
        redundancy: ``r`` (``1 <= r <= K``); ``r = 1`` degenerates to a
            placement with ``K`` unshared files.
        batches_per_subset: ``b``; total files ``N = b * C(K, r)``.
    """

    def __init__(
        self, num_nodes: int, redundancy: int, batches_per_subset: int = 1
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        if not 1 <= redundancy <= num_nodes:
            raise ValueError(
                f"redundancy must be in [1, {num_nodes}], got {redundancy}"
            )
        if batches_per_subset < 1:
            raise ValueError(
                f"batches_per_subset must be >= 1, got {batches_per_subset}"
            )
        self.num_nodes = num_nodes
        self.redundancy = redundancy
        self.batches_per_subset = batches_per_subset
        self._subsets: List[Subset] = list(k_subsets(num_nodes, redundancy))
        self.num_subsets = len(self._subsets)  # C(K, r)
        self.num_files = self.num_subsets * batches_per_subset
        self._subset_rank: Dict[Subset, int] = {
            s: i for i, s in enumerate(self._subsets)
        }

    # -- index mappings ---------------------------------------------------------

    def subsets(self) -> List[Subset]:
        """All ``r``-subsets in file order (one entry per subset)."""
        return list(self._subsets)

    def subset_of_file(self, file_id: int) -> Subset:
        """The node subset storing ``file_id``."""
        if not 0 <= file_id < self.num_files:
            raise ValueError(f"file_id {file_id} out of range({self.num_files})")
        return self._subsets[file_id % self.num_subsets]

    def batch_of_file(self, file_id: int) -> int:
        """Which batch replica ``file_id`` belongs to (0-based)."""
        if not 0 <= file_id < self.num_files:
            raise ValueError(f"file_id {file_id} out of range({self.num_files})")
        return file_id // self.num_subsets

    def file_id(self, subset: Subset, batch: int = 0) -> int:
        """Dense file id of ``(subset, batch)``."""
        if subset not in self._subset_rank:
            raise ValueError(f"{subset!r} is not an r-subset of this placement")
        if not 0 <= batch < self.batches_per_subset:
            raise ValueError(
                f"batch {batch} out of range({self.batches_per_subset})"
            )
        return batch * self.num_subsets + self._subset_rank[subset]

    def files_of_node(self, node: int) -> List[int]:
        """File ids stored on ``node`` — ``b * C(K-1, r-1)`` of them."""
        self._check_node(node)
        out = []
        for b in range(self.batches_per_subset):
            for s in subsets_containing(self.num_nodes, self.redundancy, node):
                out.append(b * self.num_subsets + self._subset_rank[s])
        return sorted(out)

    def files_per_node(self) -> int:
        """``b * C(K-1, r-1)``, the storage factor of the placement."""
        return self.batches_per_subset * binomial(
            self.num_nodes - 1, self.redundancy - 1
        )

    # -- data splitting -----------------------------------------------------------

    def place(self, batch: RecordBatch) -> List[FileAssignment]:
        """Split ``batch`` into ``N`` files and attach their subsets."""
        files = split_even(batch, self.num_files)
        return [
            FileAssignment(
                file_id=f,
                subset=self.subset_of_file(f),
                data=files[f],
            )
            for f in range(self.num_files)
        ]

    def split_source(self, source: DataSource) -> List[DataSource]:
        """Per-file subrange *descriptors* in file-id order (see
        :meth:`assign`): file ``f`` describes exactly the records
        :meth:`place` gives it, and no record is touched."""
        return [
            source.subrange(start, stop - start)
            for start, stop in split_even_ranges(
                source.num_records, self.num_files
            )
        ]

    def assign(
        self, files: Sequence[Any], size: int
    ) -> List[Tuple[Dict[int, Any], Dict[int, Subset]]]:
        """Each of ``size`` ranks' ``({file id: file}, {file id: subset})``.

        ``files`` is in file-id order.  With ``size`` a multiple of ``K``
        the placement is replicated on every ``K``-rank coding group:
        group ``j`` holds file ``F_S`` on ranks ``{j·K + m : m ∈ S}``.
        """
        per_node: List[Tuple[Dict[int, Any], Dict[int, Subset]]] = [
            ({}, {}) for _ in range(size)
        ]
        for file_id, payload in enumerate(files):
            members = self.subset_of_file(file_id)
            for first in range(0, size, self.num_nodes):
                subset = tuple(first + m for m in members)
                for node in subset:
                    per_node[node][0][file_id] = payload
                    per_node[node][1][file_id] = subset
        return per_node

    def node_storage_bytes(self, total_bytes: int) -> float:
        """Expected bytes stored per node: ``r / K`` of the input."""
        return total_bytes * self.redundancy / self.num_nodes

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range({self.num_nodes})")


class UncodedPlacement(CodedPlacement):
    """TeraSort's placement: ``K`` files, file ``k`` on node ``k`` only —
    the coded placement at ``r = 1``."""

    def __init__(self, num_nodes: int) -> None:
        super().__init__(num_nodes, 1)
