"""Balanced-workload quantities for the model of the paper's runs.

For TeraGen's uniform keys the partitioner is balanced in expectation, so
every per-node / per-transfer size follows in closed form from
``(n_records, K, r)``.  These are *exact* expectations — the model
(:mod:`repro.sim.model`) uses them as transfer sizes and compute volumes,
and the functional runtime's measured traffic converges to the same
numbers (tested).

All byte quantities use the 100-byte record size; fractional bytes are kept
(the model is continuous-time, no need to round).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.groups import check_coded_params
from repro.kvpairs.records import RECORD_BYTES
from repro.utils.subsets import binomial


def _check_size(num_nodes: int, n_records: int) -> None:
    if num_nodes < 1:
        raise ValueError(f"num_nodes: must be >= 1, got {num_nodes}")
    if n_records < 0:
        raise ValueError(f"n_records: must be >= 0, got {n_records}")


@dataclass(frozen=True)
class UncodedWorkload:
    """Per-node / per-transfer quantities for TeraSort at ``K`` nodes."""

    num_nodes: int
    n_records: int

    def __post_init__(self) -> None:
        _check_size(self.num_nodes, self.n_records)

    @property
    def total_bytes(self) -> float:
        return self.n_records * RECORD_BYTES

    @property
    def pairs_per_node(self) -> float:
        return self.n_records / self.num_nodes

    @property
    def unicast_bytes(self) -> float:
        """One intermediate value ``I^k_{j}``: ``D / K^2``."""
        return self.total_bytes / self.num_nodes**2

    @property
    def num_unicasts(self) -> int:
        return self.num_nodes * (self.num_nodes - 1)

    @property
    def pack_bytes_per_node(self) -> float:
        """Outgoing serialized bytes: ``(K-1)/K`` of the node's data."""
        return (
            self.total_bytes
            * (self.num_nodes - 1)
            / self.num_nodes**2
        )

    @property
    def unpack_bytes_per_node(self) -> float:
        """Received bytes: same as outgoing under balance."""
        return self.pack_bytes_per_node

    @property
    def reduce_pairs_per_node(self) -> float:
        return self.pairs_per_node


@dataclass(frozen=True)
class CodedWorkload:
    """Per-node / per-transfer quantities for CodedTeraSort at ``(K, r)``.

    With ``group_size = g`` (group-based coding, §VI) the *structure*
    counts — files, multicast groups, packets per node — are those of a
    coded job on ``g`` nodes, while *sizes* still divide by the ``K``
    partitions: every coding group holds the whole dataset but reduces
    only its own ``g`` partitions.  ``None`` is ``g = K``.
    """

    num_nodes: int
    redundancy: int
    n_records: int
    group_size: Optional[int] = None

    def __post_init__(self) -> None:
        _check_size(self.num_nodes, self.n_records)
        check_coded_params(
            self.num_nodes, self.redundancy, "serial", self.group_size
        )

    # -- structure -------------------------------------------------------------

    @property
    def coding_nodes(self) -> int:
        """``g``: the nodes one coding plan spans (``K`` ungrouped)."""
        return self.group_size or self.num_nodes

    @property
    def node_groups(self) -> int:
        """``G = K / g`` coding groups, shuffling concurrently."""
        return self.num_nodes // self.coding_nodes

    @property
    def total_bytes(self) -> float:
        return self.n_records * RECORD_BYTES

    @property
    def num_files(self) -> int:
        return binomial(self.coding_nodes, self.redundancy)

    @property
    def files_per_node(self) -> int:
        return binomial(self.coding_nodes - 1, self.redundancy - 1)

    @property
    def num_groups(self) -> int:
        """Multicast groups one node's CodeGen sets up: ``C(g, r+1)``."""
        return binomial(self.coding_nodes, self.redundancy + 1)

    @property
    def groups_per_node(self) -> int:
        """= packets encoded per node = files not containing the node."""
        return binomial(self.coding_nodes - 1, self.redundancy)

    # -- sizes ---------------------------------------------------------------------

    @property
    def file_bytes(self) -> float:
        return self.total_bytes / self.num_files

    @property
    def intermediate_bytes(self) -> float:
        """One ``I^t_S``: a file's share of one partition, ``D/(N K)``."""
        return self.file_bytes / self.num_nodes

    @property
    def packet_bytes(self) -> float:
        """Coded packet payload: one ``1/r`` segment of an intermediate."""
        return self.intermediate_bytes / self.redundancy

    # -- per-stage volumes -----------------------------------------------------------

    @property
    def map_pairs_per_node(self) -> float:
        """Each node hashes ``r/g`` of all records."""
        return self.n_records * self.redundancy / self.coding_nodes

    @property
    def encode_serialize_bytes_per_node(self) -> float:
        """Retained-for-others intermediates: ``C(g-1,r-1) (g-r)`` values."""
        return (
            self.files_per_node
            * (self.coding_nodes - self.redundancy)
            * self.intermediate_bytes
        )

    @property
    def encode_xor_bytes_per_node(self) -> float:
        """Segment bytes XORed: ``C(g-1,r)`` packets x r segments each."""
        return self.groups_per_node * self.intermediate_bytes

    @property
    def total_multicasts(self) -> int:
        """Cluster-wide: ``G C(g, r+1) (r+1)``."""
        return self.node_groups * self.num_groups * (self.redundancy + 1)

    @property
    def multicasts_per_node(self) -> int:
        return self.groups_per_node

    @property
    def shuffle_payload_total(self) -> float:
        """Total multicast payload = ``D (g-r)/(g r)`` = Eq. (2) load x D."""
        return self.total_multicasts * self.packet_bytes

    @property
    def decode_recovered_bytes_per_node(self) -> float:
        """Recovered intermediates: one per group containing the node."""
        return self.groups_per_node * self.intermediate_bytes

    @property
    def decode_packets_per_node(self) -> int:
        """Received packets: ``r`` per group containing the node."""
        return self.groups_per_node * self.redundancy

    @property
    def reduce_pairs_per_node(self) -> float:
        return self.n_records / self.num_nodes
