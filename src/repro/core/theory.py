"""Closed forms over ``(K, r, g, D)``: the one place they are stated.

Implements the paper's analytical results:

* Eq. (2) / Fig. 2 — the communication loads

  - uncoded with computation load ``r``:  ``L_uncoded(r) = 1 - r/K``
  - Coded MapReduce:                      ``L_CMR(r) = (1/r) (1 - r/K)``

  (``L`` is normalized by ``Q N`` intermediate values; for sorting it is the
  fraction of the dataset crossing the network).  Group-based coding (§VI)
  is the same load at ``K -> g``, and a wireless protocol's airtime load is
  one of these times its relay factor
  (:data:`repro.wireless.wdc.RELAY_FACTOR`);

* Eq. (3)-(4) — the execution-time model
  ``T_total,CMR ≈ r T_map + (1/r) T_shuffle + T_reduce``;

* Eq. (5) — the optimal redundancy
  ``r* = floor/ceil of sqrt(T_shuffle / T_map)`` and the resulting
  ``T* ≈ 2 sqrt(T_shuffle T_map) + T_reduce``;

* :class:`CodedWorkload` — the exact counts and sizes of one job (files,
  multicast groups, packets, per-stage volumes; Coded MapReduce,
  1512.01625, and 1604.07086 Thm. 1), which the closed-form model
  (:mod:`repro.sim.model`) prices and the exact-load tests check measured
  traffic against.  At ``r = 1`` it is uncoded TeraSort;

* :func:`check_params` — the one validator of ``(K, r, g)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.kvpairs.records import RECORD_BYTES
from repro.utils.subsets import binomial


def check_params(
    num_nodes: int,
    redundancy: int,
    group_size: Optional[int] = None,
    multicast: bool = True,
) -> None:
    """Reject an out-of-range ``(K, r, g)`` with a ``ValueError`` naming
    the parameter.

    ``g`` (``None``: ``g = K``) must be at least 2 and divide ``K``.  A
    coded shuffle multicasts to groups of ``r + 1 <= g`` nodes, so ``r``
    lies in ``[1, g - 1]``; with ``multicast=False`` it runs to ``g``,
    where every node holds everything and the load is 0 (Fig. 2's last
    point).
    """
    if num_nodes < 1:
        raise ValueError(f"num_nodes: must be >= 1, got {num_nodes}")
    g = num_nodes if group_size is None else group_size
    if group_size is not None and (g < 2 or num_nodes % g != 0):
        raise ValueError(
            f"group_size: must be >= 2 and divide K = {num_nodes}, got {g}"
        )
    top = g - 1 if multicast else g
    if not 1 <= redundancy <= top:
        bound = ("K" if group_size is None else "g") + "-1" * multicast
        raise ValueError(
            f"redundancy must be in [1, {bound}] = [1, {top}], "
            f"got {redundancy}"
        )


def uncoded_comm_load(r: int, num_nodes: int) -> float:
    """``L_uncoded(r) = 1 - r/K`` (Eq. (2) context; r=1 is plain TeraSort).

    With each file mapped at ``r`` nodes, a ``r/K`` fraction of every
    partition is already local to its reducer, and the rest is unicast.
    """
    check_params(num_nodes, r, multicast=False)
    return 1.0 - r / num_nodes


def coded_comm_load(r: int, num_nodes: int) -> float:
    """``L_CMR(r) = (1/r) (1 - r/K)`` (Eq. (2)) — an exact ``r``-fold cut.

    Called with ``g`` for ``K`` it is the grouped scheme's load: every
    coding group moves ``(1/r)(1 - r/g)`` of *its* key slice, and the
    slices tile the input.
    """
    check_params(num_nodes, r, multicast=False)
    return (1.0 / r) * (1.0 - r / num_nodes)


def load_series(num_nodes: int) -> List[Tuple[int, float, float]]:
    """The Fig. 2 series: ``(r, L_uncoded(r), L_CMR(r))`` for r = 1..K."""
    check_params(num_nodes, 1, multicast=False)
    return [
        (r, uncoded_comm_load(r, num_nodes), coded_comm_load(r, num_nodes))
        for r in range(1, num_nodes + 1)
    ]


@dataclass(frozen=True)
class TimeModel:
    """Measured (or assumed) uncoded stage times feeding Eq. (4)."""

    t_map: float
    t_shuffle: float
    t_reduce: float

    @property
    def total_uncoded(self) -> float:
        """Eq. (3): ``T_map + T_shuffle + T_reduce``."""
        return self.t_map + self.t_shuffle + self.t_reduce


def predicted_total_time(model: TimeModel, r: int, num_nodes: int) -> float:
    """Eq. (4): ``r T_map + (1/r) T_shuffle + T_reduce``.

    The paper's first-order model: Map inflates ``r``-fold, Shuffle deflates
    ``r``-fold, Reduce is unchanged; CodeGen and coding overheads are
    second-order terms handled by the calibrated cost model instead.
    """
    check_params(num_nodes, r, multicast=False)
    return r * model.t_map + model.t_shuffle / r + model.t_reduce


def optimal_r(model: TimeModel, num_nodes: int) -> int:
    """Eq. (5)'s ``r*``: the integer minimizer of Eq. (4) clamped to [1, K].

    Checks both ``floor`` and ``ceil`` of ``sqrt(T_shuffle / T_map)`` (the
    continuous optimum) and returns whichever gives the smaller predicted
    time, as the paper prescribes.
    """
    if model.t_map <= 0:
        return num_nodes
    cont = math.sqrt(model.t_shuffle / model.t_map)
    candidates = {
        max(1, min(num_nodes, int(math.floor(cont)))),
        max(1, min(num_nodes, int(math.ceil(cont)))),
    }
    return min(
        candidates, key=lambda r: predicted_total_time(model, r, num_nodes)
    )


def optimal_total_time(model: TimeModel) -> float:
    """Eq. (5): ``T* ≈ 2 sqrt(T_shuffle T_map) + T_reduce``."""
    return 2.0 * math.sqrt(model.t_shuffle * model.t_map) + model.t_reduce


def predicted_speedup(model: TimeModel, r: int, num_nodes: int) -> float:
    """Eq. (3) / Eq. (4) ratio: the speedup CMR promises at redundancy r."""
    return model.total_uncoded / predicted_total_time(model, r, num_nodes)


# -- exact counts and sizes of one job ------------------------------------------


@dataclass(frozen=True)
class CodedWorkload:
    """Per-node / per-transfer quantities for CodedTeraSort at ``(K, r)``.

    For TeraGen's uniform keys the partitioner is balanced in expectation,
    so every count and size follows from ``(n_records, K, r, g)``; the
    functional runtime's measured traffic converges to the same numbers
    (tested).  Bytes use the 100-byte record and stay fractional (the model
    is continuous-time).

    With ``group_size = g`` (group-based coding, §VI) the *structure*
    counts — files, multicast groups, packets per node — are those of a
    coded job on ``g`` nodes, while *sizes* still divide by the ``K``
    partitions: every coding group holds the whole dataset but reduces
    only its own ``g`` partitions.  ``None`` is ``g = K``.

    ``r = 1`` is uncoded TeraSort at every ``K >= 1``: ``K`` files, one
    ``D/K^2`` unicast per ordered pair of nodes (a "packet" of one
    segment), the encode and decode volumes its pack and unpack.
    """

    num_nodes: int
    redundancy: int
    n_records: int
    group_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_params(
            self.num_nodes, self.redundancy, self.group_size,
            multicast=self.redundancy > 1,
        )
        if self.n_records < 0:
            raise ValueError(f"n_records: must be >= 0, got {self.n_records}")

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
