"""Closed-form analysis: communication loads and run-time model.

Implements the paper's analytical results:

* Eq. (2) / Fig. 2 — the communication loads

  - uncoded with computation load ``r``:  ``L_uncoded(r) = 1 - r/K``
  - Coded MapReduce:                      ``L_CMR(r) = (1/r) (1 - r/K)``

  (``L`` is normalized by ``Q N`` intermediate values; for sorting it is the
  fraction of the dataset crossing the network);

* Eq. (3)-(4) — the execution-time model
  ``T_total,CMR ≈ r T_map + (1/r) T_shuffle + T_reduce``;

* Eq. (5) — the optimal redundancy
  ``r* = floor/ceil of sqrt(T_shuffle / T_map)`` and the resulting
  ``T* ≈ 2 sqrt(T_shuffle T_map) + T_reduce``;

* exact message/byte counts for both shuffles, which the model's transfer
  counts and payloads are checked against, as are the exact-load tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from repro.utils.subsets import binomial


def uncoded_comm_load(r: int, num_nodes: int) -> float:
    """``L_uncoded(r) = 1 - r/K`` (Eq. (2) context; r=1 is plain TeraSort).

    With each file mapped at ``r`` nodes, a ``r/K`` fraction of every
    partition is already local to its reducer, and the rest is unicast.
    """
    _check_rk(r, num_nodes)
    return 1.0 - r / num_nodes


def coded_comm_load(r: int, num_nodes: int) -> float:
    """``L_CMR(r) = (1/r) (1 - r/K)`` (Eq. (2)) — an exact ``r``-fold cut."""
    _check_rk(r, num_nodes)
    return (1.0 / r) * (1.0 - r / num_nodes)


def load_series(num_nodes: int) -> List[Tuple[int, float, float]]:
    """The Fig. 2 series: ``(r, L_uncoded(r), L_CMR(r))`` for r = 1..K."""
    if num_nodes < 1:
        raise ValueError(f"num_nodes: must be >= 1, got {num_nodes}")
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
    _check_rk(r, num_nodes)
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


# -- exact shuffle accounting (checks the model and the exact loads) ---------


def uncoded_shuffle_messages(num_nodes: int) -> int:
    """TeraSort sends ``K (K-1)`` unicast intermediate values."""
    return num_nodes * (num_nodes - 1)


def uncoded_shuffle_bytes(total_bytes: int, num_nodes: int) -> float:
    """Expected unicast payload bytes: ``D (K-1)/K``.

    Each of the ``K`` files contributes ``1/K`` of its records to each of
    the other ``K-1`` partitions under a balanced partitioner.
    """
    return total_bytes * (num_nodes - 1) / num_nodes


def coded_multicast_count(r: int, num_nodes: int) -> int:
    """``C(K, r+1) (r+1)`` coded packets cross the network."""
    _check_rk(r, num_nodes)
    return binomial(num_nodes, r + 1) * (r + 1)


def coded_packet_bytes(total_bytes: int, r: int, num_nodes: int) -> float:
    """Expected payload of one coded packet: ``D / (N K r)``.

    A file holds ``D/N`` bytes (``N = C(K, r)``), its per-partition
    intermediate value ``D/(N K)``, and each packet carries one ``1/r``
    segment of such a value.
    """
    _check_rk(r, num_nodes)
    n_files = binomial(num_nodes, r)
    return total_bytes / (n_files * num_nodes * r)


def coded_shuffle_bytes(total_bytes: int, r: int, num_nodes: int) -> float:
    """Expected total multicast payload: ``D (K-r) / (K r)``.

    Equals ``coded_multicast_count * coded_packet_bytes`` and also
    ``L_CMR(r) * D``, the Eq. (2) load — the identity the exact-load tests
    verify against measured traffic.
    """
    return coded_multicast_count(r, num_nodes) * coded_packet_bytes(
        total_bytes, r, num_nodes
    )


def _check_rk(r: int, num_nodes: int) -> None:
    if num_nodes < 1:
        raise ValueError(f"K must be >= 1, got {num_nodes}")
    if not 1 <= r <= num_nodes:
        raise ValueError(f"r must be in [1, {num_nodes}], got {r}")
