"""The calibrated cost model for the paper's EC2 testbed.

Every constant in :meth:`EC2CostModel.paper_calibrated` is fit against the
twelve table cells of the paper (Tables I-III; 12 GB, 100 Mbps, K=16/20,
r ∈ {3, 5}); the derivations are documented per field of
:class:`EC2CostModel`.  Calibration targets *structure*, not per-cell
exactness: each cost is a physically sensible law (bytes / rate, per-group
constants, logarithmic multicast penalty) whose coefficients are chosen
once and then used unchanged for every modelled experiment
(:mod:`repro.sim.model`), including the sweeps the paper did not publish.

Conventions: rates are bytes/second or pairs/second; one KV pair is 100
bytes; ``r`` is the redundancy (computation load); sizes passed in are
per-node quantities unless noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class EC2CostModel:
    """Stage cost laws with EC2-calibrated coefficients.

    Attributes:
        net_rate: NIC goodput in bytes/s (paper: 100 Mbps = 12.5e6 B/s).
        unicast_overhead: fractional per-byte overhead of a TCP unicast
            (fit: Table I shuffle 945.72 s vs the 900 s ideal -> 1.052).
        unicast_setup: per-unicast setup latency in seconds.
        multicast_gamma: coefficient of the logarithmic multicast penalty
            ``m(g) = 1 + gamma * log2(g + 1)`` for ``g`` receivers (the
            paper attributes this to ``MPI_Bcast``; fit over the four coded
            shuffle cells -> 0.31).
        multicast_setup: per-multicast setup latency (tree construction).
        codegen_base: fixed CodeGen cost (index construction).
        codegen_per_group: CodeGen cost per multicast group (communicator
            splits; fit: 6.06/1820 ~ 140.91/38760 -> ~3.3 ms).
        map_rate: Map hashing throughput in pairs/s (fit: 1.86 s for 7.5 M
            pairs -> 4.1e6).
        map_slowdown: relative Map slowdown per extra redundancy unit
            (paper: Map ratios 3.2x at r=3, 5.8x at r=5 -> 0.05).
        pack_rate: serialization throughput, bytes/s (fit: 2.35 s for
            0.70 GB -> 2.95e8).
        unpack_rate: deserialization throughput, bytes/s (fit: 0.85 s).
        encode_rate: Encode-stage effective serialization throughput.
        xor_rate: XOR throughput for encode, bytes/s.
        decode_rate: Decode-stage effective throughput over recovered bytes.
        decode_packet_overhead: per received packet decode cost, seconds.
        reduce_rate: local sort throughput in pairs/s (fit: 10.47 s for
            7.5 M pairs -> 7.2e5).
        reduce_slowdown: relative Reduce slowdown per extra redundancy unit
            (memory pressure; §V-C).
    """

    net_rate: float = 12.5e6
    unicast_overhead: float = 0.052
    unicast_setup: float = 1.0e-3
    multicast_gamma: float = 0.31
    multicast_setup: float = 1.0e-4
    codegen_base: float = 0.1
    codegen_per_group: float = 3.3e-3
    map_rate: float = 4.1e6
    map_slowdown: float = 0.05
    pack_rate: float = 2.95e8
    unpack_rate: float = 8.7e8
    encode_rate: float = 3.5e8
    xor_rate: float = 2.2e9
    decode_rate: float = 2.2e8
    decode_packet_overhead: float = 2.0e-5
    reduce_rate: float = 7.2e5
    reduce_slowdown: float = 0.12

    @classmethod
    def paper_calibrated(cls) -> "EC2CostModel":
        """The default calibration (all fits against Tables I-III)."""
        return cls()

    def with_overrides(self, **kwargs) -> "EC2CostModel":
        """A copy with selected coefficients replaced (ablations)."""
        return replace(self, **kwargs)

    # -- network ------------------------------------------------------------

    def unicast_time(self, nbytes: float) -> float:
        """Wall time of one serial unicast of ``nbytes``."""
        return self.unicast_setup + nbytes * (1.0 + self.unicast_overhead) / self.net_rate

    def multicast_time(self, nbytes: float, receivers: int) -> float:
        """Wall time of one application-layer multicast to ``receivers``.

        The ``1 + gamma log2(receivers + 1)`` factor reproduces the
        logarithmic growth the paper observes for ``MPI_Bcast`` (§V-C);
        ``receivers = 1`` keeps a small penalty over plain unicast, matching
        the group setup cost.
        """
        if receivers < 1:
            raise ValueError(f"receivers must be >= 1, got {receivers}")
        penalty = 1.0 + self.multicast_gamma * math.log2(receivers + 1)
        return self.multicast_setup + nbytes * penalty / self.net_rate

    # -- compute stages -------------------------------------------------------

    def codegen_time(self, num_groups: int) -> float:
        """CodeGen: proportional to the ``C(K, r+1)`` multicast groups."""
        return self.codegen_base + self.codegen_per_group * num_groups

    def map_time(self, pairs_hashed: float, redundancy: int) -> float:
        """Hashing ``pairs_hashed`` KV pairs at redundancy ``r``.

        The mild super-linearity (cache/memory pressure) reproduces the
        paper's 3.2x / 5.8x Map ratios at r = 3 / 5.
        """
        slow = 1.0 + self.map_slowdown * (redundancy - 1)
        return pairs_hashed * slow / self.map_rate

    def pack_time(self, nbytes: float) -> float:
        """Serializing ``nbytes`` of outgoing intermediate values."""
        return nbytes / self.pack_rate

    def unpack_time(self, nbytes: float) -> float:
        """Deserializing ``nbytes`` of received intermediate values."""
        return nbytes / self.unpack_rate

    def encode_time(self, serialize_bytes: float, xor_bytes: float) -> float:
        """Encode: serialization of retained values plus segment XORs."""
        return serialize_bytes / self.encode_rate + xor_bytes / self.xor_rate

    def decode_time(self, recovered_bytes: float, packets: int) -> float:
        """Decode: XOR-peeling/merging plus per-packet bookkeeping."""
        return (
            recovered_bytes / self.decode_rate
            + packets * self.decode_packet_overhead
        )

    def reduce_time(self, pairs_sorted: float, redundancy: int) -> float:
        """Local sort of ``pairs_sorted`` pairs at redundancy ``r``."""
        slow = 1.0 + self.reduce_slowdown * (redundancy - 1)
        return pairs_sorted * slow / self.reduce_rate

    # -- streaming overlap ----------------------------------------------------

    def overlapped_makespan(
        self,
        compute_time: float,
        comm_time: float,
        windows: int = 16,
    ) -> float:
        """Makespan of a compute phase overlapped with its communication.

        The streaming-overlap execution ships each of ``windows`` compute
        windows' traffic the moment the window completes, so communication
        rides behind the remaining compute instead of following it:

        * communication-bound (``comm > compute``): the network is busy
          from (roughly) the first window on, so the makespan is one
          window of compute to prime the pipeline plus the full
          communication time — ``compute/windows + comm``;
        * compute-bound: the transfers hide entirely behind compute except
          the last window's traffic, which has nothing left to hide
          behind — ``compute + comm/windows``.

        Both regimes are the same expression
        ``max(compute, comm) + min(compute, comm)/windows``, which also
        degrades gracefully to the staged ``compute + comm`` at
        ``windows = 1``.  Compared against measurement: ``compute`` is
        the per-node critical-path compute (map + sort/merge work that
        the engine interleaves), ``comm`` the *overlapped* transfer time
        (e.g. serial shuffle seconds divided by ``K`` for the uncoded
        engine, whose all-to-all traffic flows concurrently under
        per-node egress pacing, instead of one turn at a time).
        """
        if windows < 1:
            raise ValueError(f"windows must be >= 1, got {windows}")
        if compute_time < 0 or comm_time < 0:
            raise ValueError(
                f"times must be >= 0, got compute={compute_time}, "
                f"comm={comm_time}"
            )
        return (
            max(compute_time, comm_time)
            + min(compute_time, comm_time) / windows
        )
