"""Wireless distributed sorting over the shared medium.

``K`` mobile users sort with the only link a TDMA broadcast channel (plus
an access point); the *airtime* is the quantity under study.  The coded
protocols do not re-implement Algorithm 1/2 — the execution lives in
:mod:`repro.core.coded_terasort`: a :class:`~repro.session.CodedTeraSortSpec`
runs on an ``inproc://K`` session under the serial schedule (one
transmitter at a time, as the medium demands) and the run's shuffle-stage
multicast records are replayed onto the :class:`WirelessChannel` in
schedule order.  The output is that run's partitions.

Protocols:

* ``"uncoded"`` — the designated holder of each needed intermediate value
  uplinks it to the AP, which downlinks it to the consumer (two flights);
* ``"d2d"`` — each coded packet is broadcast device-to-device once,
  serving its ``r`` receivers simultaneously;
* ``"edge"`` — coded packets relayed through the AP ([25]): uplink once,
  one broadcast downlink (two flights, still ``r``-fold coded gain).

A protocol's closed-form airtime load is its :data:`RELAY_FACTOR` times
Eq. (2)'s load (:mod:`repro.core.theory`): ``2 (1 - r/K)`` uncoded,
``(1/r)(1 - r/K)`` d2d, twice that edge.

``group_size`` goes on the spec: coding stays inside groups of ``g`` users
([24]) and the airtime load, Eq. (2)'s at ``K -> g``, is independent of
the user count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cluster import connect
from repro.core.mapper import hash_file
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement
from repro.core.theory import check_params
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batches
from repro.session import CodedTeraSortSpec, run
from repro.wireless.channel import AirtimeLog, WirelessChannel

#: Each protocol's relay factor, the flights per value on the air:
#: relayed through the AP (up, then down), or device-to-device once.
RELAY_FACTOR = {"uncoded": 2, "d2d": 1, "edge": 2}
PROTOCOLS = tuple(RELAY_FACTOR)


@dataclass
class WirelessSortOutcome:
    """Result of a wireless sort session.

    Attributes:
        partitions: per-user sorted output shards (ascending key ranges).
        airtime: the channel log (per-direction bytes and seconds).
        meta: configuration echo plus derived statistics.
    """

    partitions: List[RecordBatch]
    airtime: AirtimeLog
    meta: Dict[str, object] = field(default_factory=dict)

    def shuffle_load(self) -> float:
        """Measured airtime bytes / total input bytes (Eq. (2) style)."""
        total = self.meta["input_records"] * 100
        return self.airtime.total_bytes / total if total else 0.0


def _uncoded_relay(
    data: RecordBatch, num_users: int, redundancy: int, channel: WirelessChannel
) -> List[RecordBatch]:
    """Uncoded session: the designated holder ``min(S)`` relays ``I^t_S``
    through the AP to every ``t ∉ S`` — the one sequential body left, as no
    live program shuffles uncoded at ``r > 1``.  Each file is hashed once:
    every replica of ``F_S`` computes the same ``I^t_S``."""
    partitioner = RangePartitioner.uniform(num_users)
    own: List[List[RecordBatch]] = [[] for _ in range(num_users)]
    relayed: List[List[RecordBatch]] = [[] for _ in range(num_users)]
    for fa in CodedPlacement(num_users, redundancy).place(data):
        for target, part in enumerate(hash_file(fa.data, partitioner)):
            if target in fa.subset:
                own[target].append(part)
                continue
            channel.transmit(min(fa.subset), [WirelessChannel.AP], part.nbytes)
            channel.transmit(WirelessChannel.AP, [target], part.nbytes)
            relayed[target].append(part)
    return [sort_batches(own[u] + relayed[u]) for u in range(num_users)]


def _coded_session(
    spec: CodedTeraSortSpec, num_users: int, edge: bool, channel: WirelessChannel
) -> List[RecordBatch]:
    """Coded session: run the live sort, replay its multicasts on the air."""
    result = run(connect(f"inproc://{num_users}"), spec)
    g = spec.group_size or num_users

    def turn_order(rec):
        # Fig. 9(b) inside each coding group — senders by member index,
        # then the sender's multicast groups in lex order — with the
        # node-disjoint coding groups interleaved turn by turn, so the
        # trace does not depend on how the worker threads raced.
        members = sorted(n % g for n in (rec.src, *rec.dsts))
        return rec.src % g, members, rec.src // g

    for rec in sorted(result.traffic.records, key=turn_order):
        if (rec.stage, rec.kind) != ("shuffle", "multicast"):
            continue
        src = rec.src
        if edge:  # relay through the AP: uplink, one broadcast downlink
            channel.transmit(src, [WirelessChannel.AP], rec.payload_bytes)
            src = WirelessChannel.AP
        channel.transmit(src, rec.dsts, rec.payload_bytes)
    return result.partitions


def run_wireless_sort(
    data: RecordBatch,
    num_users: int,
    redundancy: int,
    protocol: str = "d2d",
    channel: Optional[WirelessChannel] = None,
    group_size: Optional[int] = None,
) -> WirelessSortOutcome:
    """Sort ``data`` across ``num_users`` mobile users over the air.

    Args:
        data: input records.
        num_users: ``K`` mobile users.
        redundancy: coded placement ``r`` (within groups if grouped).
        protocol: ``"uncoded"``, ``"d2d"`` or ``"edge"``; grouped sessions
            (``group_size`` set) always use D2D broadcast.
        channel: the shared medium (default: fresh 20 Mbps channel).
        group_size: enable the grouped construction of [24].

    Returns:
        The validated outcome with per-direction airtime accounting.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}")
    channel = channel or WirelessChannel(num_users)
    if channel.num_users != num_users:
        raise ValueError(
            f"channel has {channel.num_users} users, session asked for {num_users}"
        )
    if group_size is not None and protocol != "d2d":
        raise ValueError("grouped sessions use the d2d protocol")
    if protocol == "uncoded":
        # No spec is submitted on this path: same (K, r) domain, same message.
        check_params(num_users, redundancy)
        partitions = _uncoded_relay(data, num_users, redundancy, channel)
    else:
        spec = CodedTeraSortSpec(
            data=data, redundancy=redundancy, group_size=group_size, schedule="serial"
        )
        partitions = _coded_session(spec, num_users, protocol == "edge", channel)
    return WirelessSortOutcome(
        partitions=partitions,
        airtime=channel.log,
        meta={
            "num_users": num_users,
            "redundancy": redundancy,
            "protocol": protocol if group_size is None else "d2d-grouped",
            "group_size": group_size,
            "input_records": len(data),
        },
    )
