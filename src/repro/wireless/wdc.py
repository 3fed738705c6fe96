"""Wireless distributed sorting over the shared medium.

The full CodedTeraSort pipeline executed by ``K`` mobile users whose only
link is a TDMA broadcast channel (plus an access point).  Because the
medium admits one transmitter at a time, the execution is faithfully
driven sequentially in-process — the *airtime* is the quantity under
study, and the real coding engine (Algorithm 1/2) runs on real bytes, so
correctness is end-to-end: the output is validated as a sorted
permutation of the input.

Protocols:

* ``"uncoded"`` — the designated holder of each needed intermediate value
  uplinks it to the AP, which downlinks it to the consumer (two flights);
* ``"d2d"`` — each coded packet is broadcast device-to-device once,
  serving its ``r`` receivers simultaneously;
* ``"edge"`` — coded packets relayed through the AP ([25]): uplink once,
  one broadcast downlink (two flights, still ``r``-fold coded gain).

With ``group_size`` set, the grouped placement of :mod:`repro.scalable`
is used and coding stays inside groups — the [24] construction whose
airtime load is independent of the user count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.coded_common import group_store_by_subset
from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import build_coding_plan
from repro.core.mapper import hash_file, map_node_coded
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.sorting import sort_batches
from repro.scalable.grouping import NodeGrouping
from repro.scalable.placement import GroupedCodedPlacement
from repro.utils.subsets import Subset
from repro.wireless.channel import AirtimeLog, WirelessChannel

PROTOCOLS = ("uncoded", "d2d", "edge")


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
        if total == 0:
            return 0.0
        return self.airtime.total_bytes / total


def _plain_session(
    data: RecordBatch,
    num_users: int,
    redundancy: int,
    protocol: str,
    channel: WirelessChannel,
) -> List[RecordBatch]:
    """Un-grouped session: plain coded placement over all K users."""
    k = num_users
    partitioner = RangePartitioner.uniform(k)
    placement = CodedPlacement(k, redundancy)
    assignments = placement.place(data)

    files: List[Dict[int, RecordBatch]] = [dict() for _ in range(k)]
    subsets: List[Dict[int, Subset]] = [dict() for _ in range(k)]
    for fa in assignments:
        for node in fa.subset:
            files[node][fa.file_id] = fa.data
            subsets[node][fa.file_id] = fa.subset

    # Map + retention at every user.
    stores: List[Dict[Tuple[Subset, int], bytes]] = []
    for u in range(k):
        kept = map_node_coded(u, files[u], subsets[u], partitioner)
        store = group_store_by_subset(kept, subsets[u])
        stores.append({key: b.to_bytes() for key, b in store.items()})

    received: List[List[bytes]] = [[] for _ in range(k)]
    if protocol == "uncoded":
        # Designated holder (min of S) relays I^t_S through the AP.
        for subset in placement.subsets():
            sender = min(subset)
            for target in range(k):
                if target in subset:
                    continue
                payload = stores[sender][(tuple(subset), target)]
                channel.transmit(sender, [WirelessChannel.AP], payload)
                channel.transmit(WirelessChannel.AP, [target], payload)
                received[target].append(payload)
    else:
        plan = build_coding_plan(k, redundancy)
        packets: Dict[Tuple[int, int], bytes] = {}
        for gidx, group in enumerate(plan.groups):
            for sender in group:

                def lookup(subset: Subset, target: int, _s=sender) -> bytes:
                    return stores[_s][(subset, target)]

                packets[(gidx, sender)] = encode_packet(
                    sender, group, lookup
                ).to_bytes()
        for gidx, sender in plan.schedule:
            group = plan.groups[gidx]
            others = [m for m in group if m != sender]
            payload = packets[(gidx, sender)]
            if protocol == "d2d":
                channel.transmit(sender, others, payload)
            else:  # edge: relay through the AP
                channel.transmit(sender, [WirelessChannel.AP], payload)
                channel.transmit(WirelessChannel.AP, others, payload)
        # Decode at every user.
        for u in range(k):

            def lookup_u(subset: Subset, target: int) -> bytes:
                return stores[u][(subset, target)]

            for gidx in plan.groups_of_node[u]:
                group = plan.groups[gidx]
                got = {
                    s: CodedPacket.from_bytes(packets[(gidx, s)])
                    for s in group
                    if s != u
                }
                received[u].append(
                    recover_intermediate(u, group, got, lookup_u)
                )

    # Reduce.
    out: List[RecordBatch] = []
    for u in range(k):
        own = [
            RecordBatch.from_bytes(buf)
            for (subset, target), buf in stores[u].items()
            if target == u and u in subset
        ]
        decoded = [RecordBatch.from_bytes(buf) for buf in received[u]]
        out.append(sort_batches(own + decoded))
    return out


def _grouped_session(
    data: RecordBatch,
    num_users: int,
    redundancy: int,
    group_size: int,
    channel: WirelessChannel,
) -> List[RecordBatch]:
    """Grouped D2D session ([24]): coding inside groups of g users."""
    grouping = NodeGrouping(num_nodes=num_users, group_size=group_size)
    partitioner = RangePartitioner.uniform(num_users)
    placement = GroupedCodedPlacement(grouping, redundancy)
    assignments = placement.place(data)
    views = placement.per_node_views(assignments)
    member_subsets = {fa.file_id: fa.member_subset for fa in assignments}

    plan = build_coding_plan(group_size, redundancy)
    out: List[Optional[RecordBatch]] = [None] * num_users
    for j in range(grouping.num_groups):
        members = grouping.members(j)
        stores: Dict[int, Dict[Tuple[Subset, int], bytes]] = {}
        for u in members:
            kept: Dict[int, Dict[int, RecordBatch]] = {}
            subs: Dict[int, Subset] = {}
            for file_id, payload in views[u].items():
                msub = member_subsets[file_id]
                gsub = grouping.to_global(j, msub)
                parts = hash_file(payload, partitioner)
                retained = {u: parts[u]}
                in_subset = set(msub)
                for mate in members:
                    if (
                        mate != u
                        and grouping.member_index(mate) not in in_subset
                    ):
                        retained[mate] = parts[mate]
                kept[file_id] = retained
                subs[file_id] = gsub
            store = group_store_by_subset(kept, subs)
            stores[u] = {key: b.to_bytes() for key, b in store.items()}

        packets: Dict[Tuple[int, int], bytes] = {}
        for gidx, mgroup in enumerate(plan.groups):
            ggroup = grouping.to_global(j, mgroup)
            for sender in ggroup:

                def lookup(subset: Subset, target: int, _s=sender) -> bytes:
                    return stores[_s][(subset, target)]

                packets[(gidx, sender)] = encode_packet(
                    sender, ggroup, lookup
                ).to_bytes()
        for gidx, member_sender in plan.schedule:
            ggroup = grouping.to_global(j, plan.groups[gidx])
            sender = members[member_sender]
            others = [m for m in ggroup if m != sender]
            channel.transmit(sender, others, packets[(gidx, sender)])

        for u in members:
            m_idx = grouping.member_index(u)

            def lookup_u(subset: Subset, target: int) -> bytes:
                return stores[u][(subset, target)]

            decoded: List[RecordBatch] = []
            for gidx in plan.groups_of_node[m_idx]:
                ggroup = grouping.to_global(j, plan.groups[gidx])
                got = {
                    s: CodedPacket.from_bytes(packets[(gidx, s)])
                    for s in ggroup
                    if s != u
                }
                decoded.append(
                    RecordBatch.from_bytes(
                        recover_intermediate(u, ggroup, got, lookup_u)
                    )
                )
            own = [
                RecordBatch.from_bytes(buf)
                for (subset, target), buf in stores[u].items()
                if target == u
            ]
            out[u] = sort_batches(own + decoded)
    return [p for p in out if p is not None]


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
        raise ValueError(
            f"unknown protocol {protocol!r}; expected one of {PROTOCOLS}"
        )
    channel = channel or WirelessChannel(num_users)
    if channel.num_users != num_users:
        raise ValueError(
            f"channel has {channel.num_users} users, session asked for "
            f"{num_users}"
        )
    if group_size is not None:
        if protocol != "d2d":
            raise ValueError("grouped sessions use the d2d protocol")
        if not 1 <= redundancy < group_size:
            raise ValueError(
                f"need 1 <= r < g, got r={redundancy}, g={group_size}"
            )
        partitions = _grouped_session(
            data, num_users, redundancy, group_size, channel
        )
    else:
        if not 1 <= redundancy < num_users:
            raise ValueError(
                f"redundancy must be in [1, K-1], got {redundancy}"
            )
        partitions = _plain_session(
            data, num_users, redundancy, protocol, channel
        )
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
