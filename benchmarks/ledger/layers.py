"""Group-B layer metrics: rank 0's share of the input, replayed layer by layer.

The benchmark process takes the records rank 0 would own and pushes them
through each layer's public functions inside spans, so a layer's cost is
known in isolation from the live job's scheduling and waiting.  Roofline
probes (memcpy, ``np.sort``, the link) run in the same pass so every rate
can be read as a fraction of what the machine allows.
"""

from __future__ import annotations

import glob
import os
import socket
import threading
import time
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.decoding import recover_intermediate
from repro.core.encoding import CodedPacket, encode_packet
from repro.core.groups import build_coding_plan
from repro.core.mapper import hash_file, map_node_coded, map_node_uncoded
from repro.core.partitioner import RangePartitioner
from repro.core.placement import CodedPlacement, UncodedPlacement
from repro.kvpairs.datasource import DataSource
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.serialization import (
    pack_batch_parts,
    pack_batches_parts,
    unpack_batches,
)
from repro.kvpairs.sorting import merge_sorted, sort_batch
from repro.kvpairs.spill import (
    IncrementalMerger,
    Run,
    SpillDir,
    merge_runs,
    write_sorted_run,
)
from repro.runtime.ratelimit import TokenBucket
from repro.runtime.transport import recv_frame, send_frame
from repro.utils import copytrack

from metrics import median
from spans import Tracer
from workloads import RATE_BYTES_PER_S, Kind, Workload

REPS = 3
GIB = 1 << 30


def _timed(tracer: Tracer, name: str, fn: Callable, reps: int = REPS,
           **counts) -> Tuple[float, object]:
    """Median seconds of ``fn()`` over ``reps`` calls, one span each."""
    seconds, result = [], None
    for _ in range(reps):
        with tracer.span(name, **counts):
            t0 = time.perf_counter()
            result = fn()
            seconds.append(time.perf_counter() - t0)
    return median(seconds), result


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------------------
# Transport: a socketpair, one receiver thread, every socket call counted.
# ---------------------------------------------------------------------------


class CountingSocket:
    """The three socket calls ``send_frame`` / ``recv_frame`` make, counted."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self.calls = 0

    def sendmsg(self, views):
        self.calls += 1
        return self._sock.sendmsg(views)

    def sendall(self, data):
        self.calls += 1
        return self._sock.sendall(data)

    def recv_into(self, view):
        self.calls += 1
        return self._sock.recv_into(view)


def _roundtrip(frames: List[list], pacer=None) -> Tuple[float, int]:
    """Send every frame and wait for its empty ack; (seconds, socket calls)."""
    a, b = socket.socketpair()
    for sock in (a, b):
        sock.settimeout(30.0)
    near, far = CountingSocket(a), CountingSocket(b)

    def receiver() -> None:
        for _ in frames:
            recv_frame(far)
            send_frame(far, 0, b"")

    thread = threading.Thread(target=receiver, name="ledger-receiver")
    thread.start()
    try:
        t0 = time.perf_counter()
        for parts in frames:
            send_frame(near, 1, parts, pacer)
            recv_frame(near)
        seconds = time.perf_counter() - t0
    finally:
        thread.join()
        a.close()
        b.close()
    return seconds, near.calls + far.calls


def _raw_socket_mbps(nbytes: int = 32 << 20) -> float:
    """Unframed ``sendall`` -> ``recv_into`` over a socketpair, MB/s."""
    a, b = socket.socketpair()
    payload, sink = bytearray(nbytes), bytearray(1 << 20)

    def drain() -> None:
        got = 0
        while got < nbytes:
            got += b.recv_into(sink)

    thread = threading.Thread(target=drain, name="ledger-drain")
    thread.start()
    t0 = time.perf_counter()
    a.sendall(payload)
    thread.join()
    seconds = time.perf_counter() - t0
    a.close()
    b.close()
    return nbytes / seconds / 1e6


# ---------------------------------------------------------------------------
# Roofline probes.
# ---------------------------------------------------------------------------


def llc_bytes() -> int:
    """Largest cache sysfs reports for cpu0 (32 MiB when it reports none)."""
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, encoding="ascii") as f:
                text = f.read().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": GIB}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            best = max(best, int(digits) * scale)
    return best or 32 << 20


def roofline(tracer: Tracer, records: int, seed: int, paced: bool
             ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """(metrics, info): memcpy GB/s, np.sort Mrec/s, the link in MB/s."""
    llc = llc_bytes()
    # Arrays of 4x the LLC so the copy streams from DRAM, capped at 128 MiB:
    # first-touching gigabytes takes a VM tens of seconds.  The info block
    # states both sizes and whether the 4x rule held.
    nbytes = min(4 * llc, GIB // 8)
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    dst[:] = src  # first touch: page faults are not memcpy
    copy_s, _ = _timed(tracer, "roofline.memcpy",
                       lambda: np.copyto(dst, src), reps=2, bytes=nbytes)
    del src, dst
    keys = np.random.default_rng(seed).integers(
        0, 1 << 63, size=max(records, 1), dtype=np.uint64
    )
    sort_s, _ = _timed(tracer, "roofline.npsort", lambda: np.sort(keys),
                       records=len(keys))
    with tracer.span("roofline.link"):
        link = RATE_BYTES_PER_S / 1e6 if paced else _raw_socket_mbps()
    metrics = {
        "roofline.memcpy_gbps": _rate(nbytes, copy_s) / 1e9,
        "roofline.npsort_mrec_per_s": _rate(len(keys), sort_s) / 1e6,
        "roofline.link_mbps": link,
    }
    info = {
        "llc_bytes": llc, "memcpy_array_bytes": nbytes,
        "memcpy_arrays_ge_4x_llc": nbytes >= 4 * llc,
        "link": "nominal token-bucket rate" if paced
        else "measured raw socketpair",
    }
    return metrics, info


# ---------------------------------------------------------------------------
# The replay.
# ---------------------------------------------------------------------------


def replay(workload: Workload, kind: Kind, source: DataSource,
           tracer: Tracer, tmp: str) -> Dict[str, float]:
    """Rank 0's share of ``source`` through every layer; name -> value."""
    k, r = workload.nodes, kind.redundancy
    partitioner = RangePartitioner.uniform(k)
    out: Dict[str, float] = {}

    # -- input read, partition, map ---------------------------------------
    if r:
        placement = CodedPlacement(k, r)
        splits = placement.split_source(source)
        subsets = {f: placement.subset_of_file(f) for f in range(len(splits))}
        mine = placement.files_of_node(0)
    else:
        splits = UncodedPlacement(k).split_source(source)
        subsets, mine = {}, [0]
    share_bytes = sum(splits[f].nbytes for f in mine)
    # .copy(): FileSource.load() is a lazy mmap view; reading means owning.
    read_s, files = _timed(
        tracer, "kvpairs.datasource.load",
        lambda: {f: splits[f].load().copy() for f in mine}, bytes=share_bytes,
    )
    share = RecordBatch.concat(files.values())
    out["kvpairs.datasource.read_s"] = read_s
    out["kvpairs.datasource.read_mbps"] = _rate(share_bytes, read_s) / 1e6
    out["core.partitioner.partition_s"], _ = _timed(
        tracer, "core.partitioner.partition_indices",
        lambda: partitioner.partition_indices(share), records=len(share),
    )
    if r:
        map_s, kept = _timed(
            tracer, "core.mapper.map_node_coded",
            lambda: map_node_coded(
                0, files, {f: subsets[f] for f in mine}, partitioner
            ), bytes=share_bytes,
        )
        outgoing = [
            (target, batch) for per_file in kept.values()
            for target, batch in per_file.items() if target != 0
        ]
    else:
        map_s, parts = _timed(
            tracer, "core.mapper.map_node_uncoded",
            lambda: map_node_uncoded(share, partitioner), bytes=share_bytes,
        )
        outgoing = [(dst, parts[dst]) for dst in range(1, k)]
    out["core.mapper.map_s"] = map_s
    out["core.mapper.map_mbps"] = _rate(share_bytes, map_s) / 1e6

    # -- pack / unpack ------------------------------------------------------
    out["kvpairs.serialization.pack_s"], packed = _timed(
        tracer, "kvpairs.serialization.pack_batches_parts",
        lambda: pack_batches_parts(outgoing), calls=len(outgoing),
    )
    wire = b"".join(packed)
    out["kvpairs.serialization.unpack_s"], _ = _timed(
        tracer, "kvpairs.serialization.unpack_batches",
        lambda: unpack_batches(wire, copy=False), bytes=len(wire),
    )
    frames = [pack_batch_parts(batch, tag=0) for _, batch in outgoing]

    # -- codegen / encode / decode -------------------------------------------
    for name in ("core.groups.codegen_s", "core.encoding.encode_s",
                 "core.encoding.encode_mbps", "core.decoding.decode_s",
                 "core.decoding.decode_mbps"):
        out[name] = 0.0
    if r:
        out["core.groups.codegen_s"], plan = _timed(
            tracer, "core.groups.build_coding_plan",
            lambda: build_coding_plan(k, r),
        )
        # Every I^t_S, so packets of the other members can be built too.
        serialized = {}
        with tracer.span("replay.map_all_files"):
            for f, split in enumerate(splits):
                for target, batch in enumerate(
                    hash_file(split.load(), partitioner)
                ):
                    serialized[(subsets[f], target)] = batch.to_bytes()

        def lookup(subset, target):
            return serialized[(subset, target)]

        groups = [plan.groups[g] for g in plan.groups_of_node[0]]
        encode_s, packets = _timed(
            tracer, "core.encoding.encode_packet",
            lambda: [encode_packet(0, g, lookup) for g in groups],
            calls=len(groups),
        )
        xored = sum(r * len(p.payload) for p in packets)
        out["core.encoding.encode_s"] = encode_s
        out["core.encoding.encode_mbps"] = _rate(xored, encode_s) / 1e6
        frames = [p.to_parts() for p in packets]
        inbound = {
            g: {
                u: CodedPacket.from_bytes(
                    b"".join(encode_packet(u, g, lookup).to_parts())
                )
                for u in g if u != 0
            }
            for g in groups
        }
        decode_s, values = _timed(
            tracer, "core.decoding.recover_intermediate",
            lambda: [recover_intermediate(0, g, inbound[g], lookup)
                     for g in groups],
            calls=len(groups),
        )
        out["core.decoding.decode_s"] = decode_s
        out["core.decoding.decode_mbps"] = _rate(
            sum(len(v) for v in values), decode_s
        ) / 1e6

    # -- transport -----------------------------------------------------------
    egress = sum(len(memoryview(p)) for parts in frames for p in parts)
    trips = []
    with copytrack.track() as copies:
        for _ in range(REPS):
            with tracer.span("runtime.transport.roundtrip", bytes=egress,
                             calls=len(frames)):
                trips.append(_roundtrip(frames))
    trip_s = median([seconds for seconds, _ in trips])
    out["runtime.transport.roundtrip_s"] = trip_s
    out["runtime.transport.mbps"] = _rate(egress, trip_s) / 1e6
    out["runtime.transport.syscalls_per_mb"] = _rate(
        trips[-1][1], egress / 1e6
    )
    out["runtime.transport.copies_per_byte"] = _rate(
        sum(copies.values()) / REPS, egress
    )
    out["runtime.ratelimit.link_mbps"] = 0.0
    if workload.paced:
        # What rank 0 puts on the wire: a multicast goes out once per
        # receiver, through a bucket that starts full (the burst is real).
        wire_frames = frames * max(1, r)
        with tracer.span("runtime.ratelimit.paced_send", bytes=egress):
            paced_s, _ = _roundtrip(wire_frames, TokenBucket(RATE_BYTES_PER_S))
        out["runtime.ratelimit.link_mbps"] = (
            _rate(egress * max(1, r), paced_s) / 1e6
        )

    # -- sort, merge, spill: a reduce-sized batch in K runs -------------------
    base = source.subrange(0, max(1, source.num_records // k)).load().copy()
    n = len(base)
    cuts = [n * i // k for i in range(1, k)]
    runs = [sort_batch(chunk) for chunk in base.split_at(cuts)]
    sort_s, _ = _timed(tracer, "kvpairs.sorting.sort_batch",
                       lambda: sort_batch(base), records=n)
    merge_s, _ = _timed(tracer, "kvpairs.sorting.merge_sorted",
                        lambda: merge_sorted(runs, check=False), records=n)
    out["kvpairs.sorting.sort_s"] = sort_s
    out["kvpairs.sorting.sort_mrec_per_s"] = _rate(n, sort_s) / 1e6
    out["kvpairs.sorting.merge_s"] = merge_s
    out["kvpairs.sorting.merge_mrec_per_s"] = _rate(n, merge_s) / 1e6

    with SpillDir(tag="ledger", base=os.path.join(tmp, "spill")) as spill:

        def write_runs() -> List[Run]:
            written = []
            for run in runs:
                path = spill.new_path("replay")
                write_sorted_run(path, run)
                written.append(Run.from_file(path, len(run)))
            return written

        def drain(batches) -> int:
            return sum(len(b) for b in batches)

        def incremental() -> int:
            merger = IncrementalMerger(num_slots=k)
            for slot, run in enumerate(runs):
                merger.feed(slot, run)
            return drain(merger.finish())

        write_s, file_runs = _timed(tracer, "kvpairs.spill.write_sorted_run",
                                    write_runs, bytes=base.nbytes)
        merge_runs_s, _ = _timed(tracer, "kvpairs.spill.merge_runs",
                                 lambda: drain(merge_runs(file_runs)),
                                 records=n)
        inc_s, _ = _timed(tracer, "kvpairs.spill.IncrementalMerger",
                          incremental, records=n)
    out["kvpairs.spill.write_s"] = write_s
    out["kvpairs.spill.write_mbps"] = _rate(base.nbytes, write_s) / 1e6
    out["kvpairs.spill.merge_runs_s"] = merge_runs_s
    out["kvpairs.spill.merge_runs_mbps"] = (
        _rate(base.nbytes, merge_runs_s) / 1e6
    )
    out["kvpairs.spill.incremental_merge_s"] = inc_s
    return out
