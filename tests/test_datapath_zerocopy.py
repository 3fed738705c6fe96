"""Zero-copy data-plane semantics: views, arenas, aliasing, gather sends.

Covers the contracts the zero-copy shuffle relies on:

* ``xor_into`` leaves accumulator bytes beyond the data untouched and
  works on writable arena slices;
* ``RecordBatch.from_buffer`` / ``unpack_batches(copy=False)`` aliasing
  and lifetime rules (views keep the parent buffer alive; transforms that
  must survive later buffer mutation copy);
* gather-list (vectored) sends and ``copy=False`` receives are
  byte-identical to the owned-bytes path on both backends, for payloads
  below and above 1 MiB;
* ``CodedPacket`` parts wire form and arena-based encode/decode;
* ``merge_sorted`` is a stable k-way merge equal to sorting the concat.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest

from repro.cluster import connect
from repro.core.decoding import decode_segment_into, recover_intermediate
from repro.core.encoding import (
    CodedPacket,
    CodingError,
    encode_packet,
    segment_of,
    xor_into,
)
from repro.kvpairs.records import KEY_BYTES, RECORD_BYTES, VALUE_BYTES, RecordBatch
from repro.kvpairs.serialization import (
    pack_batch,
    pack_batch_parts,
    pack_batches,
    pack_batches_parts,
    unpack_batch,
    unpack_batches,
)
from repro.kvpairs.sorting import merge_sorted, sort_batch
from repro.kvpairs.teragen import teragen
from repro.runtime.program import NodeProgram
from repro.utils import copytrack
from repro.utils.subsets import without


class TestXorInto:
    def test_tail_beyond_data_untouched(self):
        # Satellite micro-test: acc bytes past len(data) must be preserved.
        acc = bytearray(b"\x11\x22\x33\x44\x55")
        xor_into(acc, b"\xff\xff")
        assert acc == bytearray(b"\xee\xdd\x33\x44\x55")

    def test_writes_through_arena_slice(self):
        arena = bytearray(8)
        xor_into(memoryview(arena)[2:5], b"\x01\x02\x03")
        assert arena == bytearray(b"\x00\x00\x01\x02\x03\x00\x00\x00")

    def test_accepts_memoryview_data(self):
        acc = bytearray(b"\x0f\x0f")
        xor_into(acc, memoryview(b"\xf0\xf0"))
        assert acc == bytearray(b"\xff\xff")


class TestFromBuffer:
    def test_zero_copy_aliases_parent(self):
        batch = teragen(5, seed=1)
        buf = bytearray(batch.to_bytes())
        view_batch = RecordBatch.from_buffer(buf)
        assert view_batch == batch
        buf[0] ^= 0xFF  # mutate the parent: the view must see it
        assert view_batch != batch

    def test_view_is_readonly(self):
        buf = bytearray(RECORD_BYTES)
        view_batch = RecordBatch.from_buffer(buf)
        with pytest.raises(ValueError):
            view_batch.array["key"] = b"x"

    def test_sorted_output_survives_buffer_mutation(self):
        # The aliasing contract: sort_batch copies into fresh memory, so
        # trashing the receive buffer afterwards must not corrupt it.
        batch = teragen(64, seed=2)
        buf = bytearray(batch.to_bytes())
        sorted_out = sort_batch(RecordBatch.from_buffer(buf))
        expected = sort_batch(batch)
        buf[:] = b"\xff" * len(buf)
        assert sorted_out == expected

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            RecordBatch.from_buffer(bytearray(RECORD_BYTES + 1))


class TestUnpackViews:
    def test_views_survive_parent_scope(self):
        # np.frombuffer holds a reference to the buffer, so dropping the
        # caller's name (and collecting) must not invalidate the batches.
        batches = [(i, teragen(20 + i, seed=i)) for i in range(3)]
        buf = pack_batches(batches)
        out = unpack_batches(buf, copy=False)
        del buf, batches
        gc.collect()
        assert [len(b) for _, b in out] == [20, 21, 22]
        assert all(b == RecordBatch.from_bytes(b.to_bytes()) for _, b in out)

    def test_copy_false_aliases_copy_true_does_not(self):
        batch = teragen(4, seed=3)
        buf = bytearray(pack_batch(batch, tag=1))
        _, aliased = unpack_batch(buf, copy=False)
        _, owned = unpack_batch(buf, copy=True)
        buf[-1] ^= 0xFF  # corrupt the last value byte in place
        assert aliased != batch
        assert owned == batch

    def test_parts_equal_joined_form(self):
        batches = [(7, teragen(3, seed=5)), (9, teragen(0, seed=6))]
        assert b"".join(pack_batches_parts(batches)) == pack_batches(batches)
        one = teragen(2, seed=7)
        assert b"".join(pack_batch_parts(one, tag=4)) == pack_batch(one, tag=4)

    def test_pack_parts_do_not_copy(self):
        batch = teragen(50, seed=8)
        with copytrack.track() as copies:
            pack_batch_parts(batch, tag=0)
        assert sum(copies.values()) == 0
        with copytrack.track() as copies:
            pack_batch(batch, tag=0)
        assert copies.get("serialization.pack_join", 0) >= batch.nbytes


def _group_store(group, sizes):
    store = {}
    for i, t in enumerate(group):
        subset = without(group, t)
        size = sizes[i % len(sizes)]
        store[(subset, t)] = bytes((j * 31 + t) % 256 for j in range(size))
    return store


class TestPacketZeroCopy:
    def test_to_parts_equals_to_bytes(self):
        group = (0, 2, 5)
        store = _group_store(group, [24])
        pkt = encode_packet(2, group, lambda s, t: store[(s, t)])
        assert b"".join(pkt.to_parts()) == pkt.to_bytes()

    def test_from_bytes_payload_is_view(self):
        group = (0, 1, 3)
        store = _group_store(group, [18])
        wire = bytearray(
            encode_packet(0, group, lambda s, t: store[(s, t)]).to_bytes()
        )
        pkt = CodedPacket.from_bytes(wire)
        before = bytes(pkt.payload)
        wire[-1] ^= 0xFF  # last payload byte: the parsed view must alias it
        assert bytes(pkt.payload) != before

    def test_encode_into_caller_arena(self):
        group = (1, 2, 4)
        store = _group_store(group, [30])
        ref = encode_packet(1, group, lambda s, t: store[(s, t)])
        arena = bytearray(64)
        pkt = encode_packet(1, group, lambda s, t: store[(s, t)], out=arena)
        assert bytes(pkt.payload) == bytes(ref.payload)
        # The payload aliases the arena.
        arena[0] ^= 0xFF
        assert bytes(pkt.payload) != bytes(ref.payload)

    def test_encode_arena_too_small(self):
        group = (0, 1, 2)
        store = _group_store(group, [40])
        with pytest.raises(CodingError):
            encode_packet(0, group, lambda s, t: store[(s, t)], out=bytearray(3))

    def test_uneven_segments_match_loop_path(self):
        # Non-uniform lengths take the padded xor_into path; cross-check
        # decode against the encoder for every receiver.
        group = (0, 3, 5, 6)
        store = _group_store(group, [17, 40, 9, 26])
        lookup = lambda s, t: store[(s, t)]  # noqa: E731
        packets = {u: encode_packet(u, group, lookup) for u in group}
        for receiver in group:
            recovered = recover_intermediate(
                receiver,
                group,
                {u: p for u, p in packets.items() if u != receiver},
                lookup,
            )
            assert recovered == store[(without(group, receiver), receiver)]

    def test_decode_segment_into_wrong_size_raises(self):
        group = (0, 1, 2)
        store = _group_store(group, [12])
        lookup = lambda s, t: store[(s, t)]  # noqa: E731
        pkt = encode_packet(0, group, lookup)
        want = pkt.length_for(1)
        with pytest.raises(CodingError):
            decode_segment_into(1, pkt, lookup, memoryview(bytearray(want + 1)))
        good = bytearray(want)
        decode_segment_into(1, pkt, lookup, memoryview(good))
        # Receiver 1's segment of I^1_{(0,2)}, the one sender 0 holds.
        subset = without(group, 1)
        assert good == segment_of(store[(subset, 1)], subset, 0)


class _PartsRoundtrip(NodeProgram):
    """Rank 0 gather-sends batches; rank 1 receives copy=False and echoes."""

    STAGES = ["xfer"]

    def __init__(self, comm, nrecords):
        super().__init__(comm)
        self.nrecords = nrecords

    def run(self):
        with self.stage("xfer"):
            if self.rank == 0:
                batch = teragen(self.nrecords, seed=42)
                self.comm.send(1, 5, pack_batches_parts([(3, batch)]))
                echoed = self.comm.recv(1, 6)
                return {"match": echoed == pack_batches([(3, batch)])}
            buf = self.comm.recv(0, 5, copy=False)
            items = unpack_batches(buf, copy=False)
            out = {
                "is_view": isinstance(buf, memoryview),
                "tags": [t for t, _ in items],
                "lens": [len(b) for _, b in items],
            }
            self.comm.send(0, 6, bytes(buf))
            return out


@pytest.mark.parametrize("backend", ["thread", "process"])
@pytest.mark.parametrize("nrecords", [40, 30_000])
def test_gather_send_recv_view_roundtrip(backend, nrecords):
    """Vectored parts send + copy=False receive, small and large.

    30k records (~3 MB) are one frame in a pooled slab arena; 40 records
    land in a plain buffer.
    """
    def factory(comm):
        return _PartsRoundtrip(comm, nrecords)

    if backend == "thread":
        cluster = connect("inproc://2", timeout=60.0)
    else:
        cluster = connect("proc://2", timeout=60.0)
    res = cluster.run(factory)
    assert res.results[0] == {"match": True}
    assert res.results[1]["tags"] == [3]
    assert res.results[1]["lens"] == [nrecords]
    assert res.results[1]["is_view"]


class _ArenaReuseSender(NodeProgram):
    """A completed blocking send must not alias the caller's mutable buffer."""

    STAGES = ["xfer"]

    def run(self):
        n = 50_000
        with self.stage("xfer"):
            if self.rank == 0:
                arena = bytearray(b"A" * n)
                self.comm.send(1, 9, arena)
                arena[:] = b"B" * n  # reuse the arena immediately
                self.comm.barrier()
                return None
            self.comm.barrier()  # pop only after the sender mutated
            got = self.comm.recv(0, 9, copy=False)
            return bytes(got) == b"A" * n


def test_inproc_blocking_send_does_not_alias_mutable_buffer():
    res = connect("inproc://2", timeout=30.0).run(_ArenaReuseSender)
    assert res.results[1] is True


class TestMergeSortedKWay:
    def test_many_runs_equal_concat_sort(self):
        b = teragen(1000, seed=11)
        cuts = [0, 130, 131, 400, 401, 650, 1000]
        runs = [
            sort_batch(b.slice(lo, hi)) for lo, hi in zip(cuts, cuts[1:])
        ]
        assert merge_sorted(runs) == sort_batch(b)

    def test_tie_stability_across_runs(self):
        # Equal keys must come out in run order (stable merge), matching a
        # stable sort of the concatenation.
        def run_with_value(v):
            keys = np.zeros((2, KEY_BYTES), dtype=np.uint8)
            values = np.zeros((2, VALUE_BYTES), dtype=np.uint8)
            values[:, 0] = v
            return RecordBatch.from_arrays(keys, values)

        runs = [run_with_value(v) for v in (10, 20, 30)]
        merged = merge_sorted(runs)
        assert list(merged.raw_view()[:, KEY_BYTES]) == [10, 10, 20, 20, 30, 30]

    def test_single_run_passthrough(self):
        b = sort_batch(teragen(50, seed=12))
        assert merge_sorted([b]) == b

    def test_keys_with_embedded_nulls(self):
        # NUL-heavy keys: padded S10 comparison must still realize exact
        # 10-byte lexicographic order.
        rng = np.random.default_rng(13)
        raw = rng.integers(0, 256, size=(300, KEY_BYTES), dtype=np.uint8)
        raw[::3, 4:] = 0
        raw[::5, :2] = 0
        values = np.zeros((300, VALUE_BYTES), dtype=np.uint8)
        b = RecordBatch.from_arrays(raw, values)
        runs = [sort_batch(b.slice(0, 100)), sort_batch(b.slice(100, 300))]
        assert merge_sorted(runs) == sort_batch(b)
