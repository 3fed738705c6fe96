"""Tests for the Pack/Unpack wire format."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvpairs.records import RecordBatch
from repro.kvpairs.serialization import (
    SerializationError,
    pack_batch,
    pack_batches,
    unpack_batch,
    unpack_batches,
    unpack_batches_dict,
)
from repro.kvpairs.teragen import teragen


class TestSingleFrame:
    def test_roundtrip(self, tiny_batch):
        tag, out = unpack_batch(pack_batch(tiny_batch, tag=9))
        assert tag == 9 and out == tiny_batch

    def test_empty_batch(self):
        tag, out = unpack_batch(pack_batch(RecordBatch.empty(), tag=1))
        assert tag == 1 and len(out) == 0

    def test_bad_magic(self, tiny_batch):
        buf = bytearray(pack_batch(tiny_batch))
        buf[0] = ord("X")
        with pytest.raises(SerializationError):
            unpack_batch(bytes(buf))

    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            unpack_batch(b"CTS1\x00")

    def test_truncated_payload(self, tiny_batch):
        buf = pack_batch(tiny_batch)
        with pytest.raises(SerializationError):
            unpack_batch(buf[:-1])

    def test_trailing_bytes_rejected(self, tiny_batch):
        buf = pack_batch(tiny_batch) + b"zz"
        with pytest.raises(SerializationError):
            unpack_batch(buf)

    def test_non_record_multiple_payload(self):
        # Header claims 50 bytes (not a multiple of 100).
        import struct

        buf = struct.pack("<4sQQ", b"CTS1", 0, 50) + b"x" * 50
        with pytest.raises(SerializationError):
            unpack_batch(buf)


class TestFrameSequences:
    def test_multi_roundtrip(self):
        batches = [(i, teragen(i * 3, seed=i)) for i in range(4)]
        out = unpack_batches(pack_batches(batches))
        assert len(out) == 4
        for (tag_a, b_a), (tag_b, b_b) in zip(batches, out):
            assert tag_a == tag_b and b_a == b_b

    def test_empty_buffer(self):
        assert unpack_batches(b"") == []

    def test_dict_view(self):
        batches = [(5, teragen(2, seed=0)), (9, teragen(3, seed=1))]
        d = unpack_batches_dict(pack_batches(batches))
        assert set(d) == {5, 9}
        assert len(d[9]) == 3

    def test_dict_duplicate_tag_rejected(self):
        batches = [(5, teragen(2, seed=0)), (5, teragen(3, seed=1))]
        with pytest.raises(SerializationError):
            unpack_batches_dict(pack_batches(batches))

    def test_garbage_mid_sequence(self, tiny_batch):
        buf = pack_batch(tiny_batch) + b"garbage-that-is-not-a-frame!"
        with pytest.raises(SerializationError):
            unpack_batches(buf)

    @given(st.lists(st.integers(0, 20), max_size=6))
    def test_roundtrip_property(self, sizes):
        batches = [
            (i, teragen(n, seed=i * 7 + 1)) for i, n in enumerate(sizes)
        ]
        out = unpack_batches(pack_batches(batches))
        assert [(t, len(b)) for t, b in out] == [
            (i, n) for i, n in enumerate(sizes)
        ]
        for (_, a), (_, b) in zip(batches, out):
            assert a == b
