"""Tests for the RecordBatch substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvpairs.records import (
    KEY_BYTES,
    RECORD_BYTES,
    RECORD_DTYPE,
    VALUE_BYTES,
    RecordBatch,
)
from repro.kvpairs.teragen import teragen
from repro.utils.slabs import SLAB_MIN


def make_batch(keys_bytes):
    """Batch with given key byte rows and zero values."""
    n = len(keys_bytes)
    keys = np.array(keys_bytes, dtype=np.uint8).reshape(n, KEY_BYTES)
    values = np.zeros((n, VALUE_BYTES), dtype=np.uint8)
    return RecordBatch.from_arrays(keys, values)


class TestConstruction:
    def test_record_layout(self):
        assert RECORD_DTYPE.itemsize == RECORD_BYTES == 100
        assert KEY_BYTES == 10 and VALUE_BYTES == 90

    def test_empty(self):
        b = RecordBatch.empty()
        assert len(b) == 0 and b.nbytes == 0

    def test_from_arrays_uint8(self):
        b = make_batch([[i] * KEY_BYTES for i in range(3)])
        assert len(b) == 3
        # raw_view is authoritative: numpy strips trailing NULs when
        # extracting S10 elements, but the stored bytes are intact.
        assert bytes(b.raw_view()[0, :KEY_BYTES]) == bytes([0] * KEY_BYTES)
        assert bytes(b.raw_view()[1, :KEY_BYTES]) == bytes([1] * KEY_BYTES)

    def test_from_arrays_length_mismatch(self):
        keys = np.zeros((2, KEY_BYTES), dtype=np.uint8)
        values = np.zeros((3, VALUE_BYTES), dtype=np.uint8)
        with pytest.raises(ValueError):
            RecordBatch.from_arrays(keys, values)

    def test_from_arrays_bad_width(self):
        with pytest.raises(ValueError):
            RecordBatch.from_arrays(
                np.zeros((2, 9), dtype=np.uint8),
                np.zeros((2, VALUE_BYTES), dtype=np.uint8),
            )

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            RecordBatch(np.zeros(3, dtype=np.int64))

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError):
            RecordBatch(np.zeros((2, 2), dtype=RECORD_DTYPE))


class TestKeyDecomposition:
    def test_key_words_values(self):
        # key = 8 bytes of 0x01 then 0x02 0x03
        b = make_batch([[1] * 8 + [2, 3]])
        hi, lo = b.key_words()
        assert hi[0] == int.from_bytes(bytes([1] * 8), "big")
        assert lo[0] == (2 << 8) | 3

    def test_key_words_empty(self):
        hi, lo = RecordBatch.empty().key_words()
        assert len(hi) == 0 and len(lo) == 0

    def test_key_prefix_matches_hi(self):
        b = make_batch([[9] * 10, [1] * 10])
        assert (b.key_prefix_u64() == b.key_words()[0]).all()

    def test_lexsort_matches_python_byte_order(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 256, size=(200, KEY_BYTES), dtype=np.uint8)
        b = RecordBatch.from_arrays(
            keys, np.zeros((200, VALUE_BYTES), dtype=np.uint8)
        )
        hi, lo = b.key_words()
        order = np.lexsort((lo, hi))
        sorted_keys = [bytes(keys[i]) for i in order]
        assert sorted_keys == sorted(bytes(k) for k in keys)


class TestTransforms:
    def test_concat_preserves_order(self, tiny_batch):
        a = tiny_batch.slice(0, 100)
        b = tiny_batch.slice(100, 500)
        assert RecordBatch.concat([a, b]) == tiny_batch

    def test_concat_empty_list(self):
        assert len(RecordBatch.concat([])) == 0

    def test_split_at_roundtrip(self, tiny_batch):
        parts = tiny_batch.split_at([100, 250])
        assert [len(p) for p in parts] == [100, 150, 250]
        assert RecordBatch.concat(parts) == tiny_batch

    def test_take(self, tiny_batch):
        idx = np.array([5, 3, 1])
        taken = tiny_batch.take(idx)
        assert len(taken) == 3
        assert taken.keys[0] == tiny_batch.keys[5]

    @pytest.mark.parametrize(
        "make",
        [
            lambda b: RecordBatch.from_buffer(b.to_bytes()),
            lambda b: RecordBatch(b.array[::2]),
            lambda b: RecordBatch.from_buffer(
                memoryview(b"\0" + b.to_bytes())[1:]
            ),
        ],
        ids=["read-only", "strided", "unaligned"],
    )
    def test_take_and_scatter_on_views(self, tiny_batch, make):
        """Whole-item moves read any source layout and own their result."""
        src = make(tiny_batch)
        idx = np.random.default_rng(0).permutation(len(src))
        taken = src.take(idx)
        assert taken.array.tobytes() == src.array[idx].tobytes()
        assert taken.array.flags.writeable
        assert not np.shares_memory(taken.array, src.array)
        assert np.array_equal(src.key_prefix_u64(), src.copy().key_words()[0])
        back = RecordBatch._scattered(len(src), [(idx, taken)])
        assert back == src
        halves = RecordBatch._scattered(
            len(src),
            [(idx[:100], src.slice(0, 100)),
             (idx[100:], src.slice(100, len(src)))],
        )
        assert halves.take(idx) == src

    def test_take_index_edge_cases(self, tiny_batch):
        n = len(tiny_batch)
        assert len(tiny_batch.take(np.array([], dtype=np.int64))) == 0
        assert len(RecordBatch.empty().take(np.array([], dtype=np.int64))) == 0
        neg = tiny_batch.take(np.array([-1, -n]))
        assert neg == tiny_batch.take(np.array([n - 1, 0]))
        assert tiny_batch.take([2, 1]) == tiny_batch.take(np.array([2, 1]))
        for bad in ([n], [-n - 1], [0, n + 5]):
            with pytest.raises(IndexError):
                tiny_batch.take(np.array(bad))

    def test_take_index_edge_cases_of_a_pooled_gather(self):
        batch = teragen(12_000, seed=4)
        n, m = len(batch), SLAB_MIN // RECORD_BYTES + 1
        neg = batch.take(np.arange(-m, 0))
        assert neg == batch.take(np.arange(n - m, n))
        mixed = np.arange(m) - m // 2
        wrapped = np.where(mixed < 0, mixed + n, mixed)
        assert batch.take(mixed) == batch.take(wrapped)
        for bad in (n, -n - 1):
            idx = np.zeros(m, dtype=np.int64)
            idx[-1] = bad
            with pytest.raises(IndexError):
                batch.take(idx)

    def test_take_rejects_boolean_mask(self, tiny_batch):
        mask = np.zeros(len(tiny_batch), dtype=bool)
        mask[3] = True
        with pytest.raises(TypeError, match="boolean mask"):
            tiny_batch.take(mask)
        assert tiny_batch.take(np.flatnonzero(mask)) == tiny_batch.slice(3, 4)

    def test_equality(self, tiny_batch):
        assert tiny_batch == tiny_batch.copy()
        assert tiny_batch != tiny_batch.slice(0, 10)
        assert (tiny_batch == object()) is False or True  # NotImplemented path

    def test_raw_view_shape(self, tiny_batch):
        raw = tiny_batch.raw_view()
        assert raw.shape == (len(tiny_batch), RECORD_BYTES)


class TestBytesRoundtrip:
    def test_roundtrip(self, tiny_batch):
        assert RecordBatch.from_bytes(tiny_batch.to_bytes()) == tiny_batch

    def test_empty_roundtrip(self):
        assert RecordBatch.from_bytes(b"") == RecordBatch.empty()

    def test_bad_length_raises(self):
        with pytest.raises(ValueError):
            RecordBatch.from_bytes(b"x" * 150)

    @given(st.integers(0, 50))
    def test_roundtrip_random_sizes(self, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 256, size=(n, KEY_BYTES), dtype=np.uint8)
        values = rng.integers(0, 256, size=(n, VALUE_BYTES), dtype=np.uint8)
        b = RecordBatch.from_arrays(keys, values)
        assert RecordBatch.from_bytes(b.to_bytes()) == b
