"""Tests for Algorithm 2 — the encode/decode round trip.

The central correctness property of the whole paper: within any multicast
group ``M``, after every member multicasts its coded packet, every member
recovers exactly the intermediate value it was missing.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decoding import decode_segment_into, recover_intermediate
from repro.core.encoding import CodedPacket, CodingError, encode_packet
from repro.utils.subsets import k_subsets, without


def build_group_store(group, rng_seed=0, sizes=None):
    """Global store: (subset = M\\{t}, target = t) -> deterministic bytes."""
    import random

    rng = random.Random(rng_seed)
    store = {}
    for i, t in enumerate(group):
        subset = without(group, t)
        size = sizes[i] if sizes is not None else rng.randint(0, 64)
        store[(subset, t)] = bytes(rng.randrange(256) for _ in range(size))
    return store


def run_group_roundtrip(group, store):
    """Encode at every member, decode at every member, compare to store."""
    lookup = lambda s, t: store[(s, t)]  # noqa: E731
    packets = {k: encode_packet(k, group, lookup) for k in group}
    for receiver in group:
        received = {u: packets[u] for u in group if u != receiver}
        recovered = recover_intermediate(receiver, group, received, lookup)
        expected = store[(without(group, receiver), receiver)]
        assert recovered == expected, (
            f"receiver {receiver} in group {group} recovered wrong bytes"
        )


class TestRoundTripBasic:
    def test_paper_example_group(self):
        """The Fig. 6/7 scenario: r=2, M={0,1,2}."""
        group = (0, 1, 2)
        store = build_group_store(group, sizes=[10, 10, 10])
        run_group_roundtrip(group, store)

    def test_unequal_sizes_zero_padding(self):
        group = (0, 1, 2)
        store = build_group_store(group, sizes=[31, 2, 17])
        run_group_roundtrip(group, store)

    def test_empty_values(self):
        group = (0, 1, 2)
        store = build_group_store(group, sizes=[0, 0, 0])
        run_group_roundtrip(group, store)

    def test_mixed_empty_and_nonempty(self):
        group = (1, 4, 6)
        store = build_group_store(group, sizes=[0, 25, 7])
        run_group_roundtrip(group, store)

    def test_r1_group(self):
        """r = 1: two-member groups degenerate to framed unicast."""
        group = (2, 5)
        store = build_group_store(group, sizes=[13, 4])
        run_group_roundtrip(group, store)

    def test_large_group(self):
        group = tuple(range(7))  # r = 6
        store = build_group_store(group, rng_seed=3)
        run_group_roundtrip(group, store)


class TestRoundTripProperty:
    @settings(max_examples=40)
    @given(st.data())
    def test_any_group_any_sizes(self, data):
        k = data.draw(st.integers(2, 8), label="K")
        group_size = data.draw(st.integers(2, k), label="r+1")
        members = tuple(sorted(data.draw(
            st.lists(
                st.integers(0, k - 1),
                min_size=group_size,
                max_size=group_size,
                unique=True,
            ),
            label="group",
        )))
        sizes = data.draw(
            st.lists(
                st.integers(0, 97),
                min_size=group_size,
                max_size=group_size,
            ),
            label="sizes",
        )
        seed = data.draw(st.integers(0, 1000), label="seed")
        store = build_group_store(members, rng_seed=seed, sizes=sizes)
        run_group_roundtrip(members, store)


class TestDecodeAllGroups:
    def test_recovers_all_missing_subsets(self):
        """Full-node view: decode every group containing the node (K=5, r=2)."""
        k, r = 5, 2
        # Global store over all (subset, target) pairs with target outside.
        import random

        rng = random.Random(1)
        store = {}
        for subset in k_subsets(k, r):
            for t in range(k):
                if t not in subset:
                    store[(subset, t)] = bytes(
                        rng.randrange(256) for _ in range(rng.randint(1, 40))
                    )
        lookup = lambda s, t: store[(s, t)]  # noqa: E731
        receiver = 0
        packets_by_group = {}
        for group in k_subsets(k, r + 1):
            if receiver not in group:
                continue
            packets_by_group[group] = {
                u: encode_packet(u, group, lookup)
                for u in group
                if u != receiver
            }
        decoded = {
            without(group, receiver): recover_intermediate(
                receiver, group, packets, lookup
            )
            for group, packets in packets_by_group.items()
        }
        expected_subsets = {
            s for s in k_subsets(k, r) if receiver not in s
        }
        assert set(decoded) == expected_subsets
        for subset, value in decoded.items():
            assert value == store[(subset, receiver)]


class TestErrorPaths:
    def _packets(self):
        group = (0, 1, 2)
        store = build_group_store(group, sizes=[8, 8, 8])
        lookup = lambda s, t: store[(s, t)]  # noqa: E731
        packets = {k: encode_packet(k, group, lookup) for k in group}
        return group, store, lookup, packets

    def test_decode_own_packet_rejected(self):
        group, _, lookup, packets = self._packets()
        # The packet addresses no segment to its sender (nor to a node
        # outside the group), so no slice size exists; the check comes
        # before the slice is looked at.
        with pytest.raises(CodingError, match="own packet"):
            decode_segment_into(0, packets[0], lookup, memoryview(bytearray()))

    def test_receiver_outside_group_rejected(self):
        group, _, lookup, packets = self._packets()
        with pytest.raises(CodingError, match="not in group"):
            decode_segment_into(7, packets[0], lookup, memoryview(bytearray()))

    def test_missing_packet_detected(self):
        group, _, lookup, packets = self._packets()
        with pytest.raises(CodingError, match="missing packet"):
            recover_intermediate(0, group, {1: packets[1]}, lookup)

    def test_wrong_group_detected(self):
        group, store, lookup, packets = self._packets()
        other = encode_packet(
            1, (1, 2, 3),
            lambda s, t: build_group_store((1, 2, 3), sizes=[8, 8, 8])[(s, t)],
        )
        with pytest.raises(CodingError, match="group"):
            recover_intermediate(0, group, {1: other, 2: packets[2]}, lookup)

    def test_mislabeled_sender_detected(self):
        group, _, lookup, packets = self._packets()
        with pytest.raises(CodingError, match="sender"):
            recover_intermediate(0, group, {1: packets[2], 2: packets[1]}, lookup)

    def test_inconsistent_local_value_detected(self):
        """If a node's local map output diverges, decoding flags it."""
        group, store, lookup, packets = self._packets()
        bad_store = dict(store)
        # Receiver 0 peels I^1_{(0,2)} out of packets; corrupt its length.
        from repro.utils.subsets import without

        key = (without(group, 1), 1)
        bad_store[key] = store[key] + b"extra"
        bad_lookup = lambda s, t: bad_store[(s, t)]  # noqa: E731
        out = bytearray(packets[2].length_for(0))
        with pytest.raises(CodingError, match="length mismatch"):
            decode_segment_into(0, packets[2], bad_lookup, memoryview(out))
