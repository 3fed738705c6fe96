"""Tests for the balanced-workload closed forms (the model's inputs)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.theory import (
    coded_multicast_count,
    coded_packet_bytes,
    coded_shuffle_bytes,
    uncoded_shuffle_bytes,
    uncoded_shuffle_messages,
)
from repro.sim.workload import CodedWorkload, UncodedWorkload
from repro.utils.subsets import binomial


class TestUncodedWorkload:
    W = UncodedWorkload(num_nodes=16, n_records=120_000_000)

    def test_totals(self):
        assert self.W.total_bytes == 12e9
        assert self.W.pairs_per_node == 7.5e6

    def test_unicast_size_and_count(self):
        assert self.W.unicast_bytes == pytest.approx(12e9 / 256)
        assert self.W.num_unicasts == uncoded_shuffle_messages(16)

    def test_total_shuffle_volume_matches_theory(self):
        total = self.W.unicast_bytes * self.W.num_unicasts
        assert total == pytest.approx(uncoded_shuffle_bytes(12e9, 16))

    def test_pack_equals_unpack(self):
        assert self.W.pack_bytes_per_node == self.W.unpack_bytes_per_node

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            UncodedWorkload(num_nodes=0, n_records=100)
        with pytest.raises(ValueError, match="n_records"):
            UncodedWorkload(num_nodes=4, n_records=-1)
        UncodedWorkload(num_nodes=1, n_records=0)  # the empty job is fine


class TestCodedWorkload:
    W = CodedWorkload(num_nodes=16, redundancy=3, n_records=120_000_000)

    def test_structure_counts(self):
        assert self.W.num_files == binomial(16, 3) == 560
        assert self.W.files_per_node == binomial(15, 2) == 105
        assert self.W.num_groups == binomial(16, 4) == 1820
        assert self.W.groups_per_node == binomial(15, 3) == 455

    def test_packet_bytes_matches_theory(self):
        assert self.W.packet_bytes == pytest.approx(
            coded_packet_bytes(12e9, 3, 16)
        )

    def test_total_multicasts_matches_theory(self):
        assert self.W.total_multicasts == coded_multicast_count(3, 16)

    def test_shuffle_payload_matches_eq2(self):
        assert self.W.shuffle_payload_total == pytest.approx(
            coded_shuffle_bytes(12e9, 3, 16)
        )

    def test_map_pairs_scale_with_r(self):
        assert self.W.map_pairs_per_node == pytest.approx(3 * 7.5e6)

    def test_invalid_redundancy(self):
        with pytest.raises(ValueError):
            CodedWorkload(num_nodes=4, redundancy=4, n_records=100)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            CodedWorkload(num_nodes=0, redundancy=1, n_records=100)
        with pytest.raises(ValueError, match="n_records"):
            CodedWorkload(num_nodes=4, redundancy=2, n_records=-1)

    @given(st.integers(2, 24), st.data())
    def test_conservation_properties(self, k, data):
        """Cross-identities hold for all (K, r)."""
        r = data.draw(st.integers(1, k - 1))
        w = CodedWorkload(num_nodes=k, redundancy=r, n_records=1_000_000)
        # Every node's multicasts x K nodes == total multicasts.
        assert w.multicasts_per_node * k == w.total_multicasts * 1
        # Files x replication == per-node files x K.
        assert w.num_files * r == w.files_per_node * k
        # Decode recovers exactly what the node did not map:
        # (N - C(K-1,r-1)) files x one intermediate each.
        missing_files = w.num_files - w.files_per_node
        assert w.groups_per_node == missing_files
        # Shuffle payload == Eq. (2) load x dataset bytes.
        from repro.core.theory import coded_comm_load

        assert w.shuffle_payload_total == pytest.approx(
            coded_comm_load(r, k) * w.total_bytes
        )
