"""Tests for the balanced-workload closed forms (the model's inputs).

Uncoded TeraSort is the view at ``r = 1``."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.theory import CodedWorkload, coded_comm_load
from repro.utils.subsets import binomial


class TestUncodedWorkload:
    W = CodedWorkload(num_nodes=16, redundancy=1, n_records=120_000_000)

    def test_totals(self):
        assert self.W.total_bytes == 12e9
        assert self.W.map_pairs_per_node == 7.5e6
        assert self.W.reduce_pairs_per_node == 7.5e6

    def test_unicast_size_and_count(self):
        assert self.W.packet_bytes == pytest.approx(12e9 / 256)
        assert self.W.total_multicasts == 16 * 15  # K (K-1) unicasts

    def test_total_shuffle_volume_matches_theory(self):
        total = self.W.packet_bytes * self.W.total_multicasts
        assert total == pytest.approx(12e9 * 15 / 16)  # D (K-1)/K
        assert self.W.shuffle_payload_total == pytest.approx(12e9 * 15 / 16)

    def test_pack_equals_unpack(self):
        assert (
            self.W.encode_serialize_bytes_per_node
            == self.W.decode_recovered_bytes_per_node
        )

    def test_invalid_sizes(self):
        with pytest.raises(ValueError, match="num_nodes"):
            CodedWorkload(num_nodes=0, redundancy=1, n_records=100)
        with pytest.raises(ValueError, match="n_records"):
            CodedWorkload(num_nodes=4, redundancy=1, n_records=-1)
        # The empty job is fine, and r = 1 at K = 1 too.
        CodedWorkload(num_nodes=1, redundancy=1, n_records=0)


class TestCodedWorkload:
    W = CodedWorkload(num_nodes=16, redundancy=3, n_records=120_000_000)

    def test_structure_counts(self):
        assert self.W.num_files == binomial(16, 3) == 560
        assert self.W.files_per_node == binomial(15, 2) == 105
        assert self.W.num_groups == binomial(16, 4) == 1820
        assert self.W.groups_per_node == binomial(15, 3) == 455

    def test_packet_bytes_matches_theory(self):
        # D / (N K r) with N = C(16, 3) = 560.
        assert self.W.packet_bytes == pytest.approx(12e9 / (560 * 16 * 3))

    def test_total_multicasts_matches_theory(self):
        assert self.W.total_multicasts == 1820 * 4  # C(16, 4) (r+1)

    def test_shuffle_payload_matches_eq2(self):
        assert self.W.shuffle_payload_total == pytest.approx(
            coded_comm_load(3, 16) * 12e9
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
        assert w.shuffle_payload_total == pytest.approx(
            coded_comm_load(r, k) * w.total_bytes
        )
