"""End-to-end tests for wireless distributed sorting ([24]/[25] setting)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.theory import CodedWorkload, coded_comm_load, uncoded_comm_load
from repro.experiments.figures import wireless_protocols
from repro.kvpairs.teragen import teragen, teragen_skewed
from repro.kvpairs.validation import validate_sorted_permutation
from repro.wireless.channel import WirelessChannel
from repro.wireless.wdc import RELAY_FACTOR, run_wireless_sort


class TestValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_wireless_sort(teragen(100), 4, 2, protocol="csma")

    def test_bad_redundancy(self):
        with pytest.raises(ValueError):
            run_wireless_sort(teragen(100), 4, 4)
        with pytest.raises(ValueError):
            run_wireless_sort(teragen(100), 4, 0)

    def test_channel_size_mismatch(self):
        with pytest.raises(ValueError):
            run_wireless_sort(
                teragen(100), 4, 2, channel=WirelessChannel(6)
            )

    def test_grouped_requires_d2d(self):
        with pytest.raises(ValueError):
            run_wireless_sort(
                teragen(100), 8, 2, protocol="edge", group_size=4
            )

    def test_grouped_bad_r(self):
        with pytest.raises(ValueError):
            run_wireless_sort(teragen(100), 8, 4, group_size=4)


class TestCorrectness:
    @pytest.mark.parametrize("protocol", ["uncoded", "d2d", "edge"])
    def test_sorts_correctly(self, protocol):
        data = teragen(6000, seed=1)
        out = run_wireless_sort(data, 5, 2, protocol=protocol)
        validate_sorted_permutation(data, out.partitions)

    def test_grouped_sorts_correctly(self):
        data = teragen(8000, seed=2)
        out = run_wireless_sort(data, 8, 2, group_size=4)
        validate_sorted_permutation(data, out.partitions)

    def test_skewed_keys(self):
        data = teragen_skewed(5000, seed=3)
        out = run_wireless_sort(data, 4, 2, protocol="d2d")
        validate_sorted_permutation(data, out.partitions)

    def test_empty_input(self):
        out = run_wireless_sort(teragen(0), 4, 2, protocol="d2d")
        assert sum(len(p) for p in out.partitions) == 0
        assert out.shuffle_load() == 0.0

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data_obj=st.data())
    def test_sort_property_all_protocols(self, data_obj):
        k = data_obj.draw(st.integers(2, 6))
        r = data_obj.draw(st.integers(1, k - 1))
        n = data_obj.draw(st.integers(0, 1500))
        protocol = data_obj.draw(st.sampled_from(["uncoded", "d2d", "edge"]))
        data = teragen(n, seed=data_obj.draw(st.integers(0, 50)))
        out = run_wireless_sort(data, k, r, protocol=protocol)
        validate_sorted_permutation(data, out.partitions)


class TestAirtimeLoads:
    @pytest.mark.parametrize(
        "k,protocol,g,nbytes,transmissions",
        [
            (6, "d2d", None, 688_140, {"d2d": 60}),
            (6, "edge", None, 1_376_280, {"uplink": 60, "downlink": 60}),
            (6, "uncoded", None, 2_658_600, {"uplink": 60, "downlink": 60}),
            (8, "d2d", 4, 511_696, {"d2d": 24}),
        ],
    )
    def test_airtime_pinned_from_the_sequential_bodies(
        self, k, protocol, g, nbytes, transmissions
    ):
        """The live run replayed on the channel spends exactly the air
        the deleted in-process sessions did, in a thread-race-free order."""
        data = teragen(20_000, seed=5)
        first, again = [
            run_wireless_sort(
                data, k, 2, protocol=protocol, group_size=g,
                channel=WirelessChannel(k),
            )
            for _ in range(2)
        ]
        validate_sorted_permutation(data, first.partitions)
        assert first.airtime.total_bytes == nbytes
        assert first.airtime.transmissions == transmissions
        assert again.airtime.airtime_s == first.airtime.airtime_s

    def test_replay_is_in_schedule_order(self):
        """Turn by turn (sender member index, then multicast group), the
        node-disjoint coding groups interleaved within a turn."""
        channel = WirelessChannel(8)
        run_wireless_sort(teragen(2000, seed=1), 8, 2, group_size=4, channel=channel)
        senders = [src for src, _, _, _ in channel.trace]
        assert senders == [
            4 * j + m for m in range(4) for _ in range(3) for j in range(2)
        ]
        for src, receivers, direction, _ in channel.trace:
            assert direction == "d2d" and len(receivers) == 2
            assert {n // 4 for n in (src, *receivers)} == {src // 4}

    def test_d2d_matches_theory(self):
        n = 30_000
        data = teragen(n, seed=4)
        out = run_wireless_sort(data, 6, 2, protocol="d2d")
        ideal = RELAY_FACTOR["d2d"] * coded_comm_load(2, 6)
        assert out.shuffle_load() == pytest.approx(ideal, rel=0.10)
        assert out.shuffle_load() >= ideal  # headers only add

    def test_edge_doubles_d2d(self):
        n = 20_000
        data = teragen(n, seed=5)
        d2d = run_wireless_sort(data, 6, 2, protocol="d2d")
        edge = run_wireless_sort(data, 6, 2, protocol="edge")
        assert edge.shuffle_load() == pytest.approx(
            2 * d2d.shuffle_load(), rel=0.01
        )
        # Edge relays every packet through the AP: twice the tx count.
        assert (
            edge.airtime.total_transmissions
            == 2 * d2d.airtime.total_transmissions
        )

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_protocol_loads_at_every_r(self, r):
        """Each protocol near its closed form; D2D strictly wins; edge <=
        uncoded, equal at r = 1 where both fly every value twice (headers
        add ~0.1%)."""
        rows = wireless_protocols(6, r, n_records=12_000).rows
        load = {protocol: measured for protocol, _, measured, _, _ in rows}
        theory = {protocol: closed for protocol, _, _, closed, _ in rows}
        assert load["uncoded"] == pytest.approx(theory["uncoded"], rel=0.08)
        assert load["d2d"] == pytest.approx(theory["d2d"], rel=0.15, abs=0.01)
        assert load["edge"] == pytest.approx(theory["edge"], rel=0.15, abs=0.02)
        assert load["d2d"] < load["edge"] <= load["uncoded"] * 1.01

    def test_uncoded_matches_theory(self):
        n = 30_000
        data = teragen(n, seed=6)
        out = run_wireless_sort(data, 6, 2, protocol="uncoded")
        assert out.shuffle_load() == pytest.approx(
            RELAY_FACTOR["uncoded"] * uncoded_comm_load(2, 6), rel=0.05
        )

    def test_coded_gain_is_2r(self):
        """D2D coded airtime ~ uncoded / 2r (the headline saving)."""
        n = 30_000
        data = teragen(n, seed=7)
        uncoded = run_wireless_sort(data, 6, 3, protocol="uncoded")
        coded = run_wireless_sort(data, 6, 3, protocol="d2d")
        gain = uncoded.shuffle_load() / coded.shuffle_load()
        assert gain == pytest.approx(2 * 3, rel=0.10)

    def test_grouped_load_independent_of_k(self):
        """[24]'s scalability: more users, same airtime per byte."""
        n = 24_000
        loads = []
        for k in (4, 8, 12):
            data = teragen(n, seed=8)
            out = run_wireless_sort(data, k, 2, group_size=4)
            loads.append(out.shuffle_load())
        ideal = RELAY_FACTOR["d2d"] * coded_comm_load(2, 4)  # g = 4
        for load in loads:
            assert load == pytest.approx(ideal, rel=0.10)
        # Flat within measurement noise (packet headers shrink with
        # per-cell size, which varies slightly with K).
        assert max(loads) - min(loads) < 0.05 * ideal + 0.02

    def test_plain_coded_load_grows_with_k(self):
        """Contrast: un-grouped D2D load grows toward 1/r as K grows."""
        n = 24_000
        small = run_wireless_sort(teragen(n, seed=9), 4, 2, protocol="d2d")
        large = run_wireless_sort(teragen(n, seed=9), 12, 2, protocol="d2d")
        assert large.shuffle_load() > small.shuffle_load() * 1.3


class TestTheory:
    """A protocol's airtime load is its relay factor times Eq. (2)'s
    load; grouped D2D is that load at K -> g."""

    def test_closed_forms(self):
        uncoded, coded = uncoded_comm_load(2, 6), coded_comm_load(2, 6)
        assert RELAY_FACTOR["uncoded"] * uncoded == pytest.approx(4 / 3)
        assert RELAY_FACTOR["d2d"] * coded == pytest.approx(1 / 3)
        assert RELAY_FACTOR["edge"] * coded == pytest.approx(2 / 3)
        assert RELAY_FACTOR["d2d"] * coded_comm_load(2, 4) == (
            pytest.approx(0.25)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            uncoded_comm_load(0, 4)
        with pytest.raises(ValueError):
            coded_comm_load(5, 4)
        with pytest.raises(ValueError):
            CodedWorkload(4, 4, 0, group_size=4)  # grouped: r < g

    def test_grouped_equals_plain_at_g_equals_k(self):
        grouped = CodedWorkload(6, 2, 24_000, group_size=6)
        plain = CodedWorkload(6, 2, 24_000)
        assert grouped.shuffle_payload_total == pytest.approx(
            plain.shuffle_payload_total
        )
