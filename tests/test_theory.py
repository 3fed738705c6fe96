"""Tests for the closed-form loads and run-time model (Eqs. (2)-(5))."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.theory import (
    CodedWorkload,
    TimeModel,
    coded_comm_load,
    load_series,
    optimal_r,
    optimal_total_time,
    predicted_speedup,
    predicted_total_time,
    uncoded_comm_load,
)

#: The paper's 12 GB (§V-B).
PAPER_RECORDS = 120_000_000


class TestLoads:
    def test_eq2_values(self):
        # Fig. 1 example: K = 3, r = 2.
        assert uncoded_comm_load(1, 3) == pytest.approx(2 / 3)
        assert uncoded_comm_load(2, 3) == pytest.approx(1 / 3)
        assert coded_comm_load(2, 3) == pytest.approx(1 / 6)

    def test_coded_is_uncoded_over_r(self):
        for k in (4, 10, 16):
            for r in range(1, k + 1):
                assert coded_comm_load(r, k) == pytest.approx(
                    uncoded_comm_load(r, k) / r
                )

    def test_r_equals_k_no_communication(self):
        assert uncoded_comm_load(16, 16) == 0.0
        assert coded_comm_load(16, 16) == 0.0

    def test_load_series_shape(self):
        series = load_series(10)
        assert len(series) == 10
        rs = [r for r, _, _ in series]
        assert rs == list(range(1, 11))
        # Both loads decrease in r.
        unc = [u for _, u, _ in series]
        cod = [c for _, _, c in series]
        assert unc == sorted(unc, reverse=True)
        assert cod == sorted(cod, reverse=True)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            uncoded_comm_load(0, 4)
        with pytest.raises(ValueError):
            coded_comm_load(5, 4)

    @given(st.integers(2, 30), st.data())
    def test_coded_gain_is_exactly_r(self, k, data):
        r = data.draw(st.integers(1, k))
        u = uncoded_comm_load(r, k)
        c = coded_comm_load(r, k)
        if u > 0:
            assert u / c == pytest.approx(r)


class TestTimeModel:
    MODEL = TimeModel(t_map=1.86, t_shuffle=945.72, t_reduce=10.47)

    def test_eq3_total(self):
        assert self.MODEL.total_uncoded == pytest.approx(958.05)

    def test_eq4_prediction(self):
        t = predicted_total_time(self.MODEL, 3, 16)
        assert t == pytest.approx(3 * 1.86 + 945.72 / 3 + 10.47)

    def test_paper_r_star_23_unclamped(self):
        """§III-B: r* = ceil(sqrt(945.72 / 1.86)) = 23 before clamping."""
        cont = math.sqrt(self.MODEL.t_shuffle / self.MODEL.t_map)
        assert math.ceil(cont) == 23

    def test_r_star_clamped_to_k(self):
        assert optimal_r(self.MODEL, 16) == 16

    def test_r_star_interior(self):
        model = TimeModel(t_map=10.0, t_shuffle=90.0, t_reduce=1.0)
        # sqrt(9) = 3 exactly.
        assert optimal_r(model, 16) == 3

    def test_r_star_picks_better_neighbor(self):
        model = TimeModel(t_map=10.0, t_shuffle=125.0, t_reduce=0.0)
        # cont = sqrt(12.5) ~ 3.54; T(3) = 71.67, T(4) = 71.25 -> 4.
        assert optimal_r(model, 16) == 4

    def test_eq5_bound_below_any_integer_r(self):
        bound = optimal_total_time(self.MODEL)
        for r in range(1, 17):
            assert predicted_total_time(self.MODEL, r, 16) >= bound - 1e-9

    def test_speedup_at_r1_is_near_one(self):
        s = predicted_speedup(self.MODEL, 1, 16)
        assert s == pytest.approx(1.0)

    def test_zero_map_time_returns_k(self):
        model = TimeModel(t_map=0.0, t_shuffle=10.0, t_reduce=0.0)
        assert optimal_r(model, 8) == 8


class TestExactCounts:
    """Uncoded TeraSort is the :class:`CodedWorkload` view at r = 1."""

    def test_uncoded_messages(self):
        assert CodedWorkload(16, 1, 0).total_multicasts == 240
        assert CodedWorkload(20, 1, 0).total_multicasts == 380

    def test_uncoded_bytes(self):
        work = CodedWorkload(16, 1, PAPER_RECORDS)
        assert work.shuffle_payload_total == pytest.approx(11.25e9)

    def test_multicast_counts_match_paper_scale(self):
        assert CodedWorkload(16, 3, 0).total_multicasts == 1820 * 4
        assert CodedWorkload(20, 5, 0).total_multicasts == 38760 * 6

    def test_packet_bytes(self):
        # K=16, r=3: D/(N K r) with N = 560.
        assert CodedWorkload(16, 3, PAPER_RECORDS).packet_bytes == (
            pytest.approx(12e9 / (560 * 16 * 3))
        )

    def test_shuffle_bytes_equals_load_times_data(self):
        for k, r in ((16, 3), (16, 5), (20, 3), (20, 5), (8, 2)):
            work = CodedWorkload(k, r, PAPER_RECORDS)
            assert work.shuffle_payload_total == pytest.approx(
                coded_comm_load(r, k) * 12e9
            )
