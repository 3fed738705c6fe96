"""Tests for the conflict-free parallel shuffle schedules (§VI)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.groups import (
    build_coding_plan,
    round_schedule,
    unicast_round_schedule,
)
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import simulate_coded_terasort, simulate_terasort
from repro.sim.workload import UncodedWorkload


class TestCodedRoundSchedule:
    def test_covers_schedule_exactly_once(self):
        plan = build_coding_plan(8, 2)
        rounds = round_schedule(plan)
        flat = [item for rnd in rounds for item in rnd]
        assert sorted(flat) == sorted(plan.schedule)

    def test_rounds_are_node_disjoint(self):
        plan = build_coding_plan(10, 3)
        for rnd in round_schedule(plan):
            nodes = set()
            for gidx, _sender in rnd:
                members = set(plan.groups[gidx])
                assert not (nodes & members)
                nodes |= members

    def test_packing_quality(self):
        """Greedy packing should realize most of the K/(r+1) cap."""
        plan = build_coding_plan(16, 3)
        rounds = round_schedule(plan)
        avg = plan.total_multicasts / len(rounds)
        assert avg > 0.7 * (16 // 4)

    def test_deterministic(self):
        plan = build_coding_plan(8, 2)
        assert round_schedule(plan) == round_schedule(plan)

    def test_window_validation(self):
        plan = build_coding_plan(6, 2)
        with pytest.raises(ValueError):
            round_schedule(plan, window=0)

    def test_degenerate_single_slot(self):
        """K < 2(r+1): no two groups ever disjoint, one item per round."""
        plan = build_coding_plan(4, 2)  # groups of 3 from 4 nodes
        rounds = round_schedule(plan)
        assert all(len(rnd) == 1 for rnd in rounds)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_property_valid_packing(self, data):
        k = data.draw(st.integers(3, 10))
        r = data.draw(st.integers(1, min(k - 1, 4)))
        plan = build_coding_plan(k, r)
        rounds = round_schedule(plan)
        flat = [item for rnd in rounds for item in rnd]
        assert sorted(flat) == sorted(plan.schedule)
        for rnd in rounds:
            nodes = set()
            for gidx, sender in rnd:
                members = set(plan.groups[gidx])
                assert sender in members
                assert not (nodes & members)
                nodes |= members


class TestUnicastRoundSchedule:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_exact_all_to_all(self, k):
        rounds = unicast_round_schedule(k)
        pairs = [p for rnd in rounds for p in rnd]
        expected = {(a, b) for a in range(k) for b in range(k) if a != b}
        assert set(pairs) == expected
        assert len(pairs) == len(expected)  # no duplicates

    @pytest.mark.parametrize("k", [2, 4, 6, 16])
    def test_even_k_is_optimal(self, k):
        """Even K: 2(K-1) half-duplex sub-rounds, each a perfect matching."""
        rounds = unicast_round_schedule(k)
        assert len(rounds) == 2 * (k - 1)
        for rnd in rounds:
            assert len(rnd) == k // 2

    @pytest.mark.parametrize("k", [3, 5, 9])
    def test_odd_k_near_optimal(self, k):
        rounds = unicast_round_schedule(k)
        assert len(rounds) == 2 * k
        for rnd in rounds:
            assert len(rnd) == (k - 1) // 2

    def test_rounds_node_disjoint(self):
        for k in (4, 7, 12):
            for rnd in unicast_round_schedule(k):
                nodes = set()
                for a, b in rnd:
                    assert a != b
                    assert not ({a, b} & nodes)
                    nodes |= {a, b}

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            unicast_round_schedule(1)


class TestScheduleModesInSimulator:
    def test_unknown_schedule_rejected(self):
        for schedule in ("quantum", "parallel"):
            with pytest.raises(ValueError, match="'serial' or 'rounds'"):
                simulate_terasort(4, n_records=1000, schedule=schedule)
            with pytest.raises(ValueError, match="'serial' or 'rounds'"):
                simulate_coded_terasort(
                    4, 2, n_records=1000, schedule=schedule
                )

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_uncoded_rounds_are_a_one_factorization(self, k):
        """Even K: 2(K-1) half-duplex sub-rounds; odd K: 2K (one node
        sits each matching out), every sub-round one unicast long."""
        cost = EC2CostModel.paper_calibrated()
        rep = simulate_terasort(k, n_records=1_000_000, schedule="rounds")
        sub_rounds = 2 * (k - 1) if k % 2 == 0 else 2 * k
        unicast = cost.unicast_time(
            UncodedWorkload(num_nodes=k, n_records=1_000_000).unicast_bytes
        )
        assert rep.stage_times["shuffle"] == pytest.approx(
            sub_rounds * unicast, rel=1e-12
        )
        assert rep.meta["schedule"] == "rounds"

    def test_payload_identical_across_schedules(self):
        """Scheduling changes time, never bytes."""
        reps = [
            simulate_terasort(6, n_records=1_000_000, schedule=s)
            for s in ("serial", "rounds")
        ]
        payloads = {r.shuffle_payload_bytes for r in reps}
        assert len(payloads) == 1

    def test_coded_payload_identical_across_schedules(self):
        reps = [
            simulate_coded_terasort(6, 2, n_records=1_000_000, schedule=s)
            for s in ("serial", "rounds")
        ]
        payloads = {r.shuffle_payload_bytes for r in reps}
        assert len(payloads) == 1

    def test_rounds_beat_serial_wall_clock(self):
        serial = simulate_terasort(8, n_records=2_000_000, schedule="serial")
        rounds = simulate_terasort(8, n_records=2_000_000, schedule="rounds")
        assert (
            rounds.stage_times["shuffle"]
            < serial.stage_times["shuffle"] / 3
        )

    def test_coded_rounds_beat_serial_wall_clock(self):
        serial = simulate_coded_terasort(
            8, 2, n_records=2_000_000, schedule="serial"
        )
        rounds = simulate_coded_terasort(
            8, 2, n_records=2_000_000, schedule="rounds"
        )
        assert rounds.stage_times["shuffle"] < serial.stage_times["shuffle"]
