"""Tests for the calibrated cost model."""

from __future__ import annotations

import math

import pytest

from repro.sim.costmodel import EC2CostModel


@pytest.fixture(scope="module")
def cost():
    return EC2CostModel.paper_calibrated()


class TestNetworkCosts:
    def test_unicast_scales_linearly(self, cost):
        t1 = cost.unicast_time(1e6)
        t2 = cost.unicast_time(2e6)
        assert (t2 - cost.unicast_setup) == pytest.approx(
            2 * (t1 - cost.unicast_setup)
        )

    def test_unicast_rate_near_100mbps(self, cost):
        # 12.5 MB at ~100 Mbps ~ 1.05 s (with 5.2% overhead).
        assert cost.unicast_time(12.5e6) == pytest.approx(1.053, rel=0.01)

    def test_multicast_penalty_logarithmic(self, cost):
        b = 1e6
        base = cost.multicast_time(b, 1) - cost.multicast_setup
        for g in (2, 4, 8):
            t = cost.multicast_time(b, g) - cost.multicast_setup
            expected = (b / cost.net_rate) * (
                1 + cost.multicast_gamma * math.log2(g + 1)
            )
            assert t == pytest.approx(expected)
        assert cost.multicast_time(b, 8) > cost.multicast_time(b, 2) > base

    def test_multicast_invalid_receivers(self, cost):
        with pytest.raises(ValueError):
            cost.multicast_time(100, 0)


class TestComputeCosts:
    def test_map_slowdown_with_r(self, cost):
        base = cost.map_time(1e6, 1)
        assert cost.map_time(1e6, 3) == pytest.approx(base * 1.10)
        assert cost.map_time(3e6, 3) / cost.map_time(1e6, 1) == pytest.approx(
            3 * 1.10
        )

    def test_reduce_slowdown_with_r(self, cost):
        base = cost.reduce_time(1e6, 1)
        assert cost.reduce_time(1e6, 5) == pytest.approx(base * 1.48)

    def test_codegen_linear_in_groups(self, cost):
        t1 = cost.codegen_time(1000)
        t2 = cost.codegen_time(2000)
        assert t2 - t1 == pytest.approx(1000 * cost.codegen_per_group)

    def test_decode_has_per_packet_term(self, cost):
        no_packets = cost.decode_time(1e6, 0)
        with_packets = cost.decode_time(1e6, 1000)
        assert with_packets - no_packets == pytest.approx(
            1000 * cost.decode_packet_overhead
        )


class TestCalibrationAgainstPaper:
    """Spot-check the fits documented on EC2CostModel's fields (loose
    tolerances)."""

    def test_map_k16_uncoded(self, cost):
        assert cost.map_time(7.5e6, 1) == pytest.approx(1.86, rel=0.05)

    def test_map_k16_r5(self, cost):
        assert cost.map_time(37.5e6, 5) == pytest.approx(10.84, rel=0.05)

    def test_reduce_k16_uncoded(self, cost):
        assert cost.reduce_time(7.5e6, 1) == pytest.approx(10.47, rel=0.02)

    def test_pack_k16(self, cost):
        nbytes = 12e9 / 16 * 15 / 16
        assert cost.pack_time(nbytes) == pytest.approx(2.35, rel=0.05)

    def test_codegen_k16_r3(self, cost):
        assert cost.codegen_time(1820) == pytest.approx(6.06, rel=0.05)

    def test_codegen_k20_r5(self, cost):
        assert cost.codegen_time(38760) == pytest.approx(140.91, rel=0.10)


class TestOverrides:
    def test_with_overrides(self, cost):
        tweaked = cost.with_overrides(multicast_gamma=0.0)
        assert tweaked.multicast_gamma == 0.0
        assert tweaked.net_rate == cost.net_rate
        # Original untouched (frozen dataclass).
        assert cost.multicast_gamma == 0.31

    def test_frozen(self, cost):
        with pytest.raises(Exception):
            cost.net_rate = 1.0  # type: ignore[misc]


class TestScheduleShuffleModels:
    """The model's serial vs round-parallel shuffle (§VI)."""

    def test_serial_is_sum_of_turns(self, cost):
        """Grouped: each coding group's g turns run side by side, so the
        shuffle is one group's multicasts, not the cluster's."""
        from repro.sim.model import simulate_coded_terasort
        from repro.core.theory import CodedWorkload

        work = CodedWorkload(12, 2, 1_000_000, group_size=4)
        rep = simulate_coded_terasort(
            12, 2, n_records=1_000_000, cost=cost, group_size=4
        )
        one = cost.multicast_time(work.packet_bytes, 2)
        turns = work.total_multicasts // work.node_groups
        assert rep.stage_times["shuffle"] == pytest.approx(turns * one)

    def test_parallel_beats_serial_at_plan_round_counts(self, cost):
        """At every grid point the packed rounds give a real speedup."""
        from repro.core.groups import build_coding_plan
        from repro.sim.model import simulate_coded_terasort

        for k, r in ((4, 1), (6, 2), (8, 3), (16, 3)):
            plan = build_coding_plan(k, r)
            serial, parallel = [
                simulate_coded_terasort(
                    k, r, n_records=1_000_000, cost=cost, schedule=schedule
                ).stage_times["shuffle"]
                for schedule in ("serial", "rounds")
            ]
            assert parallel < serial
            # The model's gain is the plan's theoretical speedup.
            assert serial / parallel == pytest.approx(
                plan.parallel_speedup, rel=1e-9
            )

    def test_validation(self, cost):
        from repro.sim.model import simulate_coded_terasort

        with pytest.raises(ValueError, match="schedule"):
            simulate_coded_terasort(8, 3, cost=cost, schedule="parallel")
        with pytest.raises(ValueError, match="n_records"):
            simulate_coded_terasort(8, 3, n_records=-1, cost=cost)


class TestOverlappedMakespan:
    def test_staged_limit_at_one_window(self):
        m = EC2CostModel.paper_calibrated()
        assert m.overlapped_makespan(10.0, 4.0, windows=1) == pytest.approx(
            14.0
        )

    def test_compute_bound_hides_communication(self):
        m = EC2CostModel.paper_calibrated()
        # comm hides behind compute except the last window's share.
        assert m.overlapped_makespan(10.0, 4.0, windows=16) == pytest.approx(
            10.0 + 4.0 / 16
        )

    def test_comm_bound_primes_pipeline(self):
        m = EC2CostModel.paper_calibrated()
        assert m.overlapped_makespan(4.0, 10.0, windows=16) == pytest.approx(
            10.0 + 4.0 / 16
        )

    def test_never_better_than_envelope_never_worse_than_staged(self):
        m = EC2CostModel.paper_calibrated()
        for compute, comm in [(1.0, 9.0), (5.0, 5.0), (9.0, 1.0)]:
            got = m.overlapped_makespan(compute, comm, windows=8)
            assert got >= max(compute, comm)
            assert got <= compute + comm

    def test_rejects_bad_args(self):
        m = EC2CostModel.paper_calibrated()
        with pytest.raises(ValueError):
            m.overlapped_makespan(1.0, 1.0, windows=0)
        with pytest.raises(ValueError):
            m.overlapped_makespan(-1.0, 1.0)
