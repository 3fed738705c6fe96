"""Tests for the model's rows: closed-form checks, event replays and paper
targets."""

from __future__ import annotations

import pytest

from repro.core.theory import CodedWorkload, coded_comm_load
from repro.experiments.figures import (
    multicast_penalty_ablation,
    schedule_ablation,
)
from repro.experiments.tables import table1, table2, table3
from repro.sim.costmodel import EC2CostModel
from repro.sim.model import simulate_coded_terasort, simulate_terasort

SMALL = 1_000_000  # records


#: The rows of the discrete-event simulator this model replaced (its
#: turn-granularity runs; the rounds rows from its per-transfer runs):
#: stage seconds in table order, then the total.
PINNED_TABLES = {
    ("Table I", "TeraSort"): [
        1.829268292682927, 2.383474576271187, 947.0400000000002,
        0.8081896551724412, 10.416666666666629, 962.4775991907934,
    ],
    ("Table II", "TeraSort"): [
        1.829268292682927, 2.383474576271187, 947.0400000000002,
        0.8081896551724412, 10.416666666666629, 962.4775991907934,
    ],
    ("Table II", "CodedTeraSort r=3"): [
        6.106, 6.036585365853659, 5.500202922077921, 421.92799999999994,
        2.7971863636363423, 12.916666666666686, 455.28464131823455,
    ],
    ("Table II", "CodedTeraSort r=5"): [
        26.526400000000002, 10.975609756097562, 7.600446428571431,
        242.58146552950979, 2.644049999999993, 15.416666666666686,
        305.74463838084546,
    ],
    ("Table III", "TeraSort"): [
        1.4634146341463414, 1.9322033898305082, 959.8039999999997,
        0.6551724137931387, 8.333333333333371, 972.188123771103,
    ],
    ("Table III", "CodedTeraSort r=3"): [
        16.0885, 4.829268292682926, 4.603246753246754, 442.578,
        2.3763218181817933, 10.333333333333314, 480.80867019744477,
    ],
    ("Table III", "CodedTeraSort r=5"): [
        128.008, 8.78048780487805, 6.633116883116884, 282.6487260321926,
        3.2082545454545652, 12.333333333333314, 441.6119185989754,
    ],
}
#: (variant, shuffle seconds, total seconds) of the two ablations.
PINNED_ABLATIONS = {
    "TeraSort, serial (paper)": (
        947.0400000000002, 962.4775991907934
    ),
    "CodedTeraSort, serial (paper)": (
        421.92799999999994, 455.28464131823455
    ),
    "TeraSort, rounds (scheduled parallel)": (
        118.37999999999995, 133.81759919079315
    ),
    "CodedTeraSort, rounds (scheduled parallel)": (
        137.8220857142864, 171.178727032521
    ),
    "ideal multicast (gamma=0)": (
        260.72800000000007, 294.0846413182347
    ),
    "calibrated (gamma=0.31)": (
        421.92799999999994, 455.28464131823455
    ),
}
PINNED_GROUPED_K20_G10_R5 = [
    0.7929999999999999, 17.5609756097561, 4.422077922077921, 86.5902420107308,
    1.376236363636366, 12.333333333333329, 123.07586523953452,
]


class TestPinnedRows:
    """Every printed reproduction number, to the last bit."""

    def test_tables(self):
        for table in (table1(), table2(), table3()):
            name = table.name.split(" —")[0]
            for row in table.rows:
                assert row.measured.row() == PINNED_TABLES[name, row.label]

    def test_ablations(self):
        rows = schedule_ablation().rows + multicast_penalty_ablation().rows
        assert {
            label: (shuffle, total) for label, shuffle, total in rows
        } == PINNED_ABLATIONS

    def test_grouped_row(self):
        rep = simulate_coded_terasort(20, 5, group_size=10)
        assert rep.row() == PINNED_GROUPED_K20_G10_R5


class TestTeraSortSim:
    def test_stage_order(self):
        rep = simulate_terasort(8, n_records=SMALL)
        assert rep.stage_times.stages == ["map", "pack", "shuffle", "unpack", "reduce"]

    def test_shuffle_matches_closed_form(self):
        """The shuffle equals the analytic serial-shuffle sum."""
        k = 8
        cost = EC2CostModel.paper_calibrated()
        rep = simulate_terasort(k, n_records=SMALL, cost=cost)
        per = cost.unicast_time(SMALL * 100 / k**2)
        expected = k * (k - 1) * per
        assert rep.stage_times["shuffle"] == pytest.approx(expected, rel=1e-9)

    def test_payload_telemetry(self):
        k = 8
        rep = simulate_terasort(k, n_records=SMALL)
        assert rep.shuffle_payload_bytes == pytest.approx(
            SMALL * 100 * (k - 1) / k  # D (K-1)/K
        )

    def test_transfer_count(self):
        k = 6
        rep = simulate_terasort(k, n_records=SMALL)
        assert rep.transfers == k * (k - 1)

    def test_granularities_agree(self, replay_uncoded):
        """Event replays per transfer and per sender turn give the
        model's shuffle."""
        rep = simulate_terasort(8, n_records=SMALL)
        fine, _ = replay_uncoded(8, SMALL, "serial")
        coarse, _ = replay_uncoded(8, SMALL, "serial", per_turn=True)
        assert fine == pytest.approx(rep.stage_times["shuffle"], rel=1e-9)
        assert coarse == pytest.approx(rep.stage_times["shuffle"], rel=1e-12)


class TestCodedSim:
    def test_stage_order(self):
        rep = simulate_coded_terasort(8, 3, n_records=SMALL)
        assert rep.stage_times.stages == [
            "codegen", "map", "encode", "shuffle", "decode", "reduce",
        ]

    def test_shuffle_matches_closed_form(self):
        k, r = 8, 3
        cost = EC2CostModel.paper_calibrated()
        rep = simulate_coded_terasort(k, r, n_records=SMALL, cost=cost)
        w = CodedWorkload(num_nodes=k, redundancy=r, n_records=SMALL)
        expected = w.total_multicasts * cost.multicast_time(w.packet_bytes, r)
        assert rep.stage_times["shuffle"] == pytest.approx(expected, rel=1e-9)

    def test_payload_matches_eq2(self):
        k, r = 8, 3
        rep = simulate_coded_terasort(k, r, n_records=SMALL)
        assert rep.shuffle_payload_bytes == pytest.approx(
            coded_comm_load(r, k) * SMALL * 100
        )

    def test_transfer_count(self):
        k, r = 7, 2
        rep = simulate_coded_terasort(k, r, n_records=SMALL)
        assert rep.transfers == 35 * 3  # C(7, 3) (r+1)

    def test_granularities_agree(self, replay_coded):
        rep = simulate_coded_terasort(8, 3, n_records=SMALL)
        fine, _ = replay_coded(8, 3, SMALL, "serial")
        coarse, _ = replay_coded(8, 3, SMALL, "serial", per_turn=True)
        assert fine == pytest.approx(rep.stage_times["shuffle"], rel=1e-9)
        assert coarse == pytest.approx(rep.stage_times["shuffle"], rel=1e-12)


class TestEventReplay:
    """The closed-form shuffle equals the transfer-by-transfer event run.

    A rounds schedule whose round reused a node would stall on that node's
    NIC and run long, so these also check every round is node-disjoint.
    """

    @pytest.mark.parametrize("schedule", ["serial", "rounds"])
    @pytest.mark.parametrize("k", [2, 3, 5, 8, 16])
    def test_uncoded(self, k, schedule, replay_uncoded):
        rep = simulate_terasort(k, n_records=SMALL, schedule=schedule)
        seconds, net = replay_uncoded(k, SMALL, schedule)
        assert seconds == pytest.approx(rep.stage_times["shuffle"], rel=1e-12)
        assert net.transfers == rep.transfers
        assert net.unicast_payload == pytest.approx(rep.shuffle_payload_bytes)

    @pytest.mark.parametrize("schedule", ["serial", "rounds"])
    @pytest.mark.parametrize(
        "k,r,group_size",
        [(4, 1, None), (6, 2, None), (8, 3, None), (9, 2, 3), (12, 3, 6),
         (16, 3, 8)],
    )
    def test_coded(self, k, r, group_size, schedule, replay_coded):
        rep = simulate_coded_terasort(
            k, r, n_records=SMALL, schedule=schedule, group_size=group_size
        )
        seconds, nets = replay_coded(k, r, SMALL, schedule, group_size)
        assert seconds == pytest.approx(rep.stage_times["shuffle"], rel=1e-12)
        assert sum(net.transfers for net in nets) == rep.transfers
        assert sum(net.multicast_payload for net in nets) == pytest.approx(
            rep.shuffle_payload_bytes
        )


class TestPaperTargets:
    """The headline reproduction: stage cells within 10%, speedups in band."""

    @pytest.fixture(scope="class")
    def k16(self):
        ts = simulate_terasort(16)
        r3 = simulate_coded_terasort(16, 3)
        r5 = simulate_coded_terasort(16, 5)
        return ts, r3, r5

    def test_table1_cells(self, k16):
        ts, _, _ = k16
        paper = {"map": 1.86, "pack": 2.35, "shuffle": 945.72,
                 "unpack": 0.85, "reduce": 10.47}
        for stage, val in paper.items():
            assert ts.stage_times[stage] == pytest.approx(val, rel=0.10), stage
        assert ts.total_time == pytest.approx(961.25, rel=0.02)

    def test_table2_speedups_in_band(self, k16):
        ts, r3, r5 = k16
        s3 = ts.total_time / r3.total_time
        s5 = ts.total_time / r5.total_time
        assert s3 == pytest.approx(2.16, abs=0.25)
        assert s5 == pytest.approx(3.39, abs=0.45)
        assert s5 > s3  # r=5 wins at K=16, as in the paper

    def test_table2_shuffle_gain_below_r(self, k16):
        """§V-C: measured shuffle gain is slightly below r."""
        ts, r3, r5 = k16
        gain3 = ts.stage_times["shuffle"] / r3.stage_times["shuffle"]
        gain5 = ts.stage_times["shuffle"] / r5.stage_times["shuffle"]
        assert 1.8 < gain3 < 3.0
        assert 3.0 < gain5 < 5.0

    def test_table3_k20(self):
        ts = simulate_terasort(20)
        r5 = simulate_coded_terasort(20, 5)
        assert ts.total_time == pytest.approx(972.45, rel=0.02)
        assert ts.total_time / r5.total_time == pytest.approx(2.20, abs=0.25)

    def test_codegen_grows_with_groups(self):
        r3 = simulate_coded_terasort(20, 3, n_records=SMALL)
        r5 = simulate_coded_terasort(20, 5, n_records=SMALL)
        # C(20,6)/C(20,4) = 8x more groups -> ~8x more CodeGen time.
        ratio = r5.stage_times["codegen"] / r3.stage_times["codegen"]
        assert 5.0 < ratio < 9.0

    def test_map_ratio_matches_paper(self):
        """Paper: coded Map is ~3.2x (r=3) and ~5.8x (r=5) the uncoded."""
        ts = simulate_terasort(16, n_records=SMALL)
        r3 = simulate_coded_terasort(16, 3, n_records=SMALL)
        r5 = simulate_coded_terasort(16, 5, n_records=SMALL)
        assert r3.stage_times["map"] / ts.stage_times["map"] == pytest.approx(
            3.2, abs=0.3
        )
        assert r5.stage_times["map"] / ts.stage_times["map"] == pytest.approx(
            5.8, abs=0.4
        )
