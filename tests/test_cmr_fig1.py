"""Reproduction of the paper's Fig. 1 example — exactly.

K = 3 nodes, Q = 3 functions, N = 6 files.  The paper's counts, in units of
one intermediate value:

* uncoded, r = 1 (Fig. 1(a)): every node needs 4 remote values -> load 12;
* uncoded, r = 2 (Fig. 1(b), no coding): each node needs 2      -> load  6;
* coded,   r = 2 (Fig. 1(b)):   3 XOR multicasts of half+half   -> load  3.

Uses :class:`repro.core.jobs.FixedSizeProbeJob`, whose intermediate values
serialize to a fixed unit size, so measured payload bytes divide exactly
into intermediate-value units.
"""

from __future__ import annotations

import pytest

import repro
from repro import MapReduceSpec
from repro.core.jobs import PROBE_UNIT as UNIT
from repro.core.jobs import FixedSizeProbeJob
from repro.experiments.figures import fig1_loads
from repro.runtime.inproc import ThreadCluster


def expected_outputs():
    return {
        q: sorted((f, f"f{f}q{q}") for f in range(6)) for q in range(3)
    }


def run(scheme_coded: bool, r: int):
    files = [f"file-{i}" for i in range(6)]
    return repro.run(
        ThreadCluster(3, recv_timeout=30),
        MapReduceSpec(
            FixedSizeProbeJob(),
            files,
            redundancy=r,
            scheme="coded" if scheme_coded else "uncoded",
        ),
    )


class TestFig1:
    def test_reported_loads_are_the_papers(self):
        assert [
            (paper, measured) for _, paper, measured in fig1_loads().rows
        ] == [(12, 12.0), (6, 6.0), (3, 3.0)]

    def test_uncoded_r1_load_is_12_units(self):
        res = run(False, 1)
        assert res.outputs == expected_outputs()
        assert res.traffic.load_bytes("shuffle") == 12 * UNIT

    def test_uncoded_r2_load_is_6_units(self):
        res = run(False, 2)
        assert res.outputs == expected_outputs()
        assert res.traffic.load_bytes("shuffle") == 6 * UNIT

    def test_coded_r2_load_is_3_units_plus_headers(self):
        res = run(True, 2)
        assert res.outputs == expected_outputs()
        records = [r for r in res.traffic.records if r.stage == "shuffle"]
        # Exactly 3 multicasts (one per node in the single group {0,1,2}).
        assert len(records) == 3
        header = 4 + 2 + 4 + 4 * 3 + 12 * 2 + 8  # CodedPacket wire header
        payload_units = sum(r.payload_bytes - header for r in records)
        assert payload_units == 3 * UNIT

    def test_coding_gain_is_exactly_two(self):
        uncoded = run(False, 2)
        coded = run(True, 2)
        header = 4 + 2 + 4 + 4 * 3 + 12 * 2 + 8
        coded_payload = sum(
            r.payload_bytes - header
            for r in coded.traffic.records
            if r.stage == "shuffle"
        )
        assert uncoded.traffic.load_bytes("shuffle") == 2 * coded_payload

    def test_every_node_multicasts_once(self):
        res = run(True, 2)
        senders = sorted(
            r.src for r in res.traffic.records if r.stage == "shuffle"
        )
        assert senders == [0, 1, 2]

    def test_multicast_reaches_both_other_nodes(self):
        res = run(True, 2)
        for rec in res.traffic.records:
            if rec.stage == "shuffle":
                assert len(rec.dsts) == 2

    def test_probe_job_serialization_is_fixed_size(self):
        job = FixedSizeProbeJob()
        job.num_functions(3)
        value = [(0, 1, "f0q1"), (5, 2, "f5q2")]
        buf = job.serialize(value)
        assert len(buf) == 2 * UNIT
        assert job.deserialize(buf) == value
