"""Equivalence and attribution tests for the pipelined parallel shuffle.

The acceptance bar: ``schedule="parallel"`` must produce byte-identical
output to ``schedule="serial"`` for CodedTeraSort and Coded MapReduce
across (K, r) in {(4, 1), (6, 2), (8, 3)} on both the thread and process
backends.
"""

from __future__ import annotations

import weakref

import pytest

import repro
from repro import CodedTeraSortSpec, MapReduceSpec
from repro.cluster import connect
from repro.core.groups import build_coding_plan
from repro.core.jobs import WordCountJob
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.program import NodeProgram, streaming_multicast_shuffle
from repro.utils.subsets import binomial

GRID = [(4, 1), (6, 2), (8, 3)]

_WORDS = (
    "coded terasort trades redundant map computation for an r fold "
    "reduction of the shuffle bottleneck via structured placement and "
    "xor coded multicasts the groups transmit concurrently when disjoint"
).split()


def _make_cluster(backend: str, k: int):
    if backend == "thread":
        return connect(f"inproc://{k}", timeout=60)
    return connect(f"proc://{k}", timeout=120)


def _cmr_files(k: int, r: int):
    """One small text per file; N = 2 * C(K, r) (batched placement)."""
    n = 2 * binomial(k, r)
    return [
        " ".join(_WORDS[(i + j) % len(_WORDS)] for j in range(7))
        for i in range(n)
    ]


class TestByteIdenticalOutputs:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("k,r", GRID)
    def test_coded_terasort_serial_vs_parallel(self, backend, k, r):
        data = teragen(2500 + 131 * k, seed=100 * k + r)
        runs = {}
        for schedule in ("serial", "parallel"):
            run = repro.run(
                _make_cluster(backend, k),
                CodedTeraSortSpec(data, redundancy=r, schedule=schedule),
            )
            validate_sorted_permutation(data, run.partitions)
            runs[schedule] = run
        for a, b in zip(runs["serial"].partitions, runs["parallel"].partitions):
            assert a == b  # byte-identical partitions

    @pytest.mark.parametrize("backend", ["thread", "process"])
    @pytest.mark.parametrize("k,r", GRID)
    def test_cmr_serial_vs_parallel(self, backend, k, r):
        files = _cmr_files(k, r)
        outputs = {}
        for schedule in ("serial", "parallel"):
            run = repro.run(
                _make_cluster(backend, k),
                MapReduceSpec(
                    WordCountJob(),
                    files,
                    redundancy=r,
                    scheme="coded",
                    schedule=schedule,
                ),
            )
            outputs[schedule] = run.outputs
        assert outputs["serial"] == outputs["parallel"]

    def test_shuffle_load_identical_across_schedules(self):
        """Scheduling changes time, never bytes (real engine)."""
        data = teragen(4000, seed=9)
        loads = {}
        for schedule in ("serial", "parallel"):
            run = repro.run(
                connect("inproc://6", timeout=60),
                CodedTeraSortSpec(data, redundancy=2, schedule=schedule),
            )
            loads[schedule] = run.traffic.load_bytes("shuffle")
        assert loads["serial"] == loads["parallel"] > 0


class TestParallelRunMetadata:
    def test_meta_reports_rounds_and_speedup(self):
        data = teragen(2000, seed=4)
        run = repro.run(
            connect("inproc://6", timeout=60),
            CodedTeraSortSpec(data, redundancy=2, schedule="parallel"),
        )
        assert run.meta["schedule"] == "parallel"
        assert run.meta["schedule_rounds"] <= run.meta["schedule_turns"]
        assert run.meta["parallel_speedup"] >= 1.0
        assert run.meta["shuffle_span_seconds"] > 0.0

    def test_stage_breakdown_stays_six_stage_and_exclusive(self):
        data = teragen(3000, seed=5)
        run = repro.run(
            connect("inproc://4", timeout=60),
            CodedTeraSortSpec(data, redundancy=2, schedule="parallel"),
        )
        assert run.stage_times.stages == [
            "codegen", "map", "encode", "shuffle", "decode", "reduce",
        ]
        # Exclusive attribution: the overlapped span is at least the
        # exclusive shuffle time and is reported separately in meta.
        assert (
            run.meta["shuffle_span_seconds"]
            >= run.stage_times["shuffle"] - 1e-9
        )

    def test_cmr_meta_reports_schedule(self):
        files = _cmr_files(4, 1)
        run = repro.run(
            connect("inproc://4", timeout=60),
            MapReduceSpec(
                WordCountJob(),
                files,
                redundancy=1,
                scheme="coded",
                schedule="parallel",
            ),
        )
        assert run.meta["schedule"] == "parallel"
        # Same telemetry surface as CodedTeraSort's parallel runs.
        assert run.meta["schedule_rounds"] <= run.meta["schedule_turns"]
        assert run.meta["parallel_speedup"] >= 1.0
        assert run.meta["shuffle_span_seconds"] > 0.0

    def test_unknown_schedule_rejected(self):
        data = teragen(100, seed=1)
        with pytest.raises(ValueError, match="schedule"):
            repro.run(
                connect("inproc://4"),
                CodedTeraSortSpec(data, redundancy=2, schedule="warp"),
            )
        with pytest.raises(ValueError, match="schedule"):
            repro.run(
                connect("inproc://4"),
                MapReduceSpec(
                    WordCountJob(),
                    ["a"] * 4,
                    redundancy=1,
                    scheme="coded",
                    schedule="warp",
                ),
            )


class _Frame(bytearray):
    """A packet body the test can hold a weak reference to."""


class _ToyShuffle(NodeProgram):
    """Drives the event-loop engine directly: packets are tiny buffers,
    ``decode`` only records.  ``gates[g]`` is the number of map steps
    after which group ``g`` opens (``map_steps=0``: no map, no gate)."""

    STAGES = ["map", "encode", "shuffle", "decode"]

    def __init__(self, comm, redundancy=1, map_steps=0, gates=None):
        super().__init__(comm)
        self.plan = build_coding_plan(comm.size, redundancy)
        self.map_steps = map_steps
        self.gates = gates or {}

    def run(self):
        events, frames, released, decoded = [], [], {}, []
        mapped = 0

        def map_step():
            nonlocal mapped
            if mapped == self.map_steps:
                return False
            mapped += 1
            events.append(("map", mapped))
            return True

        def encode(gidx):
            events.append(("encode", gidx))
            body = _Frame([self.rank] * 64)
            frames.append(weakref.ref(body))
            return [bytes([gidx]), body]  # two parts: never shared by ref

        def recover(gidx, payloads):
            events.append(("decode", gidx))
            for sender, raw in payloads.items():
                assert bytes(raw) == bytes([gidx]) + bytes([sender]) * 64
            # Which of the frames posted so far have been let go of?
            released[gidx] = [ref() is None for ref in frames]
            decoded.append(gidx)

        streaming = self.map_steps > 0
        streaming_multicast_shuffle(
            self,
            self.plan.groups,
            self.plan.groups_of_node[self.rank],
            self.plan.rounds_for("parallel"),
            30_000,
            encode,
            recover,
            map_step=map_step if streaming else None,
            ready=(
                (lambda g: mapped >= self.gates.get(g, 0))
                if streaming
                else None
            ),
        )
        return {
            "events": events,
            "decoded": sorted(decoded),
            "released": released,
            "times": self.stopwatch.times(),
        }


class TestEventLoopEngine:
    """``streaming_multicast_shuffle`` on a toy program (thread backend)."""

    def test_no_group_is_encoded_or_decoded_before_its_gate(self):
        k, steps = 4, 5
        plan = build_coding_plan(k, 2)
        gates = {g: 1 + g % steps for g in range(len(plan.groups))}
        result = connect(f"inproc://{k}", timeout=60).run(
            lambda comm: _ToyShuffle(comm, 2, steps, gates)
        )
        for rank, out in enumerate(result.results):
            mapped = 0
            for kind, what in out["events"]:
                if kind == "map":
                    mapped = what
                else:
                    assert mapped >= gates[what], (rank, kind, what)
            assert mapped == steps
            assert out["decoded"] == sorted(plan.groups_of_node[rank])
            # The map ran inside the loop: it is charged its own stage,
            # and the loop stamps its overlap span.
            assert {"map", "shuffle_span", "overlap_span"} <= set(
                out["times"]
            )

    def test_without_a_map_everything_decodes_and_span_is_stamped_once(self):
        k = 4
        plan = build_coding_plan(k, 1)
        result = connect(f"inproc://{k}", timeout=60).run(_ToyShuffle)
        for rank, out in enumerate(result.results):
            assert out["decoded"] == sorted(plan.groups_of_node[rank])
            assert not [e for e in out["events"] if e[0] == "map"]
            times = out["times"]
            assert "map" not in times
            # Attribution is exclusive, so the loop's one span is the
            # shuffle time plus the encode and decode work inside it —
            # stamped by the engine alone, not once more by its caller.
            assert times["shuffle_span"] == pytest.approx(
                times["shuffle"] + times["encode"] + times["decode"]
            )
            assert "overlap_span" not in times

    def test_completed_sends_release_their_frames_inside_the_loop(self):
        # Thread-backend sends complete at post time, so by the time any
        # group decodes, every frame this rank has posted is gone — the
        # engine must not hold packets until its final wait_all.
        result = connect("inproc://3", timeout=60).run(_ToyShuffle)
        for out in result.results:
            assert out["released"]
            for flags in out["released"].values():
                assert flags and all(flags)
