"""Streaming phase overlap: byte-identity, validation, and telemetry.

The overlap execution mode (``overlap=True`` on either sort spec) hides
shuffle communication behind Map and Reduce compute — the acceptance
contract is that it never changes a single output byte:

* uncoded and coded (both schedules), in-memory and out-of-core, on the
  thread, process, and TCP backends (every backend runs both memory
  planes), the overlapped output equals the staged output byte for byte;
* an injected map crash under ``$REPRO_FAULT_PLAN`` retries an
  overlapped job byte-identically;
* the same cells with group-based coding (``group_size``): schedule ×
  overlap × memory plane on inproc and proc, one TCP cell, one retried
  map crash — equal to the uncoded sort and, on the wire, to what the
  deleted ``run_grouped_coded_terasort`` sent;
* (overlap x speculation is rejected by name on every surface: that
  cell lives in the generated matrix, ``tests/test_option_matrix.py``);
* the run meta reports the overlap span and the hidden-communication
  seconds, and the job comm's ``set_stage`` calls show Map genuinely
  re-entered inside the shuffle span (the stages really interleave).
"""

from __future__ import annotations

import contextlib
import multiprocessing

import pytest

from repro.core.terasort import _terasort_program
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.runtime.process import ProcessCluster
from repro.session import CodedTeraSortSpec, Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

_CTX = multiprocessing.get_context("fork")


def _bytes(run):
    return [p.to_bytes() for p in run.partitions]


@pytest.fixture
def no_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    return monkeypatch


def _specs(data, k, r, overlap, memory_budget=None, group_size=None):
    """One spec per lane: uncoded, coded serial, coded parallel."""
    return {
        "uncoded": TeraSortSpec(
            data=data, overlap=overlap, memory_budget=memory_budget
        ),
        "coded-serial": CodedTeraSortSpec(
            data=data,
            redundancy=r,
            schedule="serial",
            overlap=overlap,
            memory_budget=memory_budget,
            group_size=group_size,
        ),
        "coded-parallel": CodedTeraSortSpec(
            data=data,
            redundancy=r,
            schedule="parallel",
            overlap=overlap,
            memory_budget=memory_budget,
            group_size=group_size,
        ),
    }


#: The grouped shape every backend runs: (K, g, r), its input, and the
#: shuffle (messages, load bytes) the deleted ``scalable/program.py`` put
#: on the wire for it — G * C(g, r+1) * (r+1) = 2 * 4 * 3 packets.
GROUPED_K, GROUPED_G, GROUPED_R = 8, 4, 2
GROUPED_WIRE = (24, 107_596)


def _grouped_data():
    return teragen(4000, seed=19)


def _run_grouped_cells(session):
    """Every grouped cell of one backend against the uncoded sort."""
    data = _grouped_data()
    reference = _bytes(session.submit(TeraSortSpec(data=data)).result())
    for memory_budget in (None, 8 * 1024 * 1024):
        for overlap in (False, True):
            specs = _specs(
                data, GROUPED_K, GROUPED_R, overlap, memory_budget, GROUPED_G
            )
            for lane in ("coded-serial", "coded-parallel"):
                run = session.submit(specs[lane]).result()
                cell = (lane, overlap, memory_budget)
                assert _bytes(run) == reference, cell
                _assert_grouped_wire(run, cell)
                if memory_budget is not None:
                    assert (
                        run.meta["oc_peak_resident_bytes"] <= memory_budget
                    ), cell


def _assert_grouped_wire(run, cell=None):
    traffic = run.traffic
    assert (
        traffic.message_count("shuffle"),
        traffic.load_bytes("shuffle"),
    ) == GROUPED_WIRE, cell
    assert run.meta["total_multicasts"] == GROUPED_WIRE[0]
    assert (run.meta["group_size"], run.meta["node_groups"]) == (GROUPED_G, 2)


class TestByteIdentityInproc:
    """The full (K, r) grid on the thread backend, all three lanes."""

    @pytest.mark.parametrize("k,r", [(4, 1), (6, 2), (8, 3)])
    def test_overlap_matches_staged(self, k, r, thread_cluster_factory):
        data = teragen(4000 * k // 4, seed=100 + k)
        for lane in ["uncoded", "coded-serial", "coded-parallel"]:
            with Session(thread_cluster_factory(k)) as s:
                staged = s.submit(_specs(data, k, r, False)[lane]).result()
            with Session(thread_cluster_factory(k)) as s:
                overlapped = s.submit(_specs(data, k, r, True)[lane]).result()
            assert _bytes(overlapped) == _bytes(staged), lane
            validate_sorted_permutation(data, overlapped.partitions)
            meta = overlapped.meta["overlap"]
            assert meta["span_seconds"] > 0.0
            assert meta["hidden_seconds"] >= 0.0
            assert len(meta["per_node_hidden_seconds"]) == k
            assert "overlap" not in staged.meta

    @pytest.mark.parametrize("k,r", [(4, 1), (6, 2)])
    def test_out_of_core_overlap_under_8mib(
        self, k, r, thread_cluster_factory
    ):
        budget = 8 * 1024 * 1024
        data = teragen(30_000, seed=200 + k)
        for lane in ["uncoded", "coded-serial", "coded-parallel"]:
            with Session(thread_cluster_factory(k)) as s:
                staged = s.submit(
                    _specs(data, k, r, False, budget)[lane]
                ).result()
            with Session(thread_cluster_factory(k)) as s:
                overlapped = s.submit(
                    _specs(data, k, r, True, budget)[lane]
                ).result()
            assert _bytes(overlapped) == _bytes(staged), lane
            assert overlapped.meta["oc_peak_resident_bytes"] <= budget, lane
            assert overlapped.meta["overlap"]["span_seconds"] > 0.0

    def test_grouped_cells(self, thread_cluster_factory):
        with Session(thread_cluster_factory(GROUPED_K)) as s:
            _run_grouped_cells(s)


class TestByteIdentityProcess:
    """Real multiprocessing workers: one (K, r), all three lanes."""

    def test_overlap_matches_staged(self, memory_budget=None):
        k, r = 4, 1
        data = teragen(4000, seed=300)
        for lane in ["uncoded", "coded-serial", "coded-parallel"]:
            with Session(ProcessCluster(k, timeout=120)) as s:
                staged, overlapped = [
                    s.submit(
                        _specs(data, k, r, overlap, memory_budget)[lane]
                    ).result()
                    for overlap in (False, True)
                ]
            assert _bytes(overlapped) == _bytes(staged), lane
            assert overlapped.meta["overlap"]["span_seconds"] > 0.0
            if memory_budget is not None:
                assert (
                    overlapped.meta["oc_peak_resident_bytes"] <= memory_budget
                ), lane

    def test_out_of_core_overlap_under_8mib(self):
        self.test_overlap_matches_staged(memory_budget=8 * 1024 * 1024)

    def test_grouped_cells(self):
        with Session(ProcessCluster(GROUPED_K, timeout=120)) as s:
            _run_grouped_cells(s)


@contextlib.contextmanager
def _tcp_session(k):
    """A Session over a localhost TCP mesh of ``k`` worker processes."""
    from repro.runtime.tcp import TcpCluster, run_worker

    with TcpCluster(
        k, "tcp://127.0.0.1:0", timeout=120, connect_timeout=60
    ) as cluster:
        procs = [
            _CTX.Process(
                target=run_worker,
                kwargs=dict(
                    join=cluster.address,
                    quiet=True,
                    connect_timeout=30.0,
                    handshake_timeout=30.0,
                ),
                daemon=True,
            )
            for _ in range(k)
        ]
        for p in procs:
            p.start()
        try:
            with Session(cluster) as session:
                yield session
        finally:
            for p in procs:
                p.join(15.0)
                if p.is_alive():  # pragma: no cover - defensive
                    p.terminate()
                    p.join()


class TestByteIdentityTcp:
    """Localhost TCP mesh: overlapped == staged for uncoded + coded."""

    def test_overlap_matches_staged(self, memory_budget=None):
        k, r = 4, 1
        data = teragen(3000, seed=400)

        def submit_all(session, overlap):
            specs = _specs(data, k, r, overlap, memory_budget)
            handles = [
                session.submit(specs[lane])
                for lane in ("uncoded", "coded-parallel")
            ]
            return [h.result() for h in handles]

        with _tcp_session(k) as session:
            staged = submit_all(session, False)
            overlapped = submit_all(session, True)
        for st, ov in zip(staged, overlapped):
            assert _bytes(ov) == _bytes(st)
            assert ov.meta["overlap"]["span_seconds"] > 0.0
            if memory_budget is not None:
                assert ov.meta["oc_peak_resident_bytes"] <= memory_budget

    def test_out_of_core_overlap_under_8mib(self):
        self.test_overlap_matches_staged(memory_budget=8 * 1024 * 1024)

    def test_grouped_cell(self):
        data = _grouped_data()
        specs = _specs(data, GROUPED_K, GROUPED_R, True, None, GROUPED_G)
        with _tcp_session(GROUPED_K) as session:
            reference, run = [
                session.submit(specs[lane]).result()
                for lane in ("uncoded", "coded-parallel")
            ]
        assert _bytes(run) == _bytes(reference)
        _assert_grouped_wire(run)


class TestOverlapWithFaults:
    """Overlap composes with the fault-tolerant runtime."""

    def test_map_crash_retried_byte_identical(self, no_plan):
        k = 4
        data = teragen(2000, seed=500)
        with Session(ProcessCluster(k, timeout=60)) as s:
            reference = _bytes(
                s.submit(TeraSortSpec(data=data)).result(timeout=60)
            )
        no_plan.setenv(ENV_VAR, "stage.crash,rank=1,stage=map,job_lt=1")
        with Session(
            ProcessCluster(k, timeout=60), max_retries=2, retry_backoff=0.05
        ) as s:
            handle = s.submit(TeraSortSpec(data=data, overlap=True))
            run = handle.result(timeout=60)
        assert _bytes(run) == reference
        assert len(handle.attempts) == 2
        assert handle.attempts[0].error is not None
        assert handle.attempts[1].error is None

    def test_grouped_map_crash_retried_byte_identical(self, no_plan):
        data = _grouped_data()
        with Session(ProcessCluster(GROUPED_K, timeout=60)) as s:
            reference = _bytes(
                s.submit(TeraSortSpec(data=data)).result(timeout=60)
            )
        # Rank 5 = member 1 of the second coding group.
        no_plan.setenv(ENV_VAR, "stage.crash,rank=5,stage=map,job_lt=1")
        with Session(
            ProcessCluster(GROUPED_K, timeout=60),
            max_retries=1,
            retry_backoff=0.05,
        ) as s:
            handle = s.submit(
                _specs(data, GROUPED_K, GROUPED_R, False, None, GROUPED_G)[
                    "coded-parallel"
                ]
            )
            run = handle.result(timeout=60)
        assert _bytes(run) == reference
        _assert_grouped_wire(run)
        assert [a.error is None for a in handle.attempts] == [False, True]


class TestValidation:
    """The rejection cells live in tests/test_option_matrix.py; the
    valid ``--overlap`` cells run end to end here."""

    def test_cli_overlap_runs(self):
        from repro.cli import main

        assert main(["sort", "-K", "4", "-n", "2000", "--overlap"]) == 0
        assert (
            main(
                [
                    "sort",
                    "-K",
                    "4",
                    "-r",
                    "2",
                    "-n",
                    "2000",
                    "--schedule",
                    "parallel",
                    "--overlap",
                ]
            )
            == 0
        )


class TestStageInterleaving:
    """The job comm's stage changes prove the phases really overlap."""

    def test_listener_sees_map_inside_shuffle(self, thread_cluster_factory):
        k = 4
        data = teragen(4000, seed=600)
        job = TeraSortSpec(data=data, overlap=True).prepare(k)
        events = {rank: [] for rank in range(k)}

        def factory(comm):
            log = events[comm.rank]
            set_stage = comm.set_stage

            def logged(name):
                if name != comm.stage:
                    log.append((comm.stage, name))
                set_stage(name)

            comm.set_stage = logged
            return _terasort_program(comm, job.payloads[comm.rank])

        result = thread_cluster_factory(k).run(factory)
        assert len(result.results) == k
        for rank in range(k):
            # Nested map scopes inside the overlapped shuffle loop show up
            # as shuffle -> map transitions; the staged path never emits
            # them (its map fully precedes its shuffle).
            assert ("shuffle", "map") in events[rank], events[rank]
