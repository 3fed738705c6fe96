"""Session API: persistent pools, declarative specs, job futures.

The acceptance bar for the redesign: every JobSpec kind, submitted to a
multi-job session on either backend, must return *byte-identical*
results and matching per-job traffic to its legacy one-shot ``run_*``
counterpart.  (That a failing job fails only its own handle while the
pool keeps serving is the pool contract, ``test_pool_contract.py``.)
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

import repro
from repro.cluster import connect
from repro.core.jobs import WordCountJob
from repro.kvpairs.datasource import FileSource
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.session import (
    CodedTeraSortSpec,
    JobHandle,
    JobSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)
from repro.utils.subsets import binomial

K = 4
R = 2


def _make_cluster(backend: str, k: int = K):
    if backend == "thread":
        return connect(f"inproc://{k}", timeout=60)
    return connect(f"proc://{k}", timeout=120)


def _corpus(k: int, r: int):
    n = 2 * binomial(k, r)
    return [f"alpha beta gamma file{i % 3} beta" for i in range(n)]


def _traffic_summary(traffic):
    """Order-independent digest of a per-job traffic log."""
    return sorted(
        (r.stage, r.kind, r.src, r.dsts, r.payload_bytes)
        for r in traffic.records
        if r.kind != "relay"
    )


@pytest.mark.parametrize("backend", ["thread", "process"])
class TestMultiJobSession:
    def test_three_spec_kinds_match_one_shot_byte_identical(self, backend):
        """TeraSort + CodedTeraSort + WordCount on ONE session == one-shot."""
        data = teragen(3000, seed=11)
        corpus = _corpus(K, R)
        with Session(_make_cluster(backend)) as session:
            h_base = session.submit(TeraSortSpec(data=data))
            h_coded = session.submit(
                CodedTeraSortSpec(data=data, redundancy=R)
            )
            h_wc = session.submit(
                MapReduceSpec(
                    job=WordCountJob(),
                    files=corpus,
                    redundancy=R,
                    scheme="coded",
                )
            )
            base, coded, wc = (
                h_base.result(),
                h_coded.result(),
                h_wc.result(),
            )
        assert [h_base.job_id, h_coded.job_id, h_wc.job_id] == [0, 1, 2]

        ref_base = repro.run(_make_cluster(backend), TeraSortSpec(data))
        ref_coded = repro.run(
            _make_cluster(backend),
            CodedTeraSortSpec(data, redundancy=R),
        )
        ref_wc = repro.run(
            _make_cluster(backend),
            MapReduceSpec(
                WordCountJob(),
                corpus,
                redundancy=R,
                scheme="coded",
            ),
        )

        for run, ref in ((base, ref_base), (coded, ref_coded)):
            validate_sorted_permutation(data, run.partitions)
            assert [p.to_bytes() for p in run.partitions] == [
                p.to_bytes() for p in ref.partitions
            ]
        assert wc.outputs == ref_wc.outputs

        # Per-job traffic is isolated per job id and matches one-shot runs.
        assert _traffic_summary(base.traffic) == _traffic_summary(
            ref_base.traffic
        )
        assert _traffic_summary(coded.traffic) == _traffic_summary(
            ref_coded.traffic
        )
        assert _traffic_summary(wc.traffic) == _traffic_summary(
            ref_wc.traffic
        )

    def test_repeated_jobs_reuse_one_pool(self, backend):
        """Back-to-back identical sorts stay byte-identical on one pool."""
        data = teragen(2000, seed=5)
        with Session(_make_cluster(backend)) as session:
            handles = [
                session.submit(TeraSortSpec(data=data)) for _ in range(4)
            ]
            runs = [h.result() for h in handles]
        first = [p.to_bytes() for p in runs[0].partitions]
        for run in runs[1:]:
            assert [p.to_bytes() for p in run.partitions] == first
        summaries = {
            tuple(map(tuple, _traffic_summary(run.traffic))) for run in runs
        }
        assert len(summaries) == 1  # every job logged exactly its own bytes

    def test_cluster_result_isolated_per_job(self, backend):
        """JobHandle.cluster_result carries only that job's stages/bytes."""
        data = teragen(1500, seed=7)
        with Session(_make_cluster(backend)) as session:
            h1 = session.submit(TeraSortSpec(data=data))
            h2 = session.submit(CodedTeraSortSpec(data=data, redundancy=R))
            cr1 = h1.cluster_result()
            cr2 = h2.cluster_result()
        assert cr1.stage_times.stages == [
            "map", "pack", "shuffle", "unpack", "reduce",
        ]
        assert cr2.stage_times.stages == [
            "codegen", "map", "encode", "shuffle", "decode", "reduce",
        ]
        assert cr1.traffic is not cr2.traffic
        assert all(r.kind == "unicast" for r in cr1.traffic.records)


class TestSessionLifecycle:
    def test_submit_validates_synchronously(self):
        data = teragen(500, seed=1)
        with Session(connect("inproc://4", timeout=30)) as session:
            with pytest.raises(ValueError, match="redundancy"):
                session.submit(CodedTeraSortSpec(data=data, redundancy=9))
            # coded shuffle needs groups of r+1 <= K: r = K must be
            # rejected here, not wrapped in a job failure on the handle.
            with pytest.raises(ValueError, match="redundancy"):
                session.submit(
                    MapReduceSpec(
                        job=WordCountJob(), files=["a"], redundancy=4,
                        scheme="coded",
                    )
                )
            with pytest.raises(ValueError, match="multiple"):
                session.submit(
                    MapReduceSpec(job=WordCountJob(), files=["a"])
                )
            with pytest.raises(ValueError, match="schedule"):
                session.submit(
                    CodedTeraSortSpec(
                        data=data, redundancy=2, schedule="warp"
                    )
                )
            with pytest.raises(TypeError):
                session.submit(lambda comm: None)
            # a failed validation must not poison the session
            run = session.submit(TeraSortSpec(data=data)).result()
            validate_sorted_permutation(data, run.partitions)

    @pytest.mark.parametrize("sample_size", [0, -5])
    def test_sample_size_rejected_by_both_sort_specs(self, sample_size):
        """Regression: the coded spec used to accept a bad ``sample_size``
        (-5 failed later on the handle inside NumPy, 0 silently sorted
        with uniform splitters); both specs now reject it from ``submit``
        with one message, before anything reaches the pool."""
        data = teragen(600, seed=6)
        options = dict(
            data=data, sampled_partitioner=True, sample_size=sample_size
        )
        with Session(connect("inproc://4", timeout=30)) as session:
            for spec in (
                TeraSortSpec(**options),
                CodedTeraSortSpec(redundancy=2, **options),
            ):
                with pytest.raises(ValueError) as exc_info:
                    session.submit(spec)
                assert str(exc_info.value) == (
                    f"sample_size must be >= 1, got {sample_size}"
                )
            assert session._pool is None and session._driver is None

    def test_submit_after_close_raises(self):
        data = teragen(400, seed=2)
        session = Session(connect("inproc://3", timeout=30))
        handle = session.submit(TeraSortSpec(data=data))
        session.close()
        assert handle.done()
        validate_sorted_permutation(data, handle.result().partitions)
        with pytest.raises(RuntimeError, match="closed"):
            session.submit(TeraSortSpec(data=data))
        session.close()  # idempotent

    def test_close_drains_queued_jobs(self):
        data = teragen(600, seed=3)
        session = Session(connect("inproc://3", timeout=30))
        handles = [session.submit(TeraSortSpec(data=data)) for _ in range(3)]
        session.close()
        for h in handles:
            assert h.done()
            validate_sorted_permutation(data, h.result().partitions)

    def test_unpooled_cluster_rejected(self):
        class NotACluster:
            size = 4

        with pytest.raises(TypeError, match="create_pool"):
            Session(NotACluster())

    def test_handle_timeouts(self):
        data = teragen(400, seed=4)
        with Session(connect("inproc://3", timeout=30)) as session:
            handle = session.submit(TeraSortSpec(data=data))
            assert handle.wait(30.0)
            handle.result(timeout=1.0)  # already done: returns immediately
        fresh = JobHandle(99, TeraSortSpec(data=data))
        assert not fresh.wait(0.01)
        with pytest.raises(TimeoutError):
            fresh.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            fresh.exception(timeout=0.01)

    def test_specs_are_frozen_jobspecs(self):
        data = teragen(100, seed=5)
        spec = TeraSortSpec(data=data)
        assert isinstance(spec, JobSpec)
        with pytest.raises(Exception):
            spec.sample_size = 1  # frozen dataclass

    def test_session_run_convenience(self):
        data = teragen(500, seed=8)
        with Session(connect("inproc://3", timeout=30)) as session:
            run = session.run(TeraSortSpec(data=data))
        validate_sorted_permutation(data, run.partitions)


def _oversized_tag_builder(comm, payload):
    """Builder using a tag outside the per-job session window."""
    from repro.runtime.api import JOB_TAG_STRIDE
    from repro.runtime.program import NodeProgram

    class OversizedTag(NodeProgram):
        STAGES = ["x"]

        def run(self):
            with self.stage("x"):
                if self.rank == 0:
                    self.comm.send(1, JOB_TAG_STRIDE, b"hi")
                else:
                    self.comm.recv(0, JOB_TAG_STRIDE)

    return OversizedTag(comm)


def test_session_jobs_enforce_tag_window_from_job_zero():
    """Even job 0 (offset 0) must reject tags that straddle job windows."""
    from repro.runtime.program import PreparedJob

    pool = connect("inproc://2", timeout=10).create_pool()
    try:
        prepared = PreparedJob(
            builder=_oversized_tag_builder,
            payloads=[None, None],
            finalize=lambda r: r,
        )
        with pytest.raises(RuntimeError, match="job window"):
            pool.run_job(prepared)
    finally:
        pool.close()


class TestProcessPoolReuse:
    """The pool-level contract the session perf win rests on."""

    def test_workers_persist_across_jobs(self):
        """Same worker PIDs serve consecutive jobs (no per-job fork)."""
        data = teragen(1200, seed=9)
        cluster = connect("proc://3", timeout=60)
        with Session(cluster) as session:
            session.submit(TeraSortSpec(data=data)).result()
            pool = session._pool
            pids1 = [p.pid for p in pool._transport.procs]
            session.submit(TeraSortSpec(data=data)).result()
            pids2 = [p.pid for p in pool._transport.procs]
        assert pids1 == pids2

    def test_sessions_do_not_write_to_a_shared_cluster(self):
        """``Session(failure_timeout=...)`` is the pool's state: one
        cluster spec reused by two sessions keeps its configured value
        and each pool gets its own."""
        data = teragen(600, seed=12)
        cluster = connect("proc://2", timeout=60, failure_timeout=17.0)
        with Session(cluster, failure_timeout=3.0) as fast:
            with Session(cluster, failure_timeout=9.0) as slow:
                fast.submit(TeraSortSpec(data=data)).result(timeout=60)
                slow.submit(TeraSortSpec(data=data)).result(timeout=60)
                assert fast._pool.failure_timeout == 3.0
                assert slow._pool.failure_timeout == 9.0
        assert cluster.failure_timeout == 17.0
        with Session(cluster) as plain:
            plain.submit(TeraSortSpec(data=data)).result(timeout=60)
            assert plain._pool.failure_timeout == 17.0


class TestSpecWithAndShrink:
    """The elastic-pool spec surface: validated copies and shrink math."""

    def test_with_overrides_one_field_and_keeps_the_rest(self):
        data = teragen(100, seed=20)
        spec = CodedTeraSortSpec(data=data, redundancy=2)
        paper = spec.with_(schedule="serial")
        assert paper.schedule == "serial"
        assert paper.redundancy == 2
        assert paper.data is data
        # The original is untouched (frozen dataclass copy).
        assert spec.schedule == "parallel"

    def test_with_unknown_field_is_a_typed_error_naming_it(self):
        spec = TeraSortSpec(data=teragen(100, seed=20))
        with pytest.raises(TypeError) as exc_info:
            spec.with_(nodes=4)
        assert "nodes" in str(exc_info.value)
        assert "memory_budget" in str(exc_info.value)  # lists valid fields

    def test_terasort_shrinks_to_any_k_down_to_two(self):
        spec = TeraSortSpec(data=teragen(100, seed=21))
        assert spec.shrink_to(4) == 4
        assert spec.shrink_to(2) == 2
        assert spec.shrink_to(1) is None

    def test_coded_shrink_respects_the_redundancy_floor(self):
        # (K', r) is valid only while r <= K'-1: with r=2 the smallest
        # re-plan is 3 workers.
        spec = CodedTeraSortSpec(data=teragen(100, seed=22), redundancy=2)
        assert spec.shrink_to(5) == 5
        assert spec.shrink_to(3) == 3
        assert spec.shrink_to(2) is None

    def test_base_spec_is_not_shrinkable(self):
        spec = MapReduceSpec(job=WordCountJob(), files=_corpus(K, R))
        assert spec.shrink_to(3) is None


def _failing_spec():
    # Validates (the count is given, so nothing stats the path) and then
    # fails on every rank's first read.
    return TeraSortSpec(input=FileSource("/nonexistent/in.bin", 0, 400))


class TestOneShotRun:
    """``repro.run(cluster, spec)``: a one-job session that always closes."""

    def test_inproc_leaves_no_pool_threads(self):
        data = teragen(800, seed=30)
        before = set(threading.enumerate())
        run = repro.run(repro.connect("inproc://3"), TeraSortSpec(data))
        validate_sorted_permutation(data, run.partitions)
        with pytest.raises(RuntimeError, match="No such file"):
            repro.run(
                repro.connect("inproc://3", timeout=5), _failing_spec()
            )
        leaked = [t for t in set(threading.enumerate()) - before if t.is_alive()]
        for t in leaked:
            t.join(5.0)
        assert not [t for t in leaked if t.is_alive()], leaked

    def test_proc_leaves_no_worker_processes(self):
        data = teragen(800, seed=31)
        run = repro.run(repro.connect("proc://3", timeout=60), TeraSortSpec(data))
        validate_sorted_permutation(data, run.partitions)
        assert multiprocessing.active_children() == []
        with pytest.raises(RuntimeError, match="No such file"):
            repro.run(repro.connect("proc://3", timeout=60), _failing_spec())
        assert multiprocessing.active_children() == []
