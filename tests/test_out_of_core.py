"""Out-of-core end-to-end: bounded-memory sorts byte-identical to in-RAM.

The acceptance criteria of the out-of-core data plane:

* a (Coded)TeraSort of a dataset ~8x the memory budget completes with
  output byte-identical to the in-memory path, on both schedules;
* peak per-worker record-buffer residency (the ResidencyMeter readout
  shipped home in ``SortRun.meta``) stays within the budget;
* ``output_dir`` streams partitions to part files (``FileSource``
  results) that validate with the streaming validator;
* per-job spill dirs are removed on success *and* on failure;
* Coded MapReduce under a budget really spills (values far past
  ``MIN_MEMORY_BUDGET``), with ``DataSource`` payloads and unchanged
  outputs, on threads and on processes.
"""

from __future__ import annotations

import glob
import hashlib
import os
from typing import Any, Dict, Mapping, Sequence, Tuple

import numpy as np
import pytest

from repro.core.cmr import MapReduceJob
from repro.core.outofcore import MIN_MEMORY_BUDGET
from repro.kvpairs.datasource import FileSource, TeragenSource
from repro.kvpairs.records import RecordBatch
from repro.kvpairs.spill import spill_base_dir
from repro.kvpairs.validation import validate_sorted_iter
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.session import (
    CodedTeraSortSpec,
    MapReduceSpec,
    Session,
    TeraSortSpec,
)

N_RECORDS = 60_000  # 6 MB dataset
BUDGET = 750_000  # dataset = 8x budget


@pytest.fixture(autouse=True)
def _isolated_spill_base(tmp_path, monkeypatch):
    """Own spill base per test: the `_spill_dirs()` before/after checks
    must not race other xdist workers' concurrent spill activity."""
    monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path / "spill-base"))


def _spill_dirs():
    return set(glob.glob(os.path.join(spill_base_dir(), "repro-spill-*")))


def _materialize(part) -> RecordBatch:
    return part.load() if isinstance(part, FileSource) else part


def _assert_identical(ref_run, oc_run):
    assert len(ref_run.partitions) == len(oc_run.partitions)
    for rank, (a, b) in enumerate(
        zip(ref_run.partitions, oc_run.partitions)
    ):
        assert np.array_equal(
            _materialize(a).array, _materialize(b).array
        ), f"rank {rank} output diverged"


@pytest.fixture(scope="module")
def source():
    return TeragenSource(N_RECORDS, seed=42)


@pytest.fixture(scope="module")
def reference(source):
    """In-memory runs to compare against (per algorithm/schedule)."""
    with Session(ThreadCluster(6)) as session:
        wide = session.run(TeraSortSpec(input=source))
    with Session(ThreadCluster(4)) as session:
        return {
            "terasort-k6": wide,  # the grouped cells run (K, g) = (6, 3)
            "terasort": session.run(TeraSortSpec(input=source)),
            "serial": session.run(
                CodedTeraSortSpec(
                    input=source, redundancy=2, schedule="serial"
                )
            ),
            "parallel": session.run(
                CodedTeraSortSpec(
                    input=source, redundancy=2, schedule="parallel"
                )
            ),
        }


class TestBoundedMemorySorts:
    def test_terasort_8x_budget(self, source, reference, tmp_path):
        before = _spill_dirs()
        with Session(ThreadCluster(4)) as session:
            run = session.run(
                TeraSortSpec(
                    input=source,
                    memory_budget=BUDGET,
                    output_dir=str(tmp_path / "out"),
                )
            )
        _assert_identical(reference["terasort"], run)
        assert all(isinstance(p, FileSource) for p in run.partitions)
        assert run.meta["memory_budget"] == BUDGET
        assert 0 < run.meta["oc_peak_resident_bytes"] <= BUDGET
        assert run.meta["oc_spilled_bytes"] > source.nbytes  # map + recv
        assert _spill_dirs() == before  # per-job dirs removed on success
        n = validate_sorted_iter(
            b for p in run.partitions for b in p.iter_batches()
        )
        assert n == N_RECORDS

    @pytest.mark.parametrize("k,group_size", [(4, None), (6, 3)])
    @pytest.mark.parametrize("schedule", ["serial", "parallel"])
    def test_coded_8x_budget_both_schedules(
        self, source, reference, schedule, k, group_size, tmp_path
    ):
        before = _spill_dirs()
        with Session(ThreadCluster(k)) as session:
            run = session.run(
                CodedTeraSortSpec(
                    input=source,
                    redundancy=2,
                    group_size=group_size,
                    schedule=schedule,
                    memory_budget=BUDGET,
                    output_dir=str(tmp_path / "out"),
                )
            )
        _assert_identical(
            reference[schedule if group_size is None else "terasort-k6"], run
        )
        assert 0 < run.meta["oc_peak_resident_bytes"] <= BUDGET
        assert run.meta["oc_spill_runs"] > 0
        assert _spill_dirs() == before

    def test_materialized_output_without_output_dir(self, source, reference):
        # No output_dir: partitions come back resident (and are charged,
        # so the peak may legitimately exceed tiny budgets).
        with Session(ThreadCluster(4)) as session:
            run = session.run(
                TeraSortSpec(input=source, memory_budget=BUDGET * 2)
            )
        assert all(isinstance(p, RecordBatch) for p in run.partitions)
        _assert_identical(reference["terasort"], run)

    def test_process_backend_byte_identity(self, source, reference, tmp_path):
        with Session(ProcessCluster(4, timeout=120.0)) as session:
            run = session.run(
                CodedTeraSortSpec(
                    input=source,
                    redundancy=2,
                    schedule="parallel",
                    memory_budget=BUDGET,
                    output_dir=str(tmp_path / "out"),
                )
            )
        _assert_identical(reference["parallel"], run)
        assert 0 < run.meta["oc_peak_resident_bytes"] <= BUDGET
        # Residency was measured per forked worker, one meter each.
        assert len(run.meta["oc_per_node_peak_resident_bytes"]) == 4

    def test_spill_dirs_removed_on_failure(self, tmp_path):
        # A file source whose path exists on the driver but whose records
        # lie about the range -> workers fail mid-Map, after their spill
        # dir exists.  The dir must still be gone afterwards.
        path = str(tmp_path / "short.bin")
        from repro.kvpairs.teragen import teragen_to_file

        teragen_to_file(path, 1_000, seed=0)
        bad = FileSource(path, 0, 50_000)  # claims 50k records, has 1k
        before = _spill_dirs()
        with Session(ThreadCluster(4)) as session:
            handle = session.submit(
                TeraSortSpec(input=bad, memory_budget=BUDGET)
            )
            assert handle.exception() is not None
        assert _spill_dirs() == before


class TestSpecValidation:
    def test_exactly_one_input(self, source):
        data = TeragenSource(100, seed=0).load()
        with Session(ThreadCluster(2)) as session:
            with pytest.raises(ValueError, match="exactly one"):
                session.submit(TeraSortSpec())
            with pytest.raises(ValueError, match="exactly one"):
                session.submit(TeraSortSpec(data=data, input=source))
            with pytest.raises(ValueError, match="DataSource"):
                session.submit(TeraSortSpec(input=data))
            with pytest.raises(ValueError, match="RecordBatch"):
                session.submit(CodedTeraSortSpec(data=source, redundancy=1))
            with pytest.raises(ValueError, match="memory_budget"):
                session.submit(
                    TeraSortSpec(data=data, memory_budget=100)
                )
            with pytest.raises(ValueError, match="output_dir"):
                session.submit(TeraSortSpec(data=data, output_dir="/tmp/x"))


class _RecordBytesJob(MapReduceJob):
    """Per key-prefix bucket, the raw bytes of a file's records: values of
    ~50 KB, far past ``MIN_MEMORY_BUDGET``.  Payloads are RecordBatches."""

    name = "record-bytes"

    def map_file(self, file_id: int, payload: Any) -> Mapping[int, Any]:
        assert isinstance(payload, RecordBatch), type(payload)
        raw = payload.raw_view()
        prefix = raw[:, 0] % 4
        return {q: raw[prefix == q].tobytes() for q in range(4)}

    def reduce(self, q: int, values: Sequence[Tuple[int, Any]]) -> Any:
        blob = b"".join(value for _, value in values)
        return len(blob), hashlib.sha256(blob).hexdigest()


class TestCMROutOfCore:
    @pytest.mark.parametrize("scheme", ["uncoded", "coded"])
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_budget_spills_datasource_payloads(self, backend, scheme):
        src = TeragenSource(12_000, seed=9)
        files = [src.subrange(i * 2_000, 2_000) for i in range(6)]
        spec = MapReduceSpec(
            job=_RecordBytesJob(), files=files, redundancy=2, scheme=scheme
        )
        cluster = (
            ThreadCluster(4) if backend == "thread"
            else ProcessCluster(4, timeout=120.0)
        )
        before = _spill_dirs()
        with Session(cluster) as session:
            plain = session.run(spec)
            budgeted = session.run(spec.with_(memory_budget=MIN_MEMORY_BUDGET))
        assert plain.outputs == budgeted.outputs
        assert sum(n for n, _ in budgeted.outputs.values()) == src.nbytes
        assert budgeted.meta["oc_spilled_bytes"] > 0
        assert "oc_spilled_bytes" not in plain.meta
        assert _spill_dirs() == before
