"""Fault tolerance on the live backends.

End-to-end chaos coverage driven by ``$REPRO_FAULT_PLAN`` (worker crash
→ typed retry, retry storms and SIGSTOPped workers are the pool
contract, checked once for every backend in ``test_pool_contract.py``):

* speculative map re-execution backs up an injected 5x map straggler on
  a finished worker — forked processes or worker threads alike — keeps
  the output byte-identical either way the race resolves, and reports
  who backed up / who abandoned in ``run.meta``;
* a SIGKILLed worker's leaked spill dir is reaped by the next pool
  start, and concurrent sweeps (every worker of a re-forked pool sweeps
  at startup) race safely — exactly one reaper wins each orphan.
"""

from __future__ import annotations

import os
import threading

import pytest

from repro.cluster import connect
from repro.kvpairs.datasource import TeragenSource
from repro.kvpairs.spill import SPILL_DIR_PREFIX, SpillDir
from repro.kvpairs.teragen import teragen
from repro.kvpairs.validation import validate_sorted_permutation
from repro.session import Session, TeraSortSpec
from repro.testing.faults import ENV_VAR

K = 4


def _bytes(run):
    return [p.to_bytes() for p in run.partitions]


@pytest.fixture
def no_plan(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    return monkeypatch


def _assert_straggler_backed_up(no_plan, make_cluster):
    """5x map straggler: with speculation a finished worker runs the
    backup copy, output matches the speculation-off run byte for byte,
    and meta names the backup and the abandoning straggler.  The shards
    are big enough that the straggler's map stays well behind the
    backup's copy (at 12k records the straggler won about one run in
    ten)."""
    source = TeragenSource(100_000, seed=44)

    def sort(speculation: bool):
        with Session(make_cluster()) as s:
            return s.submit(TeraSortSpec(
                input=source,
                speculation=speculation,
                speculation_wait_factor=1.5,
                speculation_min_wait=0.1,
            )).result(timeout=120)

    no_plan.setenv(ENV_VAR, "stage.slow,rank=1,stage=map,factor=5")
    run_on = sort(True)
    run_off = sort(False)
    assert _bytes(run_on) == _bytes(run_off)
    validate_sorted_permutation(source.load(), run_on.partitions)
    spec_meta = run_on.meta["speculation"]
    assert spec_meta["backups"], spec_meta
    assert 1 not in spec_meta["backups"]  # the straggler can't back itself up
    assert run_off.meta.get("speculation") is None


def test_speculation_backs_up_straggler_byte_identical(no_plan):
    _assert_straggler_backed_up(
        no_plan,
        lambda: connect(f"proc://{K}", timeout=120, heartbeat_interval=0.05),
    )


def test_speculation_backs_up_straggler_on_worker_threads(no_plan):
    _assert_straggler_backed_up(
        no_plan,
        lambda: connect(f"inproc://{K}", timeout=120, heartbeat_interval=0.05),
    )


def test_speculation_noop_without_straggler_stays_identical(no_plan):
    """No straggler: speculation never triggers (meta shows no backups)
    and the output still matches the plain path."""
    source = TeragenSource(4000, seed=45)
    cluster = connect(f"proc://{K}", timeout=60, heartbeat_interval=0.05)
    with Session(cluster) as s:
        run = s.submit(
            TeraSortSpec(input=source, speculation=True)
        ).result(timeout=60)
        plain = s.submit(TeraSortSpec(input=source)).result(timeout=60)
    assert _bytes(run) == _bytes(plain)
    assert run.meta["speculation"] == {"backups": [], "abandoned": []}


def test_speculation_spec_validation():
    spec = TeraSortSpec(data=teragen(100, seed=1), speculation=True)
    with pytest.raises(ValueError, match="speculation requires input="):
        spec.validate(2)
    spec = TeraSortSpec(
        input=TeragenSource(100), speculation=True, memory_budget=1 << 20
    )
    with pytest.raises(ValueError, match="in-memory path"):
        spec.validate(2)
    spec = TeraSortSpec(
        input=TeragenSource(100), speculation=True,
        speculation_wait_factor=0.5,
    )
    with pytest.raises(ValueError, match="wait_factor"):
        spec.validate(2)


def test_crashed_workers_spill_dir_reaped_on_next_pool_start(
    no_plan, tmp_path
):
    """SIGKILL-style crash leaks the spill dir (atexit skipped); the
    retry's re-forked workers sweep it at startup."""
    no_plan.setenv("REPRO_SPILL_DIR", str(tmp_path))
    data = teragen(3000, seed=47)
    budget = 12_000  # small enough to force spilling
    no_plan.setenv(ENV_VAR, "stage.crash,rank=1,stage=reduce,job_lt=1")
    with Session(
        connect(f"proc://{K}", timeout=120), max_retries=1, retry_backoff=0.05
    ) as s:
        handle = s.submit(TeraSortSpec(data=data, memory_budget=budget))
        run = handle.result(timeout=120)
    validate_sorted_permutation(data, run.partitions)
    assert len(handle.attempts) == 2
    # By reduce-time the crashed attempt had spilled; after the retry's
    # sweep nothing from a dead pid remains.
    leftovers = [
        name for name in os.listdir(tmp_path)
        if name.startswith(SPILL_DIR_PREFIX)
    ]
    assert leftovers == [], leftovers


def test_concurrent_sweeps_race_safely(tmp_path):
    """Many sweepers, one orphan each: the rename-claim protocol gives
    every dir exactly one reaper and no sweeper errors out."""
    base = str(tmp_path)
    for i in range(8):
        os.makedirs(os.path.join(base, f"{SPILL_DIR_PREFIX}-4194305-j{i}-x"))
    results = {}

    def sweep(idx):
        results[idx] = SpillDir.sweep_stale(base)

    threads = [
        threading.Thread(target=sweep, args=(i,)) for i in range(6)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    reaped = [path for removed in results.values() for path in removed]
    assert len(reaped) == len(set(reaped)) == 8  # each orphan reaped once
    assert not [
        n for n in os.listdir(base) if n.startswith(SPILL_DIR_PREFIX)
    ]
