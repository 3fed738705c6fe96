"""Fault-injection harness unit tests (parsing, matching, pacing).

The ``$REPRO_FAULT_PLAN`` grammar and firing semantics that the chaos
tests, the CI chaos smoke, and the straggler bench lanes all depend on:
clause parsing (including every rejection), match-key precedence
(``rank``/``stage``/``peer``/``job``/``job_lt``/``times``), the
env-string cache, and the :class:`Pacer` contract — total injected delay
is ``(factor - 1) x work`` regardless of checkpoint granularity, and a
``poll`` callback preempts the remaining sleep the moment it fires.

Crash actions are exercised end to end by ``test_pool_contract.py`` on
every backend: a worker process exits, a worker thread dies on its own.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.testing import faults
from repro.testing.faults import ENV_VAR, FaultPlan, FaultSpec, Pacer


class TestParse:
    def test_full_grammar(self):
        plan = FaultPlan.parse(
            "stage.slow,rank=2,stage=map,factor=5;"
            "send.delay,rank=1,peer=3,secs=0.05;"
            "recv.crash,rank=0,job=2,times=3;"
            "stage.crash,rank=1,stage=shuffle,job_lt=1"
        )
        slow, delay, crash, crash2 = plan.specs
        assert (slow.point, slow.action, slow.rank, slow.stage, slow.factor) \
            == ("stage", "slow", 2, "map", 5.0)
        assert (delay.peer, delay.secs) == (3, 0.05)
        assert (crash.job, crash.times) == (2, 3)
        assert (crash2.job_lt, crash2.times) == (1, 1)

    def test_crash_defaults_to_one_firing(self):
        (spec,) = FaultPlan.parse("stage.crash,rank=1").specs
        assert spec.times == 1
        (spec,) = FaultPlan.parse("stage.delay,secs=0.1").specs
        assert spec.times is None  # non-crash actions fire every match

    def test_empty_clauses_skipped(self):
        assert FaultPlan.parse(";; stage.delay,secs=1 ;").specs[0].secs == 1.0

    @pytest.mark.parametrize("bad", [
        "stage.explode",                 # unknown action
        "socket.crash",                  # unknown point
        "stagecrash",                    # no dot
        "send.slow,factor=2",            # slow is stage-only
        "stage.delay,secs",              # not key=value
        "stage.delay,wat=1",             # unknown key
        "stage.crash,rank=one",          # non-integer rank
        "stage.slow,factor=fast",        # non-float factor
    ])
    def test_rejected_clauses(self, bad):
        with pytest.raises(ValueError, match="bad fault clause"):
            FaultPlan.parse(bad)


class TestMatching:
    def test_match_keys(self):
        spec = FaultSpec(point="send", action="delay", rank=1, stage="shuffle",
                         peer=3, job=2)
        assert spec.matches(1, "shuffle", 2, peer=3)
        assert not spec.matches(0, "shuffle", 2, peer=3)   # rank
        assert not spec.matches(1, "map", 2, peer=3)       # stage
        assert not spec.matches(1, "shuffle", 1, peer=3)   # job
        assert not spec.matches(1, "shuffle", 2, peer=0)   # peer
        # Unconstrained keys match anything.
        assert FaultSpec(point="stage", action="delay").matches(7, "x", None)

    def test_job_lt_gates_retries(self):
        spec = FaultSpec(point="stage", action="crash", job_lt=2)
        assert spec.matches(0, "map", 0) and spec.matches(0, "map", 1)
        assert not spec.matches(0, "map", 2)    # the retry attempt survives
        assert not spec.matches(0, "map", None)  # unknown job never matches

    def test_times_budget(self):
        spec = FaultSpec(point="stage", action="delay", times=2)
        assert spec.matches(0, "map", 0)
        spec.fired = 2
        assert not spec.matches(0, "map", 0)


class TestHooks:
    def test_stage_delay_and_slow(self):
        plan = FaultPlan.parse(
            "stage.delay,rank=0,stage=map,secs=0.03;"
            "stage.slow,rank=0,stage=map,factor=3"
        )
        t0 = time.monotonic()
        pacer = plan.stage_enter(0, "map", job=0)
        assert time.monotonic() - t0 >= 0.03
        assert isinstance(pacer, Pacer) and pacer.factor == 3.0
        assert plan.stage_enter(1, "map", job=0) is None
        assert plan.stage_enter(0, "reduce", job=0) is None

    def test_comm_delay(self):
        plan = FaultPlan.parse("send.delay,rank=1,peer=2,secs=0.03")
        t0 = time.monotonic()
        plan.comm_op("send", 1, 2, "shuffle", 0)
        assert time.monotonic() - t0 >= 0.03
        t0 = time.monotonic()
        plan.comm_op("recv", 1, 2, "shuffle", 0)  # wrong point: no delay
        plan.comm_op("send", 1, 3, "shuffle", 0)  # wrong peer: no delay
        assert time.monotonic() - t0 < 0.02

    def test_env_cache_tracks_value(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert faults.active_plan() is None
        monkeypatch.setenv(ENV_VAR, "stage.delay,secs=0.5")
        plan = faults.active_plan()
        assert plan is not None and plan.specs[0].secs == 0.5
        assert faults.active_plan() is plan  # cached on the string value
        monkeypatch.setenv(ENV_VAR, "")
        assert faults.active_plan() is None

    def test_crash_on_a_worker_thread_is_that_threads_death(
        self, monkeypatch
    ):
        # os._exit here would end the test run.  Each thread is a fresh
        # worker: its firing counts are its own, like a process's.
        monkeypatch.setenv(ENV_VAR, "stage.crash,rank=0")
        outcomes = []

        class Died(BaseException):
            pass

        def worker():
            def die():
                raise Died

            faults.this_thread.die = die
            try:
                faults.stage_enter(0, "map", 0)
            except Died:
                outcomes.append("died")
            outcomes.append(faults.stage_enter(0, "map", 1))  # times=1

        for _ in range(2):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert outcomes == ["died", None, "died", None]

    def test_module_hooks_are_noops_without_plan(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert faults.stage_enter(0, "map", 0) is None
        faults.comm_op("send", 0, 1, "map", 0)  # must not raise


class TestPacer:
    def test_total_delay_independent_of_granularity(self):
        def run(checkpoints: int) -> float:
            pacer = Pacer(factor=3.0)
            t0 = time.monotonic()
            for _ in range(checkpoints):
                time.sleep(0.03 / checkpoints)  # the "real work"
                pacer.checkpoint()
            return time.monotonic() - t0

        coarse, fine = run(1), run(6)
        # Both stretch ~0.03s of work to ~0.09s (plus scheduler noise).
        assert 0.08 <= coarse <= 0.30
        assert 0.08 <= fine <= 0.30

    def test_one_time_extra_paid_once(self):
        pacer = Pacer(factor=1.0, secs=0.04)
        t0 = time.monotonic()
        pacer.checkpoint()
        assert time.monotonic() - t0 >= 0.04
        t0 = time.monotonic()
        pacer.checkpoint()
        assert time.monotonic() - t0 < 0.03

    def test_poll_preempts_remaining_delay(self):
        pacer = Pacer(factor=1.0, secs=5.0)
        calls = []

        def poll():
            calls.append(None)
            return len(calls) >= 2

        t0 = time.monotonic()
        fired = pacer.checkpoint(poll)
        # One 20ms slice, then the poll fires: 5s of delay is dropped.
        assert fired and time.monotonic() - t0 < 1.0

    def test_poll_false_sleeps_full_delay(self):
        pacer = Pacer(factor=1.0, secs=0.05)
        t0 = time.monotonic()
        fired = pacer.checkpoint(lambda: False)
        assert not fired and time.monotonic() - t0 >= 0.05
