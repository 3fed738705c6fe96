"""Deterministic fault injection driven by ``$REPRO_FAULT_PLAN``.

The live backends are instrumented with three *fault points*:

``stage``
    fires when a worker program enters a stage
    (:class:`~repro.runtime.program.NodeProgram`'s stage scope);
``send`` / ``recv``
    fire on every blocking :meth:`Comm.send` / :meth:`Comm.recv`.

A *fault plan* is a semicolon-separated list of clauses, each
``<point>.<action>[,key=value,...]``::

    stage.crash,rank=1,stage=shuffle          # hard-exit rank 1 entering shuffle
    stage.slow,rank=2,stage=map,factor=5      # rank 2's map runs 5x slower
    stage.delay,rank=0,stage=reduce,secs=0.2  # 200ms pause entering reduce
    send.delay,rank=1,peer=3,secs=0.05        # 50ms before each send 1->3
    recv.crash,rank=2,times=1                 # die on rank 2's first recv

Actions: ``crash`` (``os._exit(137)`` — simulates SIGKILL, skips atexit
handlers so spill dirs leak like a real kill), ``delay`` (sleep ``secs``),
``slow`` (stage point only: a :class:`Pacer` that stretches the stage's
measured work by ``factor``, applied at the program's fault checkpoints).

On a worker thread (``inproc://``) a ``crash`` is that worker's death,
``this_thread.die``, and does what a killed process does: no report (the
pool sees the control channel close: ``WorkerFailure(rank, stage)``),
its rank's source closed in every peer's mailbox ("peer connection
lost"), and only that thread unwinds.

Match keys: ``rank`` (worker rank), ``stage`` (stage name), ``peer``
(send/recv only), ``job`` (exact job sequence number), ``job_lt`` (fires
only while the job sequence is below N — lets a plan crash attempts
0..N-1 and then let the retry succeed without editing the environment),
``times`` (max firings per worker — per process, or per worker thread;
default 1 for ``crash``, unlimited otherwise).

The plan is read from the environment on every lookup (cached on the
string value, per thread), so forked pool workers and ``repro worker``
subprocesses pick it up from their inherited environment with no
plumbing.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

ENV_VAR = "REPRO_FAULT_PLAN"

_POINTS = ("stage", "send", "recv")
_ACTIONS = ("crash", "delay", "slow")

#: Exit code used by injected crashes; chosen to look like SIGKILL (137).
CRASH_EXIT_CODE = 137


class _ThreadState(threading.local):
    #: The parsed plan, keyed on its raw env string: a worker thread's
    #: firing counts are its own, as a worker process's are.
    cache: Tuple[Optional[str], Optional["FaultPlan"]] = (None, None)
    #: A worker thread's death (it must raise); ``None``: exit the process.
    die: Optional[Callable[[], None]] = None


this_thread = _ThreadState()


def _crash() -> None:
    if this_thread.die is not None:
        this_thread.die()
    os._exit(CRASH_EXIT_CODE)


class Pacer:
    """Stretches a stage's elapsed work time by ``factor`` (plus ``secs``).

    ``checkpoint()`` sleeps ``(factor - 1) * elapsed_since_last_checkpoint``
    and resets the clock, so the *total* injected delay is
    ``(factor - 1) x (real work time)`` regardless of how often the
    program checkpoints — a windowed map and a single-shot map see the
    same slowdown, which keeps speculation-on and speculation-off bench
    lanes comparable.

    ``poll``: an injected slowdown must stay *preemptible* the way real
    slow work at a window boundary is — a program that can abandon its
    work mid-stage (speculative map) passes its abandon-check and the
    sleep runs in short slices, returning ``True`` (remaining delay
    dropped) as soon as the check fires.
    """

    _POLL_SLICE = 0.02

    def __init__(self, factor: float, secs: float = 0.0) -> None:
        self.factor = factor
        self._extra = secs  # one-time additive delay, paid at first checkpoint
        self._last = time.monotonic()

    def checkpoint(self, poll: Optional[Callable[[], bool]] = None) -> bool:
        now = time.monotonic()
        delay = (self.factor - 1.0) * (now - self._last) + self._extra
        self._extra = 0.0
        fired = False
        if delay > 0:
            if poll is None:
                time.sleep(delay)
            else:
                end = time.monotonic() + delay
                while True:
                    if poll():
                        fired = True
                        break
                    remaining = end - time.monotonic()
                    if remaining <= 0:
                        break
                    time.sleep(min(self._POLL_SLICE, remaining))
        self._last = time.monotonic()
        return fired


@dataclass
class FaultSpec:
    """One parsed plan clause."""

    point: str
    action: str
    rank: Optional[int] = None
    stage: Optional[str] = None
    peer: Optional[int] = None
    job: Optional[int] = None
    job_lt: Optional[int] = None
    secs: float = 0.0
    factor: float = 1.0
    times: Optional[int] = None  # None = unlimited
    fired: int = field(default=0, compare=False)

    def matches(
        self,
        rank: int,
        stage: Optional[str],
        job: Optional[int],
        peer: Optional[int] = None,
    ) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.rank is not None and rank != self.rank:
            return False
        if self.stage is not None and stage != self.stage:
            return False
        if self.peer is not None and peer != self.peer:
            return False
        if self.job is not None and job != self.job:
            return False
        if self.job_lt is not None and (job is None or job >= self.job_lt):
            return False
        return True


class FaultPlan:
    """A parsed ``$REPRO_FAULT_PLAN``; firing state is per worker."""

    def __init__(self, specs: List[FaultSpec]) -> None:
        self.specs = specs

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for raw in text.split(";"):
            clause = raw.strip()
            if not clause:
                continue
            head, _, rest = clause.partition(",")
            point, dot, action = head.strip().partition(".")
            if not dot or point not in _POINTS or action not in _ACTIONS:
                raise ValueError(
                    f"bad fault clause {clause!r}: expected "
                    f"<{'|'.join(_POINTS)}>.<{'|'.join(_ACTIONS)}>"
                )
            if action == "slow" and point != "stage":
                raise ValueError(
                    f"bad fault clause {clause!r}: 'slow' only applies to "
                    f"the 'stage' point (use 'delay' for send/recv)"
                )
            spec = FaultSpec(point=point, action=action)
            if rest:
                for kv in rest.split(","):
                    key, eq, value = kv.strip().partition("=")
                    if not eq:
                        raise ValueError(
                            f"bad fault clause {clause!r}: {kv!r} is not "
                            f"key=value"
                        )
                    try:
                        if key in ("rank", "peer", "job", "job_lt", "times"):
                            setattr(spec, key, int(value))
                        elif key in ("secs", "factor"):
                            setattr(spec, key, float(value))
                        elif key == "stage":
                            spec.stage = value
                        else:
                            raise ValueError(f"unknown key {key!r}")
                    except ValueError as exc:
                        raise ValueError(
                            f"bad fault clause {clause!r}: {exc}"
                        ) from None
            if spec.action == "crash" and spec.times is None:
                spec.times = 1
            specs.append(spec)
        return cls(specs)

    # -- fault points --------------------------------------------------------

    def stage_enter(
        self, rank: int, stage: str, job: Optional[int]
    ) -> Optional[Pacer]:
        """Fire stage-entry faults; returns a Pacer when a slowdown matched."""
        pacer: Optional[Pacer] = None
        for spec in self.specs:
            if spec.point != "stage" or not spec.matches(rank, stage, job):
                continue
            spec.fired += 1
            if spec.action == "crash":
                _crash()
            elif spec.action == "delay":
                time.sleep(spec.secs)
            elif spec.action == "slow" and pacer is None:
                pacer = Pacer(spec.factor, spec.secs)
        return pacer

    def comm_op(
        self,
        point: str,
        rank: int,
        peer: int,
        stage: Optional[str],
        job: Optional[int],
    ) -> None:
        """Fire send/recv faults for one blocking comm operation."""
        for spec in self.specs:
            if spec.point != point or not spec.matches(rank, stage, job, peer):
                continue
            spec.fired += 1
            if spec.action == "crash":
                _crash()
            elif spec.action == "delay":
                time.sleep(spec.secs)


def active_plan() -> Optional[FaultPlan]:
    """The plan from ``$REPRO_FAULT_PLAN``, or None when unset/empty.

    Cached on the raw env string: re-parsing on change keeps the hooks
    cheap while letting tests monkeypatch the variable between jobs.
    """
    text = os.environ.get(ENV_VAR) or None
    cached_text, cached_plan = this_thread.cache
    if text == cached_text:
        return cached_plan
    plan = FaultPlan.parse(text) if text else None
    this_thread.cache = (text, plan)
    return plan


def stage_enter(rank: int, stage: str, job: Optional[int]) -> Optional[Pacer]:
    """Module-level stage hook; no-op (returns None) without a plan."""
    plan = active_plan()
    if plan is None:
        return None
    return plan.stage_enter(rank, stage, job)


def comm_op(
    point: str, rank: int, peer: int, stage: Optional[str], job: Optional[int]
) -> None:
    """Module-level send/recv hook; no-op without a plan."""
    plan = active_plan()
    if plan is not None:
        plan.comm_op(point, rank, peer, stage, job)
