"""Typed runtime failures for the live backends.

The live runtime used to surface every failure mode — a crashed worker,
a wedged socket, a driver-side timeout — as a bare ``RuntimeError`` (or
an EOF cascade that eventually became one).  Fault-tolerant execution
needs to *distinguish* them: a :class:`WorkerFailure` is retryable (the
job's inputs are deterministic descriptors, so a re-run is
byte-identical), while a program bug raised inside a stage must fail the
handle immediately and must never be retried.

Both classes extend :class:`CommError` (itself a ``RuntimeError``,
re-exported by :mod:`repro.runtime.api`), so every ``except CommError``
/ ``except RuntimeError`` site catches them.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


class CommError(RuntimeError):
    """Raised on protocol misuse (bad ranks, reserved tags, dead peers)."""


class WorkerFailure(CommError):
    """A worker died or went silent mid-job: infrastructure, not program.

    Attributes:
        rank: the failed worker's rank (``-1`` when unattributable).
        stage: the last stage the worker was known to be executing.
        cause: human-readable cause (EOF, heartbeat timeout, crash, ...).

    This is the *retryable* failure class: the job queue behind
    :class:`~repro.session.Session` and the sort service re-submits a
    job that raised ``WorkerFailure`` (up to ``max_retries``),
    because job specs are deterministic descriptors and a re-run produces
    byte-identical output — except a :class:`JobDeadlineExpired`.
    """

    def __init__(self, rank: int, stage: str, cause: str) -> None:
        super().__init__(
            f"worker {rank} failed in stage {stage!r}: {cause}"
        )
        self.rank = rank
        self.stage = stage
        self.cause = cause


class JobDeadlineExpired(WorkerFailure):
    """The pool's whole-job deadline passed with members still pending.

    ``rank`` is ``-1``: no one worker is to blame.  Every caller that
    catches a :class:`WorkerFailure` still catches it, but the job queue
    does not retry it: a job that outran its deadline will most likely
    outrun it again, and each retry would cost another full timeout.
    """


class RuntimeTimeoutError(CommError):
    """A worker's bounded wait expired (a receive or request timeout).

    Raised inside a job's program only: as a :class:`CommError` it
    reaches the driver as that worker's comm failure, i.e. as a
    :class:`WorkerFailure` — which a job queue retries like any other.
    The pool's whole-job deadline is a :class:`JobDeadlineExpired`, which
    is not retried.

    Attributes:
        peer: the remote rank being waited on, or ``None``.
        stage: the stage active when the wait expired, or ``None``.
        seconds: the timeout that expired, or ``None`` if unknown.
    """

    def __init__(
        self,
        message: str,
        peer: Optional[int] = None,
        stage: Optional[str] = None,
        seconds: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.peer = peer
        self.stage = stage
        self.seconds = seconds


def job_failure(
    backend: str,
    program_errors: Sequence[str],
    infra_failures: Sequence[Tuple[int, str, str]],
    expired: bool = False,
) -> RuntimeError:
    """Classify a pool job's collected failures into one exception.

    Shared by the process and TCP pool drivers.  Any *program* error (a
    worker's job raised) dominates: the job failed on its own merits and
    must not be retried, so the result is a plain :class:`RuntimeError` —
    even though the crash's EOF cascade usually adds comm failures from
    every surviving worker.  Pure infrastructure failures produce a
    :class:`WorkerFailure` attributed to the first failing rank (the
    retryable class), or a :class:`JobDeadlineExpired` when ``expired``
    (the first failure is the pool's deadline).  Every collected failure
    line is kept in the message either way.
    """
    lines: List[str] = list(program_errors)
    lines += [
        f"worker {rank} failed in stage {stage!r}: {cause}"
        for rank, stage, cause in infra_failures
    ]
    message = f"{backend} job failed:\n" + "\n".join(lines)
    if program_errors or not infra_failures:
        return RuntimeError(message)
    rank, stage, cause = infra_failures[0]
    failure = (JobDeadlineExpired if expired else WorkerFailure)(
        rank, stage, cause
    )
    failure.args = (message,)
    return failure
