"""Chaos smoke: a fault matrix against the real TCP backend.

What CI's ``chaos-smoke`` job runs.  Each lane injects one failure mode
via ``$REPRO_FAULT_PLAN`` into a TeraSort over ``tcp://127.0.0.1`` with
real ``repro worker`` subprocesses kept under a supervisor restart loop
(the documented deployment mode), then asserts

* the job **completes with byte-identical output** to a fault-free
  reference run — via the session's automatic retry for the crash lanes
  (>= 2 recorded attempts, typed :class:`WorkerFailure` cause) and via
  speculative map re-execution for the straggler lane;
* wall time stays **bounded** (``--lane-timeout``, default 120 s — far
  below the failure-free x5-straggler time at CI scale, so a hang or a
  missed retry fails loudly).

Lanes: ``map-crash`` (worker hard-exits entering map), ``shuffle-crash``
(worker hard-exits on a mid-shuffle send), ``straggler-x5`` (one
worker's map paced 5x slower, speculation on), and a CodedTeraSort on
each coded shuffle engine whose rank 2 hard-exits before it has multicast
a packet its peers are already waiting for — ``coded-shuffle-crash``
(the default event loop: the peers learn of the death in its arrival
wait) and ``coded-serial-shuffle-crash`` (the Fig. 9(b) turn walk, asked
for by name).

Writes a JSON artifact with per-lane wall time and attempt counts.

Usage::

    PYTHONPATH=src python scripts/chaos_smoke.py [--nodes 4] \
        [--records 20000] [--out chaos_smoke.json]
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.kvpairs.datasource import TeragenSource  # noqa: E402
from repro.kvpairs.validation import validate_sorted_permutation  # noqa: E402
from repro.runtime.errors import WorkerFailure  # noqa: E402
from repro.runtime.process import ProcessCluster  # noqa: E402
from repro.runtime.tcp import TcpCluster  # noqa: E402
from repro.session import (  # noqa: E402
    CodedTeraSortSpec,
    Session,
    TeraSortSpec,
)
from repro.testing.faults import ENV_VAR  # noqa: E402

# The coded engines multicast (no ``send`` fault point): die entering
# Encode, which the event loop nests inside its shuffle span.
_ENCODE_CRASH = "stage.crash,rank=2,stage=encode,job_lt=1"

#: (lane name, fault plan, needs automatic retry to finish, coded
#: schedule — ``None`` is the uncoded sort)
LANES = [
    ("map-crash", "stage.crash,rank=1,stage=map,job_lt=1", True, None),
    ("shuffle-crash", "send.crash,rank=2,stage=shuffle,job_lt=1", True, None),
    ("straggler-x5", "stage.slow,rank=1,stage=map,factor=5", False, None),
    ("coded-shuffle-crash", _ENCODE_CRASH, True, "parallel"),
    ("coded-serial-shuffle-crash", _ENCODE_CRASH, True, "serial"),
]


class _Supervisor:
    """Keeps K `repro worker` subprocess slots alive (restart loop)."""

    def __init__(self, address: str, nodes: int, env: dict) -> None:
        self._address = address
        self._env = env
        self._procs = [self._spawn() for _ in range(nodes)]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _spawn(self):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--join", self._address, "--connect-timeout", "120", "--quiet"],
            env=self._env,
        )

    def _loop(self) -> None:
        while not self._stop.is_set():
            for i, proc in enumerate(self._procs):
                if proc.poll() is not None:
                    self._procs[i] = self._spawn()
            time.sleep(0.1)

    def halt(self) -> None:
        self._stop.set()
        self._thread.join()

    def reap(self) -> None:
        self.halt()
        for proc in self._procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()


def run_lane(name, plan, needs_retry, schedule, source, reference, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    env[ENV_VAR] = plan
    if schedule is None:
        spec = TeraSortSpec(
            input=source,
            speculation=not needs_retry,  # the straggler lane speculates
            speculation_min_wait=0.2,
        )
    else:
        # Every sort of one input is the same bytes: the coded lanes are
        # held against the uncoded fault-free reference too.
        spec = CodedTeraSortSpec(
            input=source, redundancy=2, schedule=schedule
        )
    with TcpCluster(
        args.nodes, "tcp://127.0.0.1:0", timeout=args.lane_timeout,
        connect_timeout=120, heartbeat_interval=0.1, failure_timeout=30.0,
    ) as cluster:
        print(f"[chaos/{name}] plan={plan!r} on {cluster.address}",
              flush=True)
        supervisor = _Supervisor(cluster.address, args.nodes, env)
        try:
            with Session(
                cluster, max_retries=2, retry_backoff=0.2
            ) as session:
                t0 = time.monotonic()
                handle = session.submit(spec)
                run = handle.result(timeout=args.lane_timeout)
                wall = time.monotonic() - t0
                supervisor.halt()
        finally:
            supervisor.reap()

    if [p.to_bytes() for p in run.partitions] != reference:
        raise SystemExit(f"[chaos/{name}] FAIL: output diverged from the "
                         f"fault-free reference")
    if wall > args.lane_timeout:
        raise SystemExit(f"[chaos/{name}] FAIL: took {wall:.1f}s "
                         f"(bound {args.lane_timeout}s)")
    attempts = len(handle.attempts)
    if needs_retry:
        if attempts < 2:
            raise SystemExit(f"[chaos/{name}] FAIL: expected >= 2 attempts, "
                             f"recorded {attempts}")
        first = handle.attempts[0].error
        if not isinstance(first, WorkerFailure):
            raise SystemExit(f"[chaos/{name}] FAIL: first attempt error is "
                             f"{type(first).__name__}, not WorkerFailure")
    spec_meta = run.meta.get("speculation")
    print(f"[chaos/{name}] ok: byte-identical in {wall:.1f}s, "
          f"{attempts} attempt(s)"
          + (f", speculation {spec_meta}" if spec_meta else ""), flush=True)
    return {
        "plan": plan,
        "wall_seconds": wall,
        "attempts": attempts,
        "speculation": spec_meta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--nodes", "-K", type=int, default=4)
    parser.add_argument("--records", "-n", type=int, default=20_000)
    parser.add_argument("--lane-timeout", type=float, default=120.0,
                        help="wall-time bound per lane (seconds)")
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="write the per-lane JSON artifact here")
    args = parser.parse_args(argv)
    os.environ.pop(ENV_VAR, None)  # the reference and driver run fault-free

    source = TeragenSource(args.records, seed=61)
    with Session(ProcessCluster(args.nodes, timeout=120)) as session:
        ref_run = session.submit(TeraSortSpec(input=source)).result()
    reference = [p.to_bytes() for p in ref_run.partitions]
    validate_sorted_permutation(source.load(), ref_run.partitions)

    results = {
        "nodes": args.nodes,
        "records": args.records,
        "lanes": {},
    }
    for name, plan, needs_retry, schedule in LANES:
        results["lanes"][name] = run_lane(
            name, plan, needs_retry, schedule, source, reference, args
        )
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(results, indent=2, sort_keys=True))
        print(f"wrote {args.out}")
    print(f"[chaos] PASS — {len(LANES)} fault lanes byte-identical within "
          f"{args.lane_timeout:.0f}s each on a real "
          f"{args.nodes}-worker TCP mesh")
    return 0


if __name__ == "__main__":
    sys.exit(main())
