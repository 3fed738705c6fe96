"""The coded shuffle's event loop as everyone's default.

* the three places the default schedule is written agree, and the
  Fig. 9(b) walk is still there when asked for by name;
* the loop starts no thread per receive: on the TREE multicast an
  interior receive is a lazy request that relays through the async
  sender — same hops and same traffic records as the relay-thread engine
  it replaced (pins taken from that engine), byte-identical output;
* relay liveness: the loop sleeps on *any* posted receive, so two ranks
  that are each the tree relay of what the other waits for cannot
  deadlock — a loop that drives only a chosen receive does;
* a mailbox holds what is in flight, not every tag it ever saw.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import threading

import pytest

import repro
from repro import CodedTeraSortSpec, MapReduceSpec, TeraSortSpec
from repro.cli import build_parser
from repro.core.coded_terasort import _coded_terasort_program
from repro.kvpairs.teragen import teragen
from repro.runtime.api import BACKEND_TIMEOUT, Comm, MulticastMode
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.program import (
    NodeProgram,
    PreparedJob,
    streaming_multicast_shuffle,
)


# -- (i) one default, three declarations -------------------------------------


def test_the_three_default_declarations_agree_on_the_event_loop():
    fields = {
        cls: next(
            f.default for f in dataclasses.fields(cls) if f.name == "schedule"
        )
        for cls in (CodedTeraSortSpec, MapReduceSpec)
    }
    flag = build_parser().parse_args(["sort"]).schedule
    assert set(fields.values()) | {flag} == {"parallel"}


def test_serial_by_name_still_walks_fig_9b():
    data = teragen(1200, seed=3)
    run = repro.run(
        ThreadCluster(4, recv_timeout=30),
        CodedTeraSortSpec(data, 2, schedule="serial"),
    )
    assert run.meta["schedule"] == "serial"
    assert "schedule_rounds" not in run.meta  # the event loop's stamp
    default = repro.run(
        ThreadCluster(4, recv_timeout=30), CodedTeraSortSpec(data, 2)
    )
    assert default.meta["schedule"] == "parallel"
    assert default.meta["schedule_rounds"] >= 1
    assert [p.to_bytes() for p in run.partitions] == [
        p.to_bytes() for p in default.partitions
    ]
    # The wire next to the load: r unicasts leave the sender per packet.
    for either in (run, default):
        assert either.meta["wire_bytes"] == either.traffic.wire_bytes("shuffle")
        assert either.meta["wire_per_load"] == pytest.approx(2.0)


# -- (ii) no thread per receive ----------------------------------------------

K = 8
#: r -> (sha256 prefix of the sorted (stage, kind, src, dsts, bytes)
#: multiset, {kind: records}, {kind: payload bytes}) of the K = 8 job
#: below with ``record_relays=True`` on the relay-thread engine (PR 23) —
#: the same on ThreadCluster(TREE) and ProcessCluster, overlap or not.
PINS = {
    3: ("f7e06ad589a1ffb3", {"multicast": 280, "relay": 840},
        {"multicast": 220_841, "relay": 662_523}),
    5: ("6cd35f98ebf32712", {"multicast": 168, "relay": 840},
        {"multicast": 94_716, "relay": 473_580}),
}


@pytest.fixture(scope="module")
def data():
    return teragen(8000, seed=7)


@pytest.fixture(scope="module")
def uncoded(data):
    run = repro.run(ThreadCluster(K, recv_timeout=60), TeraSortSpec(data))
    return [p.to_bytes() for p in run.partitions]


def _assert_pinned_traffic(traffic, r):
    records = [
        (t.stage, t.kind, t.src, t.dsts, t.payload_bytes)
        for t in traffic.records
    ]
    counts = collections.Counter(rec[1] for rec in records)
    nbytes = collections.Counter()
    for rec in records:
        nbytes[rec[1]] += rec[4]
    digest = hashlib.sha256(
        repr(sorted(collections.Counter(records).items())).encode()
    ).hexdigest()[:16]
    assert (digest, dict(counts), dict(nbytes)) == PINS[r]


@pytest.mark.parametrize("overlap", [False, True])
@pytest.mark.parametrize("r", [3, 5])
def test_inproc_tree_starts_no_relay_thread(
    r, overlap, data, uncoded, monkeypatch
):
    started = []
    start = threading.Thread.start

    def recording_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    run = repro.run(
        ThreadCluster(
            K, multicast_mode=MulticastMode.TREE, record_relays=True,
            recv_timeout=60,
        ),
        CodedTeraSortSpec(data, r, schedule="parallel", overlap=overlap),
    )
    assert started  # the pool's node threads went through the patch
    assert not [name for name in started if name.startswith("relay-")]
    assert [p.to_bytes() for p in run.partitions] == uncoded
    _assert_pinned_traffic(run.traffic, r)


def _thread_sampling_program(comm, payload):
    """The coded sort, returning ``(partition, peak live threads)`` as
    seen at every stage change — inside the loop, receives in flight."""
    program = _coded_terasort_program(comm, payload)
    peak = [threading.active_count()]
    set_stage = comm.set_stage

    def sample(name):
        if name != comm.stage:
            peak[0] = max(peak[0], threading.active_count())
        set_stage(name)

    comm.set_stage = sample
    inner = program.run
    program.run = lambda: (inner(), peak[0])
    return program


def test_proc_thread_count_is_independent_of_the_group_count(data, uncoded):
    # A worker's threads: main, K - 1 readers, the async sender, control
    # reader and heartbeat — not one per interior receive (r = 5 posts
    # C(7, 5) * 5 = 105 receives a rank; the relay-thread engine held
    # a thread for each interior one of them).
    bound = K + 4
    with ProcessCluster(K, record_relays=True, timeout=60).create_pool() as pool:
        for r in (3, 5):
            for overlap in (False, True):
                prepared = CodedTeraSortSpec(
                    data, r, schedule="parallel", overlap=overlap
                ).prepare(K)
                result = pool.run_job(
                    PreparedJob(
                        builder=_thread_sampling_program,
                        payloads=prepared.payloads,
                        finalize=lambda result: result,
                    )
                )
                partitions, peaks = zip(*result.results)
                assert [p.to_bytes() for p in partitions] == uncoded
                assert max(peaks) <= bound, (r, overlap, peaks)
                _assert_pinned_traffic(result.traffic, r)


def test_proc_thread_count_is_constant_across_back_to_back_jobs():
    # Every pool job runs on its own Comm that posts through its
    # endpoint's one sender: 50 coded jobs leave each worker with the
    # thread count it had on the first.
    k = 4
    prepared = CodedTeraSortSpec(teragen(2000, seed=11), 2).prepare(k)
    job = PreparedJob(
        builder=_thread_sampling_program,
        payloads=prepared.payloads,
        finalize=lambda result: result,
    )
    with ProcessCluster(k, timeout=60).create_pool() as pool:
        runs = [pool.run_job(job).results for _ in range(50)]
    first = [p.to_bytes() for p, _ in runs[0]]
    for results in runs:
        assert [p.to_bytes() for p, _ in results] == first
    peaks = {rank: {run[rank][1] for run in runs} for rank in range(k)}
    assert all(len(seen) == 1 for seen in peaks.values()), peaks


# -- (iii) relay liveness ----------------------------------------------------

#: One group of four, every member a sender, on the binomial tree: the
#: packet of sender s reaches the member three places on through the one
#: two places on — 2 relays 0's packet to 3, 3 relays 1's to 0, 0 relays
#: 2's to 1, 1 relays 3's to 2.  Posted in this order, each rank's first
#: receive is the relayed one: a cycle of ranks each sitting on the packet
#: the next one's first receive needs.
RING = [(0, 1, 2, 3)]
FIRST_RECEIVE = {0: 1, 3: 0, 2: 3, 1: 2}  # rank -> sender it posts first


class _RingShuffle(NodeProgram):
    STAGES = ["encode", "shuffle", "decode"]

    def run(self):
        rank = self.rank
        senders = [FIRST_RECEIVE[rank]] + [
            s for s in range(4) if s not in (rank, FIRST_RECEIVE[rank])
        ]
        got = {}
        streaming_multicast_shuffle(
            self, RING, [0], [[(0, s)] for s in senders + [rank]], 100,
            lambda gidx: b"packet-%d" % rank,
            lambda gidx, packets: got.update(
                {s: bytes(p) for s, p in packets.items()}
            ),
        )
        return got


def _ring_cluster():
    return ThreadCluster(4, multicast_mode=MulticastMode.TREE, recv_timeout=1.5)


def test_ranks_that_relay_for_each_other_complete():
    result = _ring_cluster().run(_RingShuffle)
    for rank, got in enumerate(result.results):
        assert got == {
            s: b"packet-%d" % s for s in range(4) if s != rank
        }


def test_a_loop_that_drives_only_a_chosen_receive_hangs_there(monkeypatch):
    # The design the arrival wait replaces: sit on the first posted
    # receive.  With lazy relays that is a deadlock, so this is the test
    # that times out if the loop ever goes back to it.
    wait_any = Comm.wait_any

    def wait_on_first(self, keys, timeout=BACKEND_TIMEOUT):
        return wait_any(self, (next(iter(keys)),), timeout)

    monkeypatch.setattr(Comm, "wait_any", wait_on_first)
    with pytest.raises(RuntimeError, match="recv from worker . timed out"):
        _ring_cluster().run(_RingShuffle)


# -- a mailbox is bounded by what is in flight -------------------------------

ROUNDS = 200


class _BarriersAndRoundTrips(NodeProgram):
    def run(self):
        comm, k = self.comm, self.size
        for i in range(ROUNDS):
            comm.barrier()
            comm.send((self.rank + 1) % k, 1000 + i, b"ping-%d" % i)
            assert comm.recv((self.rank - 1) % k, 1000 + i) == b"ping-%d" % i
        comm.barrier()
        return len(comm._mailbox._queues)


@pytest.mark.parametrize("cluster", [ThreadCluster, ProcessCluster])
def test_mailbox_keys_leave_with_their_last_frame(cluster):
    result = cluster(4).run(_BarriersAndRoundTrips)
    # ROUNDS tags and 2 * (ROUNDS + 1) barrier-round tags went through
    # every mailbox; a faster neighbour's next frame is the most that may
    # still be buffered.
    assert max(result.results) <= 4
