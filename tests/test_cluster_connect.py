"""The one cluster: ``repro.connect`` URL routing and the settings
contract.

One address scheme per transport; every setting declared once, with one
name, one default and one meaning on every scheme; a setting a scheme
cannot honour rejected by name; typed errors for every way the URL can
be wrong.
"""

from __future__ import annotations

import multiprocessing
import select
import threading
import time

import pytest

import repro
from repro.cluster import SETTINGS, connect
from repro.runtime.errors import JobDeadlineExpired
from repro.runtime.program import NodeProgram, PreparedJob
from repro.runtime.tcp import run_worker
from repro.service import SortService

SCHEMES = ("inproc", "proc", "tcp")


class TestLocalSchemes:
    def test_inproc_builds_a_thread_cluster(self):
        cluster = connect("inproc://4")
        assert (cluster.scheme, cluster.size) == ("inproc", 4)
        assert cluster.address == "inproc://4"

    def test_proc_builds_a_process_cluster(self):
        cluster = connect("proc://3")
        assert (cluster.scheme, cluster.size) == ("proc", 3)

    def test_options_pass_through_to_the_constructor(self):
        cluster = connect("proc://2", rate_bytes_per_s=12.5e6, timeout=7.0)
        assert cluster.rate_bytes_per_s == 12.5e6
        assert cluster.timeout == 7.0

    def test_redundant_size_kwarg_must_agree(self):
        assert connect("inproc://4", size=4).size == 4
        with pytest.raises(ValueError, match="conflicting worker counts"):
            connect("inproc://4", size=5)

    def test_close_and_with_do_nothing_on_a_local_scheme(self):
        with connect("inproc://2") as cluster:
            cluster.close()
        assert cluster.listener is None


class TestTcpScheme:
    def test_tcp_builds_a_cluster_on_the_given_address(self):
        with connect("tcp://127.0.0.1:0", size=3) as cluster:
            assert (cluster.scheme, cluster.size) == ("tcp", 3)
            # Port 0 resolved at bind: the address is dialable now.
            assert not cluster.address.endswith(":0")

    def test_tcp_without_size_is_a_typed_error(self):
        with pytest.raises(ValueError, match="needs size="):
            connect("tcp://127.0.0.1:4000")


class TestBadAddresses:
    def test_unknown_scheme_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="inproc"):
            connect("carrier-pigeon://4")

    @pytest.mark.parametrize("url", ["thread://2", "process://2"])
    def test_the_alias_schemes_are_gone(self, url):
        with pytest.raises(ValueError, match="inproc, proc, tcp"):
            connect(url)

    def test_missing_scheme_separator(self):
        with pytest.raises(ValueError, match="cluster address"):
            connect("inproc:4")

    def test_non_integer_worker_count(self):
        with pytest.raises(ValueError, match="worker count"):
            connect("proc://many")

    @pytest.mark.parametrize("url", [
        "tcp://127.0.0.1:-1",
        "tcp://127.0.0.1:65536",
        "tcp://127.0.0.1:99999",
        "inproc:// 4",
        "proc://+4",
    ])
    def test_out_of_range_port_or_signed_count_is_rejected(self, url):
        with pytest.raises(ValueError, match="tcp://HOST:PORT|worker count"):
            connect(url, size=2 if url.startswith("tcp") else None)

    def test_zero_workers(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            connect("inproc://0")


class TestOneSetOfSettings:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_scheme_has_the_same_defaults(self, scheme):
        url = "tcp://127.0.0.1:0" if scheme == "tcp" else f"{scheme}://2"
        with connect(url, size=2) as cluster:
            for name, (default, _) in SETTINGS.items():
                assert getattr(cluster, name) == default, name

    @pytest.mark.parametrize("url, setting", [
        ("inproc://2", "rate_bytes_per_s"),
        ("inproc://2", "connect_timeout"),
        ("proc://2", "connect_timeout"),
        ("inproc://2", "handshake_timeout"),
        ("proc://2", "handshake_timeout"),
    ])
    def test_a_setting_the_scheme_cannot_honour_is_rejected_by_name(
        self, url, setting
    ):
        with pytest.raises(ValueError, match=f"cannot honour {setting}="):
            connect(url, **{setting: 5.0})

    def test_a_keyword_that_is_no_setting_is_a_type_error(self):
        with pytest.raises(TypeError, match="recv_timeout"):
            connect("inproc://2", recv_timeout=5.0)

    def test_the_broadcast_shape_is_no_setting(self):
        """``bcast`` is a chain and ``ibcast`` a binomial tree on every
        cluster; the keyword that used to choose a star is refused like
        any unknown setting."""
        assert "multicast_mode" not in SETTINGS
        with pytest.raises(TypeError, match="multicast_mode"):
            connect("inproc://2", multicast_mode="tree")

    def test_run_on_tcp_is_rejected_by_name(self):
        with connect("tcp://127.0.0.1:0", size=2) as cluster:
            with pytest.raises(ValueError, match=r"run\(factory\)"):
                cluster.run(_Starved)

    @pytest.mark.parametrize("url", ["inproc://2", "proc://2"])
    def test_the_sort_service_needs_tcp(self, url):
        with pytest.raises(ValueError, match="needs a tcp:// cluster"):
            SortService(connect(url))


class _Echo(NodeProgram):
    STAGES = ["s"]

    def __init__(self, comm, secret):
        super().__init__(comm)
        self.secret = secret

    def run(self):
        with self.stage("s"):
            return self.secret(self.rank)


@pytest.mark.parametrize("scheme", ["inproc", "proc"])
def test_run_takes_a_closure_factory_that_cannot_be_pickled(scheme):
    lock = threading.Lock()  # closed over: pickling it raises

    def secret(rank):
        with lock:
            return rank * 10

    result = connect(f"{scheme}://3").run(lambda comm: _Echo(comm, secret))
    assert result.results == [0, 10, 20]


# -- timeout= bounds a receive and the job, on every scheme ---------------

TIMEOUT = 0.3


class _Starved(NodeProgram):
    """Rank 0 waits for a frame rank 1 never sends."""

    STAGES = ["wait"]

    def run(self):
        with self.stage("wait"):
            if self.rank == 0:
                self.comm.recv(1, 7)


class _Sleeper(NodeProgram):
    STAGES = ["sleep"]

    def run(self):
        with self.stage("sleep"):
            if self.rank == 0:
                time.sleep(4 * TIMEOUT)


def _starved(comm, _payload):
    return _Starved(comm)


def _sleeper(comm, _payload):
    return _Sleeper(comm)


def _job(builder):
    return PreparedJob(
        builder=builder, payloads=[None, None], finalize=lambda r: r
    )


@pytest.mark.parametrize("scheme", SCHEMES)
def test_timeout_bounds_a_starved_receive_and_the_job(scheme):
    url = "tcp://127.0.0.1:0" if scheme == "tcp" else f"{scheme}://2"
    agents = []
    with connect(
        url, size=2, timeout=TIMEOUT, heartbeat_interval=None
    ) as cluster:
        if scheme == "tcp":
            ctx = multiprocessing.get_context("fork")
            agents = [
                ctx.Process(
                    target=run_worker,
                    kwargs=dict(join=cluster.address, quiet=True),
                    daemon=True,
                )
                for _ in range(2)
            ]
            for agent in agents:
                agent.start()
        try:
            with cluster.create_pool() as pool:
                pool.ready()
                # The receive: nothing steps the reactor until both
                # reports are in, so the job deadline cannot fire first.
                job = pool.submit(range(2), _job(_starved))
                waiting = list(pool._chans.values())
                while waiting:
                    ready, _, _ = select.select(waiting, [], [], 10.0)
                    assert ready, "a worker never reported"
                    waiting = [c for c in waiting if c not in ready]
                while not job.done.is_set():
                    pool._step(pool._POLL)
                text = str(job.error)
                assert "RuntimeTimeoutError" in text, text
                assert f"timed out after {TIMEOUT}s" in text, text
                # The job: rank 0 sleeps past the deadline.
                started = time.monotonic()
                with pytest.raises(JobDeadlineExpired, match=(
                    f"job timed out after {TIMEOUT}s"
                )):
                    pool.run_job(_job(_sleeper))
                assert time.monotonic() - started < TIMEOUT + 1.0
        finally:
            for agent in agents:
                agent.kill()
                agent.join()


def test_connect_is_exported_from_the_package_root():
    assert repro.connect is connect
