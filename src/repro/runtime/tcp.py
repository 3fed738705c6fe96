"""The TCP transport (``tcp://HOST:PORT``): real workers on real machines.

The paper's numbers were measured on a standing EC2 cluster, not forked
processes on one box.  This module is the TCP *transport*, closing that
gap: ``K`` independent *worker agents* (``repro worker --join
HOST:PORT``, typically one per machine) dial a rendezvous coordinator
over TCP, complete a versioned rank-assignment handshake
(:class:`Rendezvous`), and form the full K×K peer mesh over plain TCP
sockets.  From there everything is shared with the multiprocessing
backend: :func:`~repro.runtime.transport.send_frame` framing and the
control codec, the zero-copy ``sendmsg`` / ``recv_into`` data plane of
:class:`~repro.runtime.process.MeshEndpoint`, the
:func:`~repro.runtime.process.serve_pool_jobs` worker loop, and the
driver-side :class:`~repro.runtime.pool.WorkerPool` reactor — so
``Session.submit()`` works unchanged and outputs are byte-identical with
the fork transport's.  ``repro.connect("tcp://HOST:PORT", size=K)``
builds the cluster, binding the rendezvous listener before it returns.

Rendezvous protocol (all control messages are length-prefixed frames on
the worker's coordinator connection; fixed-layout structs for the two
messages that must parse across versions, control-codec frames
(:func:`~repro.runtime.transport.send_msg`) after that)::

    worker -> coord   HELLO   magic, protocol version, requested rank (-1 = any)
    coord  -> worker  WELCOME rank, size, mesh nonce, cluster config
                      (or REJECT reason: bad magic/version, duplicate rank)
    worker -> coord   LISTENING advertised host:port of its peer listener
    coord  -> worker  ROSTER  {"peers": {rank: (host, port)}, "epoch", "size"}
    (the worker dials every peer the roster names and accepts the rest;
     each peer link starts with a PEER_HELLO frame carrying the mesh
     nonce, the dialer rank and the membership epoch it joined at)
    worker -> coord   READY
    coord  -> worker  ("job", seq, builder, payload, members, epoch) ...
                      |  ("stop",)

There is one roster shape and one way to link a mesh.  Every agent
keeps its mesh listener open for its whole life, with a join-acceptor
thread splicing dialed-in links into its endpoint.  At formation
(epoch 0) the roster names the lower ranks, and the agent waits for the
higher ones to dial in; the coordinator admits the K agents
concurrently, so their dials run in parallel.  The rendezvous listener
keeps accepting after the mesh forms: a replacement worker runs the same
handshake, its roster names every live rank and the membership
``epoch`` it joins at, and live workers learn the new size via a
``("roster", info)`` control frame.

Every step is bounded: the coordinator's accept/handshake reads and the
worker's connect/handshake reads all time out with errors naming the
stuck step, a version or rank conflict is rejected with a reason instead
of a hang, and a worker that dies mid-handshake surfaces as a clean
``RuntimeError`` on the driver.  After the mesh is up, failure handling
matches the process backend exactly: a dead worker's closing sockets EOF
every peer's reader thread, a failed job's survivors unwind on the
coordinator's abort and report, every worker outlives a failed job, and
the job's :class:`~repro.session.JobHandle` carries the error while the
session object survives.

Whether the mesh is re-formed after a failed job is the pool's entry
point's choice, not the transport's: a ``Session`` tears it down (a
mid-shuffle mesh holds arbitrary half-delivered frames) and its workers
exit on ``stop``.  The coordinator cannot re-fork remote workers, so the
*next* job re-opens the rendezvous and waits ``connect_timeout`` for K
fresh (or supervisor-restarted) workers to join; run workers under a
restart loop to get the process backend's transparent-restart behavior.
The sort service never re-forms; replacements rejoin the standing mesh.

Trust model: job dispatch pickles ``(builder, payload)`` to workers and
results back (large arrays out of band, see
:mod:`repro.runtime.transport`) — run this only between mutually trusted
hosts on a private network, exactly like the paper's EC2 security group
(pickle grants the coordinator arbitrary code execution on workers,
which is also what lets ``Session`` ship any prepared job unchanged).
The listeners read only fixed-size hellos, capped, before a peer has
proved the rendezvous magic and version, or the mesh nonce.
"""

from __future__ import annotations

import os
import signal
import socket
import struct
import threading
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.runtime.process import MeshEndpoint, WorkerDrain, serve_pool_jobs
from repro.runtime.transport import (
    Channel,
    TransportError,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
)

__all__ = [
    "PROTOCOL_VERSION",
    "Rendezvous",
    "TcpClusterError",
    "TcpHandshakeError",
    "parse_address",
    "run_worker",
]

#: Bumped whenever the rendezvous protocol or the job wire format changes
#: incompatibly; coordinator and workers must match exactly.  v2: job
#: frames may carry a fifth ``members`` element (per-job worker subsets,
#: see :class:`~repro.runtime.api.Comm`) — a v1 worker would
#: fail to unpack them, so the sort service requires v2 agents.  v3:
#: PEER_HELLO grew a membership-epoch field and the rendezvous accepts
#: mid-flight rejoins (elastic service pools) — a v2 worker would
#: mis-unpack the peer handshake, so the mesh requires v3 agents.  v4:
#: every job frame carries ``members`` and ``epoch`` (the one pool sends
#: one frame shape) and workers no longer accept the bare four-element
#: frame a v3 Session coordinator sends.  v5: one roster shape,
#: ``{"peers", "epoch", "size"}``, at formation as on a rejoin (a v4
#: worker expects a list at formation), and the welcome config lost its
#: ``resilient`` key — every agent keeps its mesh listener.  v6: every
#: control message after the hello is a control-codec frame (pickle body
#: plus out-of-band buffers), not a bare pickle.  v7: a mesh frame is one
#: whole message with no count prefix, and the welcome config lost the
#: key that capped a frame's size.
PROTOCOL_VERSION = 7

_MAGIC = b"CODEDTS1"
#: HELLO: magic, protocol version, requested rank (-1 = assign any).
_HELLO = struct.Struct("<8sIi")
#: PEER_HELLO: magic, mesh nonce, dialer rank, membership epoch the
#: dialer joined at (0 for the initial rendezvous mesh).
_PEER_HELLO = struct.Struct("<8sQIQ")

#: Frame tags on hello / peer-handshake links (one kind per link state,
#: so a frame of the wrong tag is a protocol error, not a misroute); the
#: control messages after the hello use the codec's ``CTRL_TAG`` (2).
_TAG_HELLO = 1
_TAG_PEER = 3
#: Cap on a hello frame a listener reads from a dialer it does not know.
_HELLO_LIMIT = 64


class TcpClusterError(RuntimeError):
    """Raised when the rendezvous or a worker's mesh setup fails."""


class TcpHandshakeError(TcpClusterError):
    """The coordinator rejected this worker (version/rank conflict)."""


def parse_address(address: str) -> Tuple[str, int]:
    """``"tcp://host:port"`` or ``"host:port"`` -> ``(host, port)``.

    IPv6 literals use the usual bracket form (``tcp://[::1]:4000``); the
    brackets are stripped from the returned host.
    """
    spec = address
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://"):]
    host, sep, port_s = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"cluster address must be tcp://HOST:PORT, got {address!r}"
        )
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not (port_s.isascii() and port_s.isdigit()) or int(port_s) > 65535:
        raise ValueError(
            f"cluster address must be tcp://HOST:PORT, got {address!r}"
        )
    return host, int(port_s)


# ---------------------------------------------------------------------------
# Control-plane framing: fixed structs for HELLO/PEER_HELLO, codec after.
# ---------------------------------------------------------------------------


def _recv_ctrl(sock: socket.socket, step: str) -> Any:
    """Receive one control message, naming ``step`` in timeout/EOF errors."""
    try:
        return recv_msg(sock)
    except (OSError, TransportError) as exc:
        raise TcpClusterError(f"{step}: {exc}") from exc


def _expect(sock: socket.socket, kind: str, step: str) -> Tuple:
    """Receive the handshake message ``kind``, naming ``step`` (what the
    other side must have died doing) in any failure."""
    msg = _recv_ctrl(sock, step)
    if msg[0] != kind:
        raise TcpClusterError(
            f"{step}: unexpected message {msg[0]!r}, expected {kind!r}"
        )
    return msg


# ---------------------------------------------------------------------------
# Worker agent.
# ---------------------------------------------------------------------------


def _dial(
    host: str, port: int, connect_timeout: float
) -> socket.socket:
    """Connect with retry until ``connect_timeout`` (coordinator may start
    after the workers; ``repro worker`` should not care about ordering)."""
    deadline = time.monotonic() + connect_timeout
    last: Optional[Exception] = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise TcpClusterError(
                f"could not connect to {host}:{port} within "
                f"{connect_timeout:.1f}s: {last}"
            )
        try:
            sock = socket.create_connection(
                (host, port), timeout=min(remaining, 5.0)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return sock
        except OSError as exc:
            last = exc
            time.sleep(min(0.2, max(0.0, deadline - time.monotonic())))


def _join_mesh(
    endpoint: MeshEndpoint,
    peer_addrs: Dict[int, Tuple[str, int]],
    nonce: int,
    epoch: int,
    handshake_timeout: float,
) -> None:
    """Dial every peer the roster names and splice each link into
    ``endpoint`` via :meth:`~repro.runtime.process.MeshEndpoint.add_peer`.

    At formation the roster names the lower ranks, on a rejoin every
    live one; the rest dial in to :func:`_serve_mesh_joins`.  Every
    named listener is already in ``listen()`` before the coordinator
    publishes a roster, so dials land in the backlog even while the
    target is itself still dialing.  The PEER_HELLO carries the mesh
    nonce (minted per pool generation: a stale worker of an earlier,
    torn-down mesh cannot splice into this one) and the membership epoch
    the coordinator assigned this incarnation, letting peers stamp the
    link for the recycled-rank guard in :class:`~repro.runtime.api.Comm`.
    """
    for peer, (host, port) in sorted(peer_addrs.items()):
        sock = _dial(host, port, handshake_timeout)
        try:
            sock.settimeout(handshake_timeout)
            send_frame(
                sock, _TAG_PEER,
                _PEER_HELLO.pack(_MAGIC, nonce, endpoint.rank, epoch),
            )
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        endpoint.add_peer(peer, sock)


def _serve_mesh_joins(
    listener: socket.socket,
    endpoint: MeshEndpoint,
    nonce: int,
    handshake_timeout: float,
    say,
) -> None:
    """Accept peers on the agent's mesh listener (thread, for the
    agent's whole life).

    At formation the higher ranks dial in here, later every replacement
    worker (see :func:`_join_mesh`); this loop validates the dialer's
    nonce-guarded PEER_HELLO and splices the link into the live endpoint
    via :meth:`~repro.runtime.process.MeshEndpoint.add_peer` — the epoch in
    the hello stamps the link so jobs planned before a join refuse the
    recycled rank.  Exits when the listener is shut down.
    """
    while True:
        try:
            sock, _ = listener.accept()
        except OSError:
            return  # listener shut down: worker exiting
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(handshake_timeout)
            tag, payload = recv_frame(sock, _HELLO_LIMIT)
            magic, got, peer, epoch = _PEER_HELLO.unpack(bytes(payload))
            stray = (tag, magic, got) != (_TAG_PEER, _MAGIC, nonce)
            if stray or peer == endpoint.rank:
                raise TransportError("peer hello mismatch")
            sock.settimeout(None)
        except (OSError, TransportError, struct.error):
            sock.close()
            continue  # stray/stale dialer; keep accepting
        endpoint.add_peer(peer, sock, epoch=epoch)
        if epoch:
            say(f"peer {peer} rejoined the mesh (epoch {epoch})")


def run_worker(
    join: str,
    rank: Optional[int] = None,
    advertise: Optional[str] = None,
    connect_timeout: float = 30.0,
    handshake_timeout: float = 30.0,
    quiet: bool = False,
) -> int:
    """One worker agent: rendezvous, mesh up, serve jobs until stopped.

    Args:
        join: coordinator address, ``tcp://HOST:PORT`` or ``HOST:PORT``.
        rank: request this specific rank (the coordinator rejects
            duplicates); ``None`` takes the lowest free one.
        advertise: hostname/IP peers should dial for this worker's mesh
            listener; defaults to the local address of the coordinator
            connection (right whenever peers share the coordinator's
            network path).
        connect_timeout: how long to keep retrying the coordinator dial.
        handshake_timeout: per-step bound for rendezvous and mesh setup.

    Returns:
        0 after a clean ``stop`` / coordinator shutdown.

    Raises:
        TcpHandshakeError: the coordinator rejected this worker.
        TcpClusterError: a rendezvous/mesh step failed or timed out.
    """
    host, port = parse_address(join)

    def say(msg: str) -> None:
        if not quiet:
            print(f"[worker] {msg}", flush=True)

    # Spill hygiene: remove any spill dirs a SIGKILLed predecessor on
    # this host leaked, and arrange for our own to be removed even if the
    # supervisor stops us with SIGTERM mid-job.
    from repro.kvpairs.spill import SpillDir, install_spill_cleanup_handler

    install_spill_cleanup_handler()
    for stale in SpillDir.sweep_stale():
        say(f"reaped stale spill dir {stale}")

    # Graceful drain: the first SIGTERM lets an in-flight job finish and
    # report before the agent exits (a mid-shuffle death would cascade
    # WorkerFailure across the whole subset); a second SIGTERM means the
    # supervisor is serious — exit now (SystemExit still runs the spill
    # cleanup atexit hooks installed above).
    drain = WorkerDrain()
    prev_sigterm = None

    def _on_sigterm(signum, frame):
        if drain.requested:
            raise SystemExit(128 + signum)
        say("SIGTERM: draining (finishing in-flight job, then exiting)")
        drain.trigger()

    try:
        prev_sigterm = signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        drain = None

    ctrl = _dial(host, port, connect_timeout)
    listener: Optional[socket.socket] = None
    endpoint: Optional[MeshEndpoint] = None
    try:
        ctrl.settimeout(handshake_timeout)
        send_frame(
            ctrl,
            _TAG_HELLO,
            _HELLO.pack(_MAGIC, PROTOCOL_VERSION, -1 if rank is None else rank),
        )
        msg = _recv_ctrl(ctrl, "waiting for rank assignment")
        if msg[0] == "reject":
            raise TcpHandshakeError(f"coordinator rejected worker: {msg[1]}")
        if msg[0] != "welcome":
            raise TcpClusterError(f"unexpected rendezvous message {msg[0]!r}")
        cfg = msg[1]
        my_rank, size, nonce = cfg["rank"], cfg["size"], cfg["nonce"]
        say(f"joined {host}:{port} as rank {my_rank}/{size}")

        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("", 0))
        listener.listen(size + 4)
        adv_host = advertise or ctrl.getsockname()[0]
        send_msg(ctrl, ("listening", (adv_host, listener.getsockname()[1])))
        roster = _expect(ctrl, "roster", "waiting for the peer roster")[1]
        epoch = roster["epoch"]
        endpoint = MeshEndpoint(my_rank, {}, cfg)
        threading.Thread(
            target=_serve_mesh_joins,
            args=(listener, endpoint, nonce, handshake_timeout, say),
            name=f"mesh-joins-{my_rank}",
            daemon=True,
        ).start()
        peers = {int(g): tuple(a) for g, a in roster["peers"].items()}
        _join_mesh(endpoint, peers, nonce, epoch, handshake_timeout)
        # At formation the higher ranks dial in; a rejoiner has dialed
        # every live rank itself.
        missing = endpoint.wait_for_peers(
            peers if epoch else range(size), handshake_timeout
        )
        if missing:
            raise TcpClusterError(
                f"rank {my_rank}: peers {missing} did not dial in within "
                f"{handshake_timeout:.1f}s"
            )
        send_msg(ctrl, ("ready",))
        chan = Channel(ctrl, cfg["timeout"], pool_end=False)
        say("mesh up, serving jobs")
        serve_pool_jobs(endpoint, chan.recv, chan.send, drain=drain)
        say("drained" if drain is not None and drain.requested else "stopped")
        return 0
    finally:
        if prev_sigterm is not None:
            try:
                signal.signal(signal.SIGTERM, prev_sigterm)
            except ValueError:  # pragma: no cover
                pass
        if listener is not None:
            try:
                # Wakes the acceptor thread blocked in accept(); a bare
                # close would leave it parked there.
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        if endpoint is not None:
            endpoint.close()
        for sock in [ctrl, listener]:
            try:
                if sock is not None:
                    sock.close()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass


# ---------------------------------------------------------------------------
# Coordinator side: the rendezvous.
# ---------------------------------------------------------------------------


class Rendezvous:
    """The TCP transport: how K worker agents — and later their
    replacements — come to stand behind control channels.

    :meth:`form` admits K workers through the rendezvous listener
    (handshake, roster, mesh, ready); :meth:`admit_join` runs the same
    handshake for one mid-flight rejoiner.  Both go through the one
    HELLO routine, :meth:`_hello`, and send the one roster shape,
    :meth:`_roster`: a formation roster names the lower ranks, a
    rejoiner's every live one.  Everything after belongs to
    :class:`~repro.runtime.pool.WorkerPool`.
    """

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        #: Minted per mesh generation: keeps a stale worker of an
        #: earlier, torn-down mesh from splicing into this one.
        self.nonce = 0
        #: Advertised mesh-listener address per rank, handed to joiners
        #: so they can dial the standing mesh.
        self.addrs: Dict[int, Tuple[str, int]] = {}
        #: Readable when a worker is dialing the rendezvous.
        self.listener = cluster.listener

    def teardown(self, busy: Sequence[int] = ()) -> None:
        """Nothing to reap: remote workers exit on the pool's ``stop``
        (or when their control connection closes)."""

    # -- the handshake ------------------------------------------------------

    def _hello(self, conn: socket.socket, assign) -> Any:
        """The one HELLO / rank-assignment routine.

        Validates the dialer's hello frame, then lets ``assign(want)``
        pick its rank: whatever ``assign`` returns is handed back, except
        a ``str``, which is a rejection reason.  Rejections (bad
        magic/version, duplicate or out-of-range rank) answer with the
        reason so the worker can exit with a clean error, and return
        ``None``; a dialer that dies mid-hello is dropped silently
        (stale backlog entry).
        """
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(self._cluster.handshake_timeout)
            tag, payload = recv_frame(conn, _HELLO_LIMIT)
        except (OSError, TransportError):
            conn.close()
            return None
        try:
            magic, version, want = _HELLO.unpack(bytes(payload))
        except struct.error:
            reason = "malformed hello frame"
        else:
            if tag != _TAG_HELLO or magic != _MAGIC:
                reason = "not a codedterasort worker hello"
            elif version != PROTOCOL_VERSION:
                reason = (
                    f"protocol version mismatch: worker speaks {version}, "
                    f"coordinator speaks {PROTOCOL_VERSION}"
                )
            else:
                assigned = assign(want)
                if not isinstance(assigned, str):
                    return assigned
                reason = assigned
        try:
            send_msg(conn, ("reject", reason))
        except (OSError, TransportError):  # pragma: no cover
            pass
        conn.close()
        return None

    def _welcome(self, rank: int, size: int) -> Tuple:
        """The WELCOME message for ``rank``: its place in the mesh plus
        the cluster's worker settings, keyed by
        :data:`~repro.runtime.process.WORKER_SETTINGS`."""
        cfg = self._cluster.worker_settings()
        cfg.update(rank=rank, size=size, nonce=self.nonce)
        return ("welcome", cfg)

    def _roster(self, peers: Sequence[int], epoch: int, size: int) -> Tuple:
        """The ROSTER message: the mesh listeners of the ``peers`` the
        worker must dial, the membership ``epoch`` it joins at, and the
        mesh ``size``."""
        addrs = {g: self.addrs[g] for g in peers}
        return ("roster", {"peers": addrs, "epoch": epoch, "size": size})

    # -- initial rendezvous -------------------------------------------------

    def form(self, size: int) -> Dict[int, Channel]:
        """Admit ``size`` workers: handshake each, publish every rank's
        roster (its lower ranks, epoch 0), await readiness.  Raises
        :class:`TcpClusterError` naming the stuck or dead rank on any
        timeout/EOF."""
        cluster = self._cluster
        listener = self.listener
        self.nonce = int.from_bytes(os.urandom(8), "little")
        deadline = time.monotonic() + cluster.connect_timeout
        ranks: Dict[int, socket.socket] = {}

        def assign(want: int):
            if want < 0:
                return min(set(range(size)) - set(ranks))
            if want >= size:
                return f"rank {want} out of range for a size-{size} cluster"
            if want in ranks:
                return f"duplicate rank: {want} is already taken"
            return want

        try:
            while len(ranks) < size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TcpClusterError(
                        f"timed out waiting for workers: {len(ranks)}/{size} "
                        f"joined within {cluster.connect_timeout:.1f}s "
                        f"(start the rest with `repro worker --join "
                        f"{cluster.address}`)"
                    )
                listener.settimeout(remaining)
                try:
                    conn, _ = listener.accept()
                except socket.timeout:
                    continue
                except OSError as exc:
                    raise TcpClusterError(
                        f"rendezvous listener failed: {exc}"
                    ) from exc
                rank = self._hello(conn, assign)
                if rank is None:
                    continue
                try:
                    send_msg(conn, self._welcome(rank, size))
                except (OSError, TransportError):
                    conn.close()
                    continue
                ranks[rank] = conn
            self.addrs = {
                rank: tuple(_expect(
                    ranks[rank], "listening",
                    f"worker {rank} died before announcing its peer listener",
                )[1])
                for rank in range(size)
            }
            for rank, conn in ranks.items():
                send_msg(conn, self._roster(range(rank), 0, size))
            for rank in range(size):
                _expect(
                    ranks[rank], "ready",
                    f"worker {rank} died during mesh formation",
                )
        except BaseException:
            for conn in ranks.values():
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass
            raise
        return {
            rank: Channel(conn, cluster.timeout) for rank, conn in ranks.items()
        }

    # -- mid-flight rejoin --------------------------------------------------

    def admit_join(self, conn: socket.socket, reserve):
        """Run one replacement worker's handshake against the standing
        mesh.  ``reserve(want)`` is the pool's rank policy: it returns
        ``(rank, epoch, size, live ranks)`` or a rejection reason.
        Returns ``(rank, epoch, channel)``, or ``None`` when the dialer
        was rejected; handshake failures raise."""
        reserved = self._hello(conn, reserve)
        if reserved is None:
            return None
        rank, epoch, size, live = reserved
        send_msg(conn, self._welcome(rank, size))
        step = f"joiner for rank {rank} died mid-handshake"
        addr = tuple(_expect(conn, "listening", step)[1])
        # The joiner now dials every live peer's mesh listener; their
        # join-acceptor threads splice the links in.
        send_msg(conn, self._roster(live, epoch, size))
        _expect(conn, "ready", step)
        self.addrs[rank] = addr
        return rank, epoch, Channel(conn, self._cluster.timeout)
