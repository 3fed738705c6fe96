"""Tests for socket framing."""

from __future__ import annotations

import socket
import struct
import threading
import time

import pytest

from repro.runtime.mailbox import MailboxClosed
from repro.runtime.process import MeshEndpoint
from repro.runtime.ratelimit import TokenBucket
from repro.runtime.transport import (
    FRAME_HEADER,
    TransportError,
    recv_exact,
    recv_frame,
    send_frame,
)


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_roundtrip(self, sock_pair):
        a, b = sock_pair
        send_frame(a, 42, b"hello world")
        tag, payload = recv_frame(b)
        assert tag == 42 and payload == b"hello world"

    def test_empty_payload(self, sock_pair):
        a, b = sock_pair
        send_frame(a, 7, b"")
        assert recv_frame(b) == (7, b"")

    def test_multiple_frames_in_order(self, sock_pair):
        a, b = sock_pair
        for i in range(5):
            send_frame(a, i, bytes([i]) * 10)
        for i in range(5):
            tag, payload = recv_frame(b)
            assert tag == i and payload == bytes([i]) * 10

    def test_large_payload_threaded(self, sock_pair):
        """Payload larger than socket buffers needs a concurrent reader."""
        a, b = sock_pair
        payload = bytes(range(256)) * 4096  # 1 MiB
        result = {}

        def reader():
            result["frame"] = recv_frame(b)

        t = threading.Thread(target=reader)
        t.start()
        send_frame(a, 9, payload)
        t.join(timeout=10)
        assert result["frame"] == (9, payload)

    def test_eof_mid_header(self, sock_pair):
        a, b = sock_pair
        a.sendall(b"\x01\x02")
        a.close()
        with pytest.raises(TransportError, match="closed"):
            recv_frame(b)

    def test_eof_mid_payload(self, sock_pair):
        a, b = sock_pair
        a.sendall(struct.pack("<QQ", 1, 100) + b"short")
        a.close()
        with pytest.raises(TransportError, match="closed"):
            recv_frame(b)

    def test_recv_exact_zero(self, sock_pair):
        _, b = sock_pair
        assert recv_exact(b, 0) == b""

    @pytest.mark.parametrize("length", [2**64 - 1, 2**63])
    def test_unallocatable_length_is_a_transport_error(self, sock_pair, length):
        a, b = sock_pair
        a.sendall(FRAME_HEADER.pack(7, length))
        with pytest.raises(TransportError, match=f"{length}-byte frame"):
            recv_frame(b)


def test_a_reader_closes_its_source_on_an_unallocatable_frame():
    """A frame the reader cannot allocate closes the peer's mailbox
    source with the reason, so a receive from it fails at once."""
    mine, theirs = socket.socketpair()
    endpoint = MeshEndpoint(
        0,
        {1: mine},
        dict(
            rate_bytes_per_s=None,
            timeout=5.0,
            record_relays=False,
            heartbeat_interval=None,
        ),
    )
    try:
        length = 2**64 - 1
        theirs.sendall(FRAME_HEADER.pack(7, length))
        started = time.monotonic()
        with pytest.raises(MailboxClosed, match=str(length)):
            endpoint.mailbox.wait_any([(1, 7)], 2.0)
        assert time.monotonic() - started < 1.0
    finally:
        endpoint.close()
        theirs.close()


class TestPacedSend:
    def test_paced_send_delivers_and_takes_time(self, sock_pair):
        import time

        a, b = sock_pair
        payload = b"x" * 200_000
        pacer = TokenBucket(1e6, burst_bytes=50_000)  # 1 MB/s
        result = {}

        def reader():
            result["frame"] = recv_frame(b)

        t = threading.Thread(target=reader)
        t.start()
        start = time.monotonic()
        send_frame(a, 3, payload, pacer=pacer)
        elapsed = time.monotonic() - start
        t.join(timeout=10)
        assert result["frame"] == (3, payload)
        # 200 KB at 1 MB/s with a 50 KB burst: at least ~0.1 s of pacing.
        assert elapsed > 0.1
