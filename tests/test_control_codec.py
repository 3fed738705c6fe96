"""The control codec: one frame format for every control channel.

Job dispatch, results, heartbeats, the rendezvous and the service port
all travel as :func:`~repro.runtime.transport.encode_msg` frames: a
protocol-5 pickle body plus the large NumPy arrays as out-of-band
buffers.  Pinned here: round trips, that arrays cross with no user-space
copy on either side, that the fork transport's control channels are
sockets speaking the codec, and that a frame whose framing is broken —
truncated, run long, a head or buffer byte overwritten, random bytes —
raises :class:`~repro.runtime.transport.CodecError`, never another
exception, a hang, or an allocation sized by the peer.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvpairs.records import RecordBatch
from repro.kvpairs.teragen import teragen
from repro.runtime.inproc import ThreadCluster
from repro.runtime.process import ProcessCluster
from repro.runtime.transport import (
    FRAME_HEADER,
    Channel,
    CodecError,
    TransportError,
    decode_msg,
    encode_msg,
    recv_frame,
    recv_msg,
    send_frame,
    send_msg,
)
from repro.service.protocol import (
    SERVICE_PROTOCOL_VERSION,
    ServiceProtocolError,
    recv_obj,
    send_obj,
)
from repro.session import Session, TeraSortSpec


def _frame(obj) -> bytearray:
    """``obj`` encoded, joined the way a receive arena holds it."""
    return bytearray(b"".join(bytes(p) for p in encode_msg(obj)))


@pytest.fixture
def sock_pair():
    a, b = socket.socketpair()
    a.settimeout(5.0)
    b.settimeout(5.0)
    yield a, b
    a.close()
    b.close()


class TestRoundTrip:
    def test_plain_data_and_arrays(self):
        batch = teragen(300, seed=3)
        fortran = np.asfortranarray(np.arange(6000.0).reshape(60, 100))
        msg = (
            "ok", 3, 7, None, True, 2.5, b"raw", "text",
            {"map": 0.1, "nested": [1, (2, 3)]},
            batch, fortran, np.arange(5), np.zeros(0, np.uint8),
        )
        out = decode_msg(_frame(msg))
        assert out[:9] == msg[:9]
        assert out[9] == batch
        assert np.array_equal(out[10], fortran)
        assert out[10].flags.f_contiguous
        assert np.array_equal(out[11], msg[11])
        assert out[12].size == 0

    def test_large_arrays_leave_the_pickle_and_land_as_arena_views(self):
        """Send side: the out-of-band part *is* the array's memory.
        Receive side: the rebuilt array is a view of the arena."""
        batch = teragen(500, seed=4)  # 50 KB: out of band
        parts = encode_msg(("ok", batch))
        assert any(
            np.shares_memory(np.frombuffer(p, np.uint8), batch.array)
            for p in parts if isinstance(p, memoryview)
        )
        arena = _frame(("ok", batch))
        out = decode_msg(arena)[1]
        assert out == batch
        assert np.shares_memory(out.array, np.frombuffer(arena, np.uint8))
        offset = out.array.__array_interface__["data"][0] - (
            np.frombuffer(arena, np.uint8).__array_interface__["data"][0]
        )
        assert offset % 8 == 0

    def test_small_and_strided_arrays_stay_in_band(self):
        small = np.arange(16, dtype=np.uint64)  # a splitter array
        strided = np.arange(10_000)[::2]
        head = encode_msg((small, strided))[0]
        assert struct.unpack_from("<I", head)[0] == 0  # no buffers
        out = decode_msg(_frame((small, strided)))
        assert np.array_equal(out[0], small)
        assert np.array_equal(out[1], strided)

    def test_read_only_stays_read_only(self):
        arr = np.arange(4096, dtype=np.int64)
        arr.flags.writeable = False
        out = decode_msg(_frame(arr))
        assert np.array_equal(out, arr)
        assert not out.flags.writeable

    def test_channel_pair_round_trip_with_a_large_result(self, sock_pair):
        a, b = sock_pair
        pool_end, worker_end = Channel(a, 5.0), Channel(b, 5.0, pool_end=False)
        batch = teragen(20_000, seed=5)  # 2 MB: past the socket buffers
        sender = threading.Thread(
            target=worker_end.send, args=(("ok", 0, 1, batch),)
        )
        sender.start()
        got = pool_end.recv()
        sender.join(timeout=10)
        assert not sender.is_alive()
        assert got[:3] == ("ok", 0, 1) and got[3] == batch
        pool_end.send(("stop",))
        assert worker_end.recv() == ("stop",)
        worker_end.close()
        with pytest.raises(TransportError):
            pool_end.recv()


class TestTypedErrors:
    VALID = _frame(("job", 4, None, {"data": teragen(100, seed=1)}, [0, 1], 0))

    def test_every_truncation_is_a_codec_error(self):
        for cut in range(len(self.VALID)):
            with pytest.raises(CodecError):
                decode_msg(self.VALID[:cut])

    def test_trailing_bytes(self):
        with pytest.raises(CodecError, match="head describes"):
            decode_msg(self.VALID + b"\0")

    def test_buffer_count_beyond_the_frame(self):
        with pytest.raises(CodecError, match="cannot hold"):
            decode_msg(struct.pack("<IQ", 2**32 - 1, 0))

    def test_garbage_body(self):
        body = b"\x80\x05not a pickle."
        with pytest.raises(CodecError, match="undecodable"):
            decode_msg(struct.pack("<IQ", 0, len(body)) + body)

    def test_a_bare_pickle_is_not_a_control_frame(self):
        """What a pre-codec peer sends: the head misreads, typed."""
        with pytest.raises(CodecError):
            decode_msg(pickle.dumps(("stop",), pickle.HIGHEST_PROTOCOL))

    def test_wrong_tag(self, sock_pair):
        a, b = sock_pair
        send_msg(a, ("stop",), tag=9)
        with pytest.raises(CodecError, match="expected control frame tag 2"):
            recv_msg(b)

    def test_oversized_frame_refused_before_allocation(self, sock_pair):
        a, b = sock_pair
        a.sendall(FRAME_HEADER.pack(2, 1 << 62))
        with pytest.raises(TransportError, match="limit"):
            recv_frame(b, limit=1 << 20)

    def test_service_frames(self, sock_pair):
        a, b = sock_pair
        send_obj(a, ("stats",))
        assert recv_obj(b) == ("stats",)
        send_msg(a, (SERVICE_PROTOCOL_VERSION - 1, ("stats",)), tag=17)
        with pytest.raises(ServiceProtocolError, match="mismatch"):
            recv_obj(b)
        send_frame(a, 17, pickle.dumps((2, ("stats",))))  # a v2 client
        with pytest.raises(ServiceProtocolError, match="service control"):
            recv_obj(b)
        a.sendall(FRAME_HEADER.pack(17, 1 << 40))
        with pytest.raises(TransportError, match="limit"):
            recv_obj(b, 1 << 30)


def _framing_positions():
    """Byte offsets of a valid frame outside its pickle body: the head
    and the out-of-band buffers.  The body is a pickle and trusted by
    the channel's trust model (a corrupted one may call whatever it
    names), so the fuzzing below leaves it whole."""
    frame = TestTypedErrors.VALID
    count, body_len = struct.unpack_from("<IQ", frame)
    start = struct.calcsize("<IQ") + 8 * count
    return list(range(start)) + list(range(start + body_len, len(frame)))


@settings(max_examples=400)
@given(
    st.one_of(
        st.binary(max_size=256),
        st.tuples(st.sampled_from(_framing_positions()), st.integers(0, 255)),
        st.integers(-64, 64),
    )
)
def test_fuzzed_frames_decode_or_raise_codec_error(case):
    """Random bytes, valid frames with a head or buffer byte overwritten,
    and valid frames cut short or run long: decode returns a value or
    raises CodecError, nothing else."""
    payload = bytearray(TestTypedErrors.VALID)
    if isinstance(case, bytes):
        payload = bytearray(case)
    elif isinstance(case, tuple):
        at, value = case
        payload[at] = value
    elif case < 0:
        del payload[case:]
    else:
        payload += bytes(case)
    try:
        decode_msg(payload)
    except CodecError:
        pass


class TestBackends:
    def test_fork_transport_channels_are_codec_sockets(self, out_of_band):
        """The fork transport's control channels are sockets speaking
        the codec, and a job's partitions come back as views of their
        receive arenas, byte-identical with the in-process backend."""
        spec = TeraSortSpec(data=teragen(20_000, seed=11))
        with Session(ProcessCluster(3, timeout=60)) as session:
            run = session.submit(spec).result(timeout=60)
            chans = session._pool._chans
            assert all(isinstance(c, Channel) for c in chans.values())
        with Session(ThreadCluster(3)) as session:
            ref = session.submit(spec).result(timeout=60)
        assert [p.to_bytes() for p in run.partitions] == [
            p.to_bytes() for p in ref.partitions
        ]
        for part in run.partitions:
            assert isinstance(part, RecordBatch)
            assert out_of_band(part.array)
