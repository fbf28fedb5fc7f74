"""The version-2 TCP frame: exact round trips and rejection of malformed input."""

import json
import socket
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum.bus import MAX_FRAME_BYTES
from continuum.tcp import (
    ACK,
    FRAME_VERSION,
    PUB,
    SUB,
    Frame,
    TcpBrokerServer,
    TcpBus,
    _HEADER,
    _MAX_BODY_BYTES,
    _recv_frame,
    _send_frame,
)

# a length prefix and fixed header with arbitrary field values, then a few bytes
header_like = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(0, 255), st.integers(0, 255),
    st.integers(0, 2**64 - 1), st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
    st.binary(max_size=32),
).map(lambda t: struct.pack(">IBBQHH", *t[:6]) + t[6])


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from([PUB, SUB, ACK]),
    msg_id=st.one_of(st.integers(0, 2**64 - 1), st.just(2**64 - 1)),
    topic=st.text(max_size=40),
    sender=st.text(max_size=40),
    payload=st.one_of(st.just(b""), st.binary(max_size=4096), header_like),
)
def test_frame_round_trips_exactly(kind, msg_id, topic, sender, payload):
    frame = Frame(kind, msg_id, topic, sender, payload)
    a, b = socket.socketpair()
    with a, b:
        lock = threading.Lock()
        _send_frame(a, lock, frame)
        _send_frame(a, lock, Frame(ACK, 7))
        assert _recv_frame(b) == frame
        assert _recv_frame(b) == Frame(ACK, 7)
        a.shutdown(socket.SHUT_WR)
        assert _recv_frame(b) is None


def test_payload_bytes_cross_unchanged_after_a_fixed_header():
    a, b = socket.socketpair()
    with a, b:
        _send_frame(a, threading.Lock(), Frame(PUB, 5, "t/é", "edge:s", b"\x00raw"))
        a.shutdown(socket.SHUT_WR)
        data = b.recv(1024)
    topic, sender = "t/é".encode(), b"edge:s"
    body = struct.pack(">BBQHH", FRAME_VERSION, PUB, 5, len(topic), len(sender))
    body += topic + sender + b"\x00raw"
    assert data == struct.pack(">I", len(body)) + body


def test_names_too_long_for_their_length_field_are_rejected_before_sending():
    a, b = socket.socketpair()
    with a, b:
        with pytest.raises(ValueError, match="65535 UTF-8 bytes"):
            _send_frame(a, threading.Lock(), Frame(PUB, 0, "é" * 32768, "edge:s"))
        a.shutdown(socket.SHUT_WR)
        assert b.recv(1) == b""


class ScriptedSocket:
    """Serves fixed bytes to recv, at most `piece` at a time, and records each size asked for."""

    def __init__(self, data: bytes, piece: int | None = None):
        self._data = bytearray(data)
        self._piece = piece or len(self._data)
        self.sizes = []

    def recv(self, n: int, flags: int = 0) -> bytes:
        self.sizes.append(n)
        served = bytes(self._data[:min(n, self._piece)])
        del self._data[:len(served)]
        return served


def _encoded(frame: Frame) -> bytes:
    sent = []
    _send_frame(SimpleNamespace(sendall=sent.append), threading.Lock(), frame)
    return b"".join(sent)


def test_declared_length_over_the_cap_is_rejected_before_the_body_is_read():
    sock = ScriptedSocket(struct.pack(">I", _MAX_BODY_BYTES + 1) + b"\x02" * 64)
    with pytest.raises(ValueError, match="exceeds"):
        _recv_frame(sock)
    assert sock.sizes == [4]


def test_declared_length_at_the_cap_is_read():
    sock = ScriptedSocket(struct.pack(">I", _MAX_BODY_BYTES))
    assert _recv_frame(sock) is None  # the stream ends inside the header
    assert sock.sizes == [4, _HEADER.size]


def test_payload_over_the_cap_is_rejected_even_when_the_frame_fits():
    length = _HEADER.size + MAX_FRAME_BYTES + 1
    header = struct.pack(">IBBQHH", length, FRAME_VERSION, PUB, 1, 0, 0)
    sock = ScriptedSocket(header + bytes(MAX_FRAME_BYTES + 1))
    assert length <= _MAX_BODY_BYTES
    with pytest.raises(ValueError, match="payload exceeds"):
        _recv_frame(sock)
    assert sock.sizes == [4, _HEADER.size]  # neither the names nor the payload were read


def test_a_frame_served_in_seven_byte_pieces_round_trips():
    frame = Frame(PUB, 9, "train/é", "cloud:coordinator", bytes(range(256)) * 3)
    sock = ScriptedSocket(_encoded(frame) + _encoded(Frame(ACK, 2)), piece=7)
    assert _recv_frame(sock) == frame
    assert _recv_frame(sock) == Frame(ACK, 2)
    assert _recv_frame(sock) is None


def test_a_stream_that_ends_inside_the_payload_returns_none():
    data = _encoded(Frame(PUB, 9, "t", "edge:s", b"payload"))
    assert _recv_frame(ScriptedSocket(data[:-1])) is None


def _traced_peak(call):
    """What `call()` returns, and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


ONE_MIB_FRAME = Frame(PUB, 3, "train/grads", "fog:worker-0", bytes(range(256)) * 4096)


def test_sending_a_frame_does_not_copy_its_payload():
    a, b = socket.socketpair()
    with a, b:
        sink = memoryview(bytearray(len(_encoded(ONE_MIB_FRAME))))

        def drain():
            view = sink
            while view and (got := b.recv_into(view)):
                view = view[got:]

        reader = threading.Thread(target=drain)
        reader.start()
        _result, peak = _traced_peak(lambda: _send_frame(a, threading.Lock(), ONE_MIB_FRAME))
        reader.join(timeout=10.0)
        assert not reader.is_alive()
    assert peak < 64 * 1024
    assert sink.tobytes() == _encoded(ONE_MIB_FRAME)


def test_reading_a_frame_copies_its_payload_once_into_bytes():
    data = _encoded(ONE_MIB_FRAME)
    a, b = socket.socketpair()
    with a, b:
        writer = threading.Thread(target=a.sendall, args=(data,))
        writer.start()
        frame, peak = _traced_peak(lambda: _recv_frame(b))
        writer.join(timeout=10.0)
        assert not writer.is_alive()
    assert peak < 1.25 * 1024 * 1024
    assert type(frame.payload) is bytes
    assert frame == ONE_MIB_FRAME


def _frame_bytes(version: int, kind: int, topic: bytes = b"conf/x", declared_topic=None) -> bytes:
    declared = len(topic) if declared_topic is None else declared_topic
    body = struct.pack(">BBQHH", version, kind, 0, declared, 0) + topic
    return struct.pack(">I", len(body)) + body


V1_JSON = json.dumps({"type": "sub", "topic": "conf/#", "payload_b64": "", "sender": "fog:old",
                      "msg_id": 0}, separators=(",", ":")).encode()

MALFORMED = {
    "v1-json": struct.pack(">I", len(V1_JSON)) + V1_JSON,
    "version-3": _frame_bytes(3, PUB),
    "unknown-kind": _frame_bytes(FRAME_VERSION, 9),
    "shorter-than-header": struct.pack(">I", _HEADER.size - 1) + b"\x02" * (_HEADER.size - 1),
    "topic-overruns-frame": _frame_bytes(FRAME_VERSION, SUB, declared_topic=7),
    "topic-not-utf8": _frame_bytes(FRAME_VERSION, SUB, topic=b"conf/\xff"),
}


def _closed_by_peer(sock: socket.socket) -> bool:
    try:
        return sock.recv(1) == b""
    except ConnectionResetError:  # the server closed with bytes still unread
        return True


@pytest.mark.parametrize("frame", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_frame_closes_only_its_own_connection(frame):
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    raw = socket.create_connection((server.host, server.port), timeout=5.0)
    try:
        got = []
        bus.subscribe("fog:a", "conf/#", got.append)
        raw.sendall(frame)
        assert _closed_by_peer(raw)
        bus.publish("edge:s", "conf/x", b"after")
        bus.subscribe("fog:b", "conf/y", got.append)
        bus.publish("fog:a", "conf/y", b"still")
        bus.drive(lambda: [] if len(got) >= 3 else ["a healthy node"], timeout_ms=5_000.0)
        assert sorted(env.payload for env in got) == [b"after", b"still", b"still"]
    finally:
        raw.close()
        bus.close()
        server.close()
