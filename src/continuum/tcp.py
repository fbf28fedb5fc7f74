"""Framed-TCP bus backend with the same surface as the simulated broker.

Wire format, version 2. Every frame is a 4-byte big-endian length of the rest
of the frame, then (all integers big-endian):

    u8  version       always 2
    u8  kind          1 = pub, 2 = sub, 3 = ack
    u64 msg_id
    u16 topic length  in UTF-8 bytes
    u16 sender length in UTF-8 bytes
    topic, sender     UTF-8
    payload           the published bytes, unchanged, to the end of the frame

A payload may be up to MAX_FRAME_BYTES (16 MiB), the same cap as the simulated
broker; header, topic and sender come on top of it. Payload bytes cross each
hop as they are (1.0x the payload, where the version-1 JSON frame carried
base64 text, 1.33x), and each hop copies them once in user space, on receive:
a sender writes the payload after its header, and a reader reads it straight
into its own bytes. A reader raises ValueError, which closes only the
connection that sent the frame, on a declared length over the cap, a version-1
JSON frame, an unknown version or an unknown kind, before it reads or allocates
the names or the payload.

The broker runs one accept thread plus one reader thread per connection. A
reader routes each frame it reads itself, under one server lock held across
msg-id assignment, the route lookup and every write, so every connection
receives frames in msg-id order. A PUB is acked after routing: `publish`
returns once the frame is written to every matching connection. The broker
holds no queue, so a connection that stops reading stalls routing instead of
growing the broker's memory, but only until its send deadline
(_SEND_DEADLINE_S): a write that fails or passes it shuts that connection
down, and its reader drops it.

A TcpBus is one connection that carries every node of its process: one socket
and one reader thread. A node is only the sender of the PUB and SUB frames it
makes, so any number of nodes hold one server connection. Handlers run only
inside `drive`, on the thread that calls it, one at a time, in arrival order,
as on the simulated broker. A handler unsubscribed while a message is being
dispatched does not receive it. A handler that raises ends that `drive` call
with its exception; deliveries not yet made stay queued for the next call.
Publishes are acknowledged, giving at-least-once delivery within the process
lifetime; a call whose connection closes before its ack, and a `drive` on a
connection that has ended, raise ConnectionError at once. No retained
messages, no persistence, and no record of the envelopes carried.
"""

from __future__ import annotations

import itertools
import logging
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from .bus import (
    DELIVER_LINE,
    MAX_FRAME_BYTES,
    Awaiting,
    Envelope,
    Handler,
    HandlerRaised,
    RouteTable,
    stalled,
    validate_filter,
    validate_node_id,
    validate_payload,
    validate_topic,
)
from .bus import log as trace_log

DEFAULT_PORT = 18883
_ACK_TIMEOUT_S = 10.0
# How long a broker write to one connection may block before that connection is
# dropped; a healthy loopback write, even of a 16 MiB frame, takes far less.
_SEND_DEADLINE_S = 5.0

FRAME_VERSION = 2
PUB, SUB, ACK = 1, 2, 3
_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct(">BBQHH")  # version, kind, msg_id, topic length, sender length
_MAX_NAME_BYTES = 0xFFFF
_MAX_BODY_BYTES = _HEADER.size + 2 * _MAX_NAME_BYTES + MAX_FRAME_BYTES


class Frame(NamedTuple):
    """One decoded frame; acks and subscribes leave the fields they do not use empty."""

    kind: int  # PUB, SUB or ACK
    msg_id: int
    topic: str = ""
    sender: str = ""
    payload: bytes = b""


def _send_frame(sock: socket.socket, lock: threading.Lock, frame: Frame) -> None:
    topic = frame.topic.encode("utf-8")
    sender = frame.sender.encode("utf-8")
    if len(topic) > _MAX_NAME_BYTES or len(sender) > _MAX_NAME_BYTES:
        raise ValueError(f"topic and sender must each fit in {_MAX_NAME_BYTES} UTF-8 bytes")
    body_len = _HEADER.size + len(topic) + len(sender) + len(frame.payload)
    head = b"".join((
        _LENGTH.pack(body_len),
        _HEADER.pack(FRAME_VERSION, frame.kind, frame.msg_id, len(topic), len(sender)),
        topic,
        sender,
    ))
    with lock:  # the payload follows its head as it is, not copied into one buffer with it
        sock.sendall(head)
        if frame.payload:
            sock.sendall(frame.payload)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    """n bytes read straight into one bytes object, or None at end of stream. A
    signal or a socket timeout can cut MSG_WAITALL's read short, so it loops."""
    chunks = []
    while n:
        chunk = sock.recv(n, socket.MSG_WAITALL)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)  # returns a lone chunk itself, without a copy


def _recv_frame(sock: socket.socket) -> Frame | None:
    """The next frame, or None at end of stream; raises ValueError on a malformed frame."""
    prefix = _recv_exact(sock, _LENGTH.size)
    if prefix is None:
        return None
    (length,) = _LENGTH.unpack(prefix)
    if length > _MAX_BODY_BYTES:
        raise ValueError(f"incoming frame of {length} bytes exceeds the 16 MiB payload limit")
    if length < _HEADER.size:
        raise ValueError(f"incoming frame of {length} bytes is shorter than its header")
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    version, kind, msg_id, topic_len, sender_len = _HEADER.unpack(header)
    if version != FRAME_VERSION:
        raise ValueError(f"unsupported frame version {version}")
    if kind not in (PUB, SUB, ACK):
        raise ValueError(f"unknown frame kind {kind}")
    payload_len = length - _HEADER.size - topic_len - sender_len
    if payload_len < 0:
        raise ValueError("topic and sender overrun the frame")
    if payload_len > MAX_FRAME_BYTES:
        raise ValueError("incoming payload exceeds the 16 MiB limit")
    names = _recv_exact(sock, topic_len + sender_len)
    payload = None if names is None else _recv_exact(sock, payload_len)
    if payload is None:
        return None
    return Frame(kind, msg_id, names[:topic_len].decode("utf-8"),
                 names[topic_len:].decode("utf-8"), payload)


class TcpBrokerServer:
    """Accepts connections; the reader thread of each routes the frames it reads."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        # Held across msg-id assignment, routing and every write to every socket,
        # so each connection gets frames in msg-id order and whole. Re-entrant,
        # because _send_frame takes it again under the caller's hold.
        self._lock = threading.RLock()
        self._conns: dict[int, socket.socket] = {}
        self._routes = RouteTable()  # of conn_ids; guarded by _lock
        self._next_conn = 0
        self._next_msg = 0
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            seconds, fraction = divmod(_SEND_DEADLINE_S, 1.0)
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO,
                            struct.pack("@ll", int(seconds), int(fraction * 1_000_000)))
            with self._lock:
                conn_id = self._next_conn
                self._next_conn += 1
                self._conns[conn_id] = conn
            threading.Thread(target=self._reader_loop, args=(conn_id, conn), daemon=True).start()

    def _reader_loop(self, conn_id: int, conn: socket.socket) -> None:
        try:
            while (frame := _recv_frame(conn)) is not None:
                self._handle(conn_id, conn, frame)
        except (OSError, ValueError):
            pass
        finally:
            with self._lock:
                self._conns.pop(conn_id, None)
                self._routes.remove(conn_id)
            conn.close()

    def _handle(self, conn_id: int, conn: socket.socket, frame: Frame) -> None:
        with self._lock:
            if frame.kind == SUB:
                self._routes.add(conn_id, frame.topic)
                self._ack(conn, 0)
            elif frame.kind == PUB:
                self._next_msg += 1
                frame = frame._replace(msg_id=self._next_msg)
                for target in self._routes.route(frame.topic):
                    self._write(self._conns[target], frame)
                self._ack(conn, frame.msg_id)

    def _ack(self, conn: socket.socket, msg_id: int) -> None:
        self._write(conn, Frame(ACK, msg_id))

    def _write(self, conn: socket.socket, frame: Frame) -> None:
        """Send under the lock. A write that fails or passes the send deadline may have
        left part of a frame on the stream, so it shuts the connection down, and the
        connection's own reader drops it."""
        try:
            _send_frame(conn, self._lock, frame)
        except OSError:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self) -> None:
        try:
            # shutdown (not just close) wakes the thread blocked in accept(),
            # releasing the port for the next bind
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._accept_thread.join(timeout=2.0)  # so no connection registers after this
        self._listener.close()
        # Shut down first, on a copy taken without the lock: that fails a write
        # blocked on a peer that stopped reading, which holds the lock until it returns.
        for conn in self._conns.copy().values():
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        with self._lock:  # no write is in flight while the lock is held
            for conn in self._conns.values():
                conn.close()


@dataclass
class TcpBus:
    """One connection that carries every node of the process, behind the bus.Bus contract.

    A node is only a name here: it travels as the sender of each PUB and SUB frame.
    The bus keeps no envelope once it has delivered it.
    """

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT

    # Read by perfbench's tracer as what a bus still holds; a bus retains nothing.
    published: ClassVar[tuple[Envelope, ...]] = ()

    def __post_init__(self) -> None:
        self._sock = socket.create_connection((self.host, self.port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # one frame send and its ack wait at a time; re-entrant, because
        # _send_frame takes it again under the caller's hold
        self._call_lock = threading.RLock()
        self._acks: queue.Queue = queue.Queue()
        self._incoming: queue.Queue = queue.Queue()  # (sub_id, envelope) pairs, then None at end
        self._subs: dict[int, tuple[str, Handler]] = {}  # sub_id -> (node, handler)
        self._routes = RouteTable()  # of sub_ids; guarded by _subs_lock
        self._subs_lock = threading.Lock()
        self._sub_ids = itertools.count(1)
        self._trace = trace_log.isEnabledFor(logging.DEBUG)  # DELIVER_LINE, t in wall-clock ms
        threading.Thread(target=self._reader_loop, daemon=True).start()

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = _recv_frame(self._sock)
                if frame is None:
                    break
                if frame.kind == ACK:
                    self._acks.put(frame.msg_id)
                elif frame.kind == PUB:
                    env = Envelope(frame.msg_id, frame.topic, frame.payload,
                                   time.time() * 1000.0, frame.sender)
                    with self._subs_lock:  # routed on arrival, as the sim bus routes on publish
                        for sub_id in self._routes.route(env.topic):
                            self._incoming.put((sub_id, env))
        except (OSError, ValueError):
            pass
        finally:
            self._incoming.put(None)
            self._acks.put(None)  # fails at once a call waiting for an ack that cannot come

    def _call(self, frame: Frame) -> int:
        """Send `frame` and wait for its ack; the caller holds _call_lock."""
        _send_frame(self._sock, self._call_lock, frame)
        try:
            msg_id = self._acks.get(timeout=_ACK_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("broker did not acknowledge within the timeout") from None
        if msg_id is None:
            self._acks.put(None)  # for every later call too
            raise ConnectionError("the broker closed the connection")
        return msg_id

    def subscribe(self, node: str, filt: str, handler: Handler) -> int:
        validate_node_id(node)
        validate_filter(filt)
        with self._subs_lock:
            sub_id = next(self._sub_ids)
            self._subs[sub_id] = (node, handler)
            self._routes.add(sub_id, filt)
        with self._call_lock:
            self._call(Frame(SUB, 0, filt, node))
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        with self._subs_lock:
            self._subs.pop(sub_id, None)
            self._routes.remove(sub_id)

    def publish(self, sender: str, topic: str, payload: bytes) -> int:
        validate_node_id(sender)
        validate_topic(topic)
        validate_payload(payload)
        with self._call_lock:
            return self._call(Frame(PUB, 0, topic, sender, payload))

    def drive(self, awaiting: Awaiting, timeout_ms: float = 120_000.0) -> None:
        """Run handlers, one at a time in arrival order, until `awaiting()` is empty.

        Handlers run only here, on the thread that calls it. A handler's exception ends
        the call, with a cause naming the node and the topic; deliveries not yet made
        wait for the next call. A lost connection raises ConnectionError at once, and
        the timeout a RuntimeError naming what the workload still awaits.
        """
        deadline = time.monotonic() + timeout_ms / 1000.0
        while missing := awaiting():
            try:  # the deadline is checked apart from the wait, which a busy queue never ends
                if (left := deadline - time.monotonic()) <= 0:
                    raise queue.Empty
                delivery = self._incoming.get(timeout=left)
            except queue.Empty:
                raise stalled(f"drive timed out after {timeout_ms:g} ms", missing) from None
            if delivery is None:
                self._incoming.put(None)  # for every later drive too
                raise ConnectionError("the broker closed the connection")
            sub_id, env = delivery
            with self._subs_lock:  # as on the sim bus, skip a handler unsubscribed meanwhile
                entry = self._subs.get(sub_id)
            if entry is None:
                continue
            if self._trace:
                now_ms = time.time() * 1000.0
                trace_log.debug(DELIVER_LINE, now_ms, env.topic, env.msg_id, entry[0])
            try:
                entry[1](env)
            except Exception as exc:
                raise exc from HandlerRaised(entry[0], env.topic)

    def close(self) -> None:
        """Shut the socket once any publish or subscribe in flight has its ack."""
        with self._call_lock:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
