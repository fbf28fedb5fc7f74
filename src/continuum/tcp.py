"""Framed-TCP bus backend with the same surface as the simulated broker.

Wire format (frozen): a 4-byte big-endian payload length, then a UTF-8 JSON
object {"type": "pub"|"sub"|"ack", "topic": string, "payload_b64": string,
"sender": string, "msg_id": number}. One reader thread per connection feeds a
single dispatch thread, so handlers never run concurrently with each other;
publishes are acknowledged, giving at-least-once delivery within the process
lifetime. No retained messages, no persistence.
"""

from __future__ import annotations

import base64
import json
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass, field

from .bus import (
    MAX_FRAME_BYTES,
    Envelope,
    Handler,
    RouteTable,
    validate_filter,
    validate_node_id,
    validate_topic,
)

DEFAULT_PORT = 18883
_ACK_TIMEOUT_S = 10.0


def _send_frame(sock: socket.socket, lock: threading.Lock, obj: dict) -> None:
    data = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(data)} bytes exceeds the 16 MiB limit")
    with lock:
        sock.sendall(struct.pack(">I", len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> dict | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME_BYTES:
        raise ValueError("incoming frame exceeds the 16 MiB limit")
    body = _recv_exact(sock, length)
    if body is None:
        return None
    return json.loads(body.decode("utf-8"))


class TcpBrokerServer:
    """Accepts connections, routes 'pub' frames to matching 'sub' registrations."""

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT):
        self._listener = socket.create_server((host, port))
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._conns: dict[int, tuple[socket.socket, threading.Lock]] = {}
        self._routes = RouteTable()  # of conn_ids; guarded by _lock
        self._next_conn = 0
        self._next_msg = 0
        self._next_sub = 0
        self._dispatch: queue.Queue = queue.Queue()
        self._closing = False
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        self._dispatch_thread = threading.Thread(target=self._dispatch_loop, daemon=True)
        self._dispatch_thread.start()

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                conn_id = self._next_conn
                self._next_conn += 1
                self._conns[conn_id] = (conn, threading.Lock())
            threading.Thread(target=self._reader_loop, args=(conn_id, conn), daemon=True).start()

    def _reader_loop(self, conn_id: int, conn: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(conn)
                if frame is None:
                    break
                self._handle(conn_id, frame)
        except (OSError, ValueError):
            pass
        finally:
            with self._lock:
                self._conns.pop(conn_id, None)
                self._routes.remove(conn_id)
            conn.close()

    def _handle(self, conn_id: int, frame: dict) -> None:
        kind = frame.get("type")
        if kind == "sub":
            with self._lock:
                self._next_sub += 1
                sub_id = self._next_sub
                self._routes.add(conn_id, frame["topic"])
                entry = self._conns.get(conn_id)
            if entry is not None:
                self._ack(entry, sub_id)
        elif kind == "pub":
            with self._lock:
                self._next_msg += 1
                msg_id = self._next_msg
                entry = self._conns.get(conn_id)
            self._dispatch.put({**frame, "msg_id": msg_id})
            if entry is not None:
                self._ack(entry, msg_id)

    def _ack(self, entry: tuple[socket.socket, threading.Lock], msg_id: int) -> None:
        sock, lock = entry
        try:
            _send_frame(sock, lock, {"type": "ack", "topic": "", "payload_b64": "",
                                     "sender": "", "msg_id": msg_id})
        except OSError:
            pass

    def _dispatch_loop(self) -> None:
        while True:
            frame = self._dispatch.get()
            if frame is None:
                return
            with self._lock:
                targets = [self._conns.get(c) for c in self._routes.route(frame["topic"])]
            for entry in filter(None, targets):
                sock, lock = entry
                try:
                    _send_frame(sock, lock, frame)
                except OSError:
                    pass

    def close(self) -> None:
        self._closing = True
        self._dispatch.put(None)
        try:
            # shutdown (not just close) wakes the thread blocked in accept(),
            # releasing the port for the next bind
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for sock, _lock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        self._accept_thread.join(timeout=2.0)
        self._dispatch_thread.join(timeout=2.0)


class _NodeConnection:
    """One node's connection: serialized local dispatch, FIFO publish acks."""

    def __init__(self, host: str, port: int, node: str, published: list[Envelope]):
        self.node = node
        self._published = published
        self._sock = socket.create_connection((host, port))
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._write_lock = threading.Lock()
        self._call_lock = threading.Lock()  # serializes frame-send + ack-wait pairs
        self._acks: queue.Queue = queue.Queue()
        self._incoming: queue.Queue = queue.Queue()
        self._handlers: dict[int, Handler] = {}
        self._routes = RouteTable()  # of local ids; guarded by _subs_lock
        self._subs_lock = threading.Lock()
        self._next_local_sub = 0
        threading.Thread(target=self._reader_loop, daemon=True).start()
        threading.Thread(target=self._dispatch_loop, daemon=True).start()

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = _recv_frame(self._sock)
                if frame is None:
                    break
                if frame["type"] == "ack":
                    self._acks.put(frame["msg_id"])
                elif frame["type"] == "pub":
                    self._incoming.put(frame)
        except (OSError, ValueError):
            pass
        finally:
            self._incoming.put(None)

    def _dispatch_loop(self) -> None:
        while True:
            frame = self._incoming.get()
            if frame is None:
                return
            env = Envelope(
                msg_id=frame["msg_id"],
                topic=frame["topic"],
                payload=base64.b64decode(frame["payload_b64"]),
                publish_time=time.time() * 1000.0,
                sender=frame["sender"],
            )
            with self._subs_lock:
                handlers = [self._handlers[i] for i in self._routes.route(env.topic)]
            for handler in handlers:
                handler(env)

    def _call(self, frame: dict) -> int:
        """Send `frame` and wait for its ack; the caller holds _call_lock."""
        _send_frame(self._sock, self._write_lock, frame)
        try:
            return self._acks.get(timeout=_ACK_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError("broker did not acknowledge within the timeout") from None

    def subscribe(self, filt: str, handler: Handler) -> int:
        with self._subs_lock:
            self._next_local_sub += 1
            local_id = self._next_local_sub
            self._handlers[local_id] = handler
            self._routes.add(local_id, filt)
        with self._call_lock:
            self._call({"type": "sub", "topic": filt, "payload_b64": "", "sender": self.node,
                        "msg_id": 0})
        return local_id

    def unsubscribe(self, local_id: int) -> None:
        with self._subs_lock:
            self._handlers.pop(local_id, None)
            self._routes.remove(local_id)

    def publish(self, topic: str, payload: bytes) -> int:
        frame = {
            "type": "pub",
            "topic": topic,
            "payload_b64": base64.b64encode(payload).decode("ascii"),
            "sender": self.node,
            "msg_id": 0,
        }
        with self._call_lock:
            msg_id = self._call(frame)
            # recorded under the lock, so a close() that follows cannot lose it
            self._published.append(
                Envelope(msg_id, topic, bytes(payload), time.time() * 1000.0, self.node))
        return msg_id

    def close(self) -> None:
        """Shut the socket once any publish or subscribe in flight has its ack."""
        with self._call_lock:
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()


@dataclass
class TcpBus:
    """Per-node connections behind the simulated broker's publish/subscribe surface."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    published: list[Envelope] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._conns: dict[str, _NodeConnection] = {}
        self._lock = threading.Lock()

    @property
    def now(self) -> float:
        return time.time() * 1000.0

    def _conn(self, node: str) -> _NodeConnection:
        validate_node_id(node)
        with self._lock:
            conn = self._conns.get(node)
            if conn is None:
                conn = _NodeConnection(self.host, self.port, node, self.published)
                self._conns[node] = conn
            return conn

    def subscribe(self, node: str, filt: str, handler: Handler) -> tuple[str, int]:
        validate_filter(filt)
        return node, self._conn(node).subscribe(filt, handler)

    def unsubscribe(self, handle: tuple[str, int]) -> None:
        node, local_id = handle
        with self._lock:
            conn = self._conns.get(node)
        if conn is not None:
            conn.unsubscribe(local_id)

    def publish(self, sender: str, topic: str, payload: bytes) -> int:
        validate_topic(topic)
        if len(payload) > MAX_FRAME_BYTES:
            raise ValueError(f"payload of {len(payload)} bytes exceeds the 16 MiB frame limit")
        return self._conn(sender).publish(topic, payload)

    def drive(self, done, timeout_ms: float = 120_000.0) -> None:
        """Poll until the workload reports completion; handlers run on bus threads."""
        deadline = time.monotonic() + timeout_ms / 1000.0
        while not done():
            if time.monotonic() > deadline:
                raise RuntimeError("workload did not complete within the drive timeout")
            time.sleep(0.001)

    def close(self) -> None:
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.close()
