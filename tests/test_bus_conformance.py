"""One behavioural suite, two backends: the simulated broker and the TCP broker."""

import gc
import logging
import re
import socket
import sys
import threading
import time
import tracemalloc

import pytest

from continuum import tcp
from continuum.bus import MAX_FRAME_BYTES, SimBroker
from continuum.tcp import ACK, PUB, SUB, Frame, TcpBrokerServer, TcpBus, _recv_frame, _send_frame


class Backend:
    def settle(self, done=lambda: True):
        self.bus.drive(lambda: [] if done() else ["settle"], timeout_ms=5_000.0)


class SimBackend(Backend):
    name = "sim"

    def __init__(self):
        self.bus = SimBroker()

    def close(self):
        pass


class TcpBackend(Backend):
    name = "tcp"

    def __init__(self):
        self.server = TcpBrokerServer(port=0)
        self.bus = TcpBus(port=self.server.port)

    def close(self):
        self.bus.close()
        self.server.close()


@pytest.fixture(params=["sim", "tcp"])
def backend(request):
    instance = SimBackend() if request.param == "sim" else TcpBackend()
    yield instance
    instance.close()


def test_subscribe_publish_delivers_payload(backend):
    got = []
    backend.bus.subscribe("fog:a", "conf/t", got.append)
    backend.bus.publish("edge:s", "conf/t", b"\x00\x01payload\xff")
    backend.settle(lambda: len(got) == 1)
    assert got[0].payload == b"\x00\x01payload\xff"
    assert got[0].topic == "conf/t"
    assert got[0].sender == "edge:s"
    assert got[0].msg_id >= 1


def test_wildcard_routing(backend):
    single, multi, exact = [], [], []
    backend.bus.subscribe("fog:a", "conf/+/x", single.append)
    backend.bus.subscribe("fog:b", "conf/#", multi.append)
    backend.bus.subscribe("fog:c", "conf/one/x", exact.append)
    backend.bus.publish("edge:s", "conf/one/x", b"1")
    backend.bus.publish("edge:s", "conf/one/y", b"2")
    backend.bus.publish("edge:s", "conf", b"3")
    backend.settle(lambda: len(multi) == 3)
    assert [env.payload for env in single] == [b"1"]
    assert [env.payload for env in multi] == [b"1", b"2", b"3"]
    assert [env.payload for env in exact] == [b"1"]


def test_publish_before_subscribe_is_dropped(backend):
    backend.bus.publish("edge:s", "conf/early", b"lost")
    backend.settle()
    got = []
    backend.bus.subscribe("fog:a", "conf/early", got.append)
    backend.bus.publish("edge:s", "conf/early", b"kept")
    backend.settle(lambda: len(got) == 1)
    assert [env.payload for env in got] == [b"kept"]


def test_two_overlapping_subscriptions_on_one_node(backend):
    got = []
    backend.bus.subscribe("fog:a", "conf/#", got.append)
    backend.bus.subscribe("fog:a", "conf/+", got.append)
    backend.bus.publish("edge:s", "conf/x", b"x")
    backend.settle(lambda: len(got) == 2)
    assert got[0].payload == got[1].payload == b"x"


def test_per_pair_publish_order_preserved(backend):
    got = []
    backend.bus.subscribe("fog:a", "conf/seq", got.append)
    for i in range(50):
        backend.bus.publish("edge:s", "conf/seq", i.to_bytes(2, "big"))
    backend.settle(lambda: len(got) == 50)
    assert [env.payload for env in got] == [i.to_bytes(2, "big") for i in range(50)]


def test_handler_may_publish(backend):
    got = []
    backend.bus.subscribe(
        "fog:a", "conf/ping", lambda env: backend.bus.publish("fog:a", "conf/pong", env.payload)
    )
    backend.bus.subscribe("fog:b", "conf/pong", got.append)
    backend.bus.publish("edge:s", "conf/ping", b"ball")
    backend.settle(lambda: len(got) == 1)
    assert got[0].payload == b"ball"


def test_msg_ids_strictly_increase(backend):
    ids = [backend.bus.publish("edge:s", "conf/ids", b"") for _ in range(5)]
    backend.settle()
    assert ids == sorted(ids)
    assert len(set(ids)) == 5


def test_routes_follow_subscription_changes_after_a_topic_was_routed(backend):
    old, new, sync = [], [], []
    handle = backend.bus.subscribe("fog:a", "conf/r/+", old.append)
    backend.bus.subscribe("fog:a", "conf/sync", sync.append)
    backend.bus.publish("edge:s", "conf/r/x", b"1")
    backend.settle(lambda: len(old) == 1)
    backend.bus.subscribe("fog:b", "conf/#", new.append)
    backend.bus.unsubscribe(handle)
    backend.bus.publish("edge:s", "conf/r/x", b"2")
    # same sender, so fog:a has handled (or dropped) b"2" before it sees b"s"
    backend.bus.publish("edge:s", "conf/sync", b"s")
    backend.settle(lambda: len(new) == 2 and len(sync) == 1)
    assert [env.payload for env in old] == [b"1"]
    assert [env.payload for env in new] == [b"2", b"s"]


def test_handler_unsubscribed_in_flight_is_not_called(backend):
    calls, handles = [], {}

    def first(env):
        calls.append("a")
        backend.bus.unsubscribe(handles["b"])

    handles["a"] = backend.bus.subscribe("fog:n", "conf/u", first)
    handles["b"] = backend.bus.subscribe("fog:n", "conf/u", lambda env: calls.append("b"))
    backend.bus.publish("edge:s", "conf/u", b"x")
    backend.settle(lambda: calls)
    backend.bus.publish("edge:s", "conf/u", b"y")  # FIFO per node: delivered after any "b"
    backend.settle(lambda: calls.count("a") == 2)
    assert calls == ["a", "a"]


def test_handler_exception_surfaces_from_drive_at_once(backend):
    seen = []

    def handler(env):
        seen.append(env.payload)
        raise LookupError(f"no entry for {env.payload!r}")

    backend.bus.subscribe("fog:a", "conf/bad", handler)
    backend.bus.publish("edge:s", "conf/bad", b"1")
    backend.bus.publish("edge:s", "conf/bad", b"2")
    start = time.monotonic()
    with pytest.raises(LookupError, match="no entry for b'1'") as info:
        backend.bus.drive(lambda: ["fog:a"], timeout_ms=5_000.0)
    assert time.monotonic() - start < 2.0
    assert seen == [b"1"]
    assert str(info.value.__cause__) == "a handler of fog:a raised on topic 'conf/bad'"


@pytest.mark.parametrize("make", [SimBackend, TcpBackend], ids=["sim", "tcp"])
def test_trace_log_has_one_deliver_line_per_delivery_on_either_backend(caplog, make):
    caplog.set_level(logging.DEBUG, logger="continuum.bus")
    backend = make()  # a bus reads the log level as it is built
    try:
        got = []
        backend.bus.subscribe("fog:a", "conf/#", got.append)
        backend.bus.subscribe("fog:b", "conf/+", got.append)
        backend.bus.publish("edge:s", "conf/1", b"")
        backend.bus.publish("edge:s", "conf", b"")
        backend.settle(lambda: len(got) == 3)
    finally:
        backend.close()
    lines = [r.getMessage() for r in caplog.records if r.name == "continuum.bus"]
    assert [re.fullmatch(r"deliver t=\d+\.\d{3} topic=(\S+) msg=(\d+) -> (\S+)", line).groups()
            for line in lines] == [("conf/1", "1", "fog:a"), ("conf/1", "1", "fog:b"),
                                   ("conf", "2", "fog:a")]


def test_drive_after_a_raising_handler_dispatches_what_is_still_queued(backend):
    seen = []

    def first(env):
        seen.append(("a", env.payload))
        if env.payload == b"1":
            raise LookupError("first message")

    backend.bus.subscribe("fog:a", "conf/q", first)
    backend.bus.subscribe("fog:b", "conf/q", lambda env: seen.append(("b", env.payload)))
    backend.bus.publish("edge:s", "conf/q", b"1")
    backend.bus.publish("edge:s", "conf/q", b"2")
    with pytest.raises(LookupError, match="first message"):
        backend.bus.drive(lambda: ["fog:b"], timeout_ms=5_000.0)
    assert seen == [("a", b"1")]
    # the next call goes on where the failed one stopped, even within one message
    backend.settle(lambda: len(seen) == 4)
    assert seen == [("a", b"1"), ("b", b"1"), ("a", b"2"), ("b", b"2")]


def test_handlers_of_different_nodes_never_overlap(backend):
    lock, running, peak, done = threading.Lock(), [0], [0], []

    def slow(env):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0.2)
        with lock:
            running[0] -= 1
        done.append(env.payload)

    backend.bus.subscribe("fog:a", "conf/slow", slow)
    backend.bus.subscribe("fog:b", "conf/slow", slow)
    backend.bus.publish("edge:s", "conf/slow", b"x")
    backend.settle(lambda: len(done) == 2)
    assert peak[0] == 1


def test_handlers_run_on_the_thread_that_calls_drive(backend):
    threads = []
    backend.bus.subscribe("fog:a", "conf/t", lambda env: threads.append(threading.get_ident()))
    backend.bus.publish("edge:s", "conf/t", b"x")
    backend.settle(lambda: len(threads) == 1)
    assert threads == [threading.get_ident()]


def test_stall_names_what_the_workload_still_awaits(backend):
    with pytest.raises(RuntimeError, match=r"still awaiting \['cloud:never'\]$"):
        backend.bus.drive(lambda: ["cloud:never"], timeout_ms=300)


def test_payload_cap_is_the_same_on_both_backends(backend):
    got = []
    backend.bus.subscribe("fog:a", "conf/big", got.append)
    largest = bytes(range(256)) * (MAX_FRAME_BYTES // 256)
    backend.bus.publish("edge:s", "conf/big", largest)
    backend.settle(lambda: len(got) == 1)
    assert got[0].payload == largest
    with pytest.raises(ValueError, match="payload of 16777217 bytes exceeds the 16 MiB frame limit"):
        backend.bus.publish("edge:s", "conf/big", largest + b"!")


def test_memory_does_not_grow_with_the_publish_count(backend):
    delivered = [0]

    def count(env):
        delivered[0] += 1

    backend.bus.subscribe("fog:a", "conf/mem", count)

    def peak_traced_bytes(publishes):
        """The traced peak over the last 50 publishes, on top of all that the earlier ones
        left allocated: a maximum over as many publishes in both runs, so the copies of
        a payload that the TCP threads happen to hold at once bias neither run."""
        tracemalloc.start()
        try:
            for i in range(publishes):  # one in flight at a time: no queue may grow either
                if i == publishes - 50:
                    gc.collect()
                    tracemalloc.reset_peak()
                target = delivered[0] + 1
                # a new 64 KiB object each time, as a workload packs each message anew
                backend.bus.publish("edge:s", "conf/mem", bytes([i % 256]) * (64 * 1024))
                backend.settle(lambda: delivered[0] == target)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak_traced_bytes(50), peak_traced_bytes(200)
    assert delivered[0] == 250
    assert long <= 1.05 * short + 64 * 1024, f"peak {short} B at 50 publishes, {long} B at 200"


class SlowAckServer(TcpBrokerServer):
    """Acks late, so a subscriber sees a publish before its publisher sees the ack."""

    def _ack(self, entry, msg_id):
        time.sleep(0.05)
        super()._ack(entry, msg_id)


def test_tcp_close_keeps_a_publish_still_waiting_for_its_ack():
    server = SlowAckServer(port=0)
    bus = TcpBus(port=server.port)
    try:
        got, msg_ids = [], []
        bus.subscribe("fog:w", "conf/ping",
                      lambda env: msg_ids.append(bus.publish("fog:w", "conf/pong", b"last")))
        bus.subscribe("cloud:c", "conf/pong", got.append)
        # published from a side thread, so drive starts before any ack arrives
        side = threading.Thread(
            target=lambda: msg_ids.append(bus.publish("edge:s", "conf/ping", b"go")))
        side.start()
        bus.drive(lambda: [] if got else ["cloud:c"], timeout_ms=5_000.0)
        bus.close()
        side.join(timeout=5.0)
        # both publishes got their acks: close() waited for them rather than failing them
        assert sorted(msg_ids) == [1, 2]
        assert [env.payload for env in got] == [b"last"]
    finally:
        bus.close()
        server.close()


def test_tcp_routes_stay_exact_while_nodes_subscribe_concurrently():
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = {k: [] for k in range(6)}

        def node(k):
            bus.subscribe(f"fog:n{k}", "stress/+", got[k].append)
            for i in range(20):
                bus.publish(f"edge:p{k}", "stress/x", bytes([k, i]))

        threads = [threading.Thread(target=node, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        # each node subscribed before it published, so a stale route would lose its own messages
        own = {k: {bytes([k, i]) for i in range(20)} for k in got}
        bus.drive(lambda: [f"fog:n{k}" for k in got if not own[k] <= {e.payload for e in got[k]}],
                  timeout_ms=5_000.0)
        assert all(len({e.msg_id for e in got[k]}) == len(got[k]) for k in got)
    finally:
        sys.setswitchinterval(interval)
        bus.close()
        server.close()


def test_tcp_nodes_share_one_server_connection_and_add_no_thread():
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    try:
        got = []

        def settle(count):
            bus.drive(lambda: [] if len(got) >= count else ["a node"], timeout_ms=5_000.0)

        bus.subscribe("cloud:c", "conf/n/+", got.append)
        bus.publish("edge:s", "conf/n/x", b"")
        settle(1)
        threads = threading.active_count()
        for k in range(20):
            bus.subscribe(f"fog:n{k}", f"conf/n/{k}", got.append)
            bus.publish(f"edge:s{k}", f"conf/n/{k}", b"")
        settle(41)
        assert len(server._conns) == 1
        assert threading.active_count() <= threads
    finally:
        bus.close()
        server.close()


def test_tcp_broker_server_starts_one_thread():
    before = set(threading.enumerate())
    server = TcpBrokerServer(port=0)
    try:
        assert len(set(threading.enumerate()) - before) == 1  # the accept thread
    finally:
        server.close()


def test_tcp_bus_starts_one_thread_and_drive_leaves_none_behind():
    # a bare listener, so that no broker thread starts while threads are counted
    listener = socket.create_server(("127.0.0.1", 0))
    before = set(threading.enumerate())
    bus = TcpBus(port=listener.getsockname()[1])
    peer, _ = listener.accept()
    try:
        started = set(threading.enumerate()) - before
        assert len(started) == 1  # the reader thread
        lock, got = threading.Lock(), []
        _send_frame(peer, lock, Frame(ACK, 0))  # acks the SUB below ahead of time
        bus.subscribe("fog:a", "conf/t", got.append)
        _send_frame(peer, lock, Frame(PUB, 1, "conf/t", "edge:s", b"x"))
        bus.drive(lambda: [] if got else ["fog:a"], timeout_ms=5_000.0)
        assert [env.payload for env in got] == [b"x"]
        assert set(threading.enumerate()) - before == started
    finally:
        bus.close()
        peer.close()
        listener.close()


def test_tcp_drive_on_a_closed_broker_raises_connection_error_at_once():
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    try:
        server.close()
        for _ in range(2):  # and so does every later drive
            start = time.monotonic()
            with pytest.raises(ConnectionError):
                bus.drive(lambda: ["cloud:c"], timeout_ms=5_000.0)
            assert time.monotonic() - start < 1.0
    finally:
        bus.close()
        server.close()


def test_tcp_server_close_ends_routing_blocked_on_a_subscriber_that_stopped_reading():
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)  # small, so writes block
    stalled.settimeout(5.0)
    try:
        stalled.connect((server.host, server.port))
        _send_frame(stalled, threading.Lock(), Frame(SUB, 0, "flood/#", "cloud:stalled"))
        assert _recv_frame(stalled).kind == ACK  # nothing is read from here on
        errors = []

        def flood():
            try:
                for _ in range(8):  # far more than the socket buffers hold
                    bus.publish("edge:s", "flood/x", bytes(4 << 20))
            except Exception as exc:
                errors.append(exc)

        publisher = threading.Thread(target=flood)
        publisher.start()
        publisher.join(timeout=1.0)
        assert publisher.is_alive(), "routing should block on the stalled subscriber"
        closer = threading.Thread(target=server.close)
        closer.start()
        closer.join(timeout=5.0)
        assert not closer.is_alive(), "close() hung behind the blocked write"
        # the publish waiting for its ack fails at once, not at the ack timeout
        publisher.join(timeout=5.0)
        assert not publisher.is_alive()
        assert [type(exc) for exc in errors] == [ConnectionError]
    finally:
        stalled.close()
        bus.close()
        server.close()


def test_tcp_publish_returns_while_another_subscriber_has_stopped_reading(monkeypatch):
    monkeypatch.setattr(tcp, "_SEND_DEADLINE_S", 0.5)
    server = TcpBrokerServer(port=0)
    bus = TcpBus(port=server.port)
    stalled = socket.socket()
    stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 16)  # small, so writes block
    stalled.settimeout(5.0)
    try:
        stalled.connect((server.host, server.port))
        _send_frame(stalled, threading.Lock(), Frame(SUB, 0, "flood/#", "cloud:stalled"))
        assert _recv_frame(stalled).kind == ACK  # nothing is read from here on
        got = []
        bus.subscribe("fog:a", "flood/#", got.append)
        start = time.monotonic()
        for _ in range(8):  # far more than the socket buffers hold
            bus.publish("edge:s", "flood/x", bytes(4 << 20))
        assert time.monotonic() - start < 3.0
        # routing to the healthy subscriber went on, and the stalled connection was dropped
        bus.drive(lambda: [] if len(got) == 8 else ["fog:a"], timeout_ms=5_000.0)
        try:
            while stalled.recv(1 << 16):
                pass
        except ConnectionResetError:
            pass
    finally:
        stalled.close()
        bus.close()
        server.close()


@pytest.mark.parametrize("attempt", range(10))
def test_tcp_frames_reach_every_connection_in_one_msg_id_order(attempt):
    server = TcpBrokerServer(port=0)
    buses = [TcpBus(port=server.port) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = []
        buses[2].subscribe("cloud:c", "order/+", got.append)

        def publisher(k):
            for i in range(50):
                buses[k].publish(f"edge:p{k}", f"order/{k}", bytes([k, i]))

        # two publishers on their own connections, so two broker readers route at once
        threads = [threading.Thread(target=publisher, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        buses[2].drive(lambda: [] if len(got) == 100 else ["cloud:c"], timeout_ms=5_000.0)
        ids = [env.msg_id for env in got]
        assert all(a < b for a, b in zip(ids, ids[1:])), "frames arrived out of msg-id order"
        for k in range(2):
            mine = [env.payload for env in got if env.sender == f"edge:p{k}"]
            assert mine == [bytes([k, i]) for i in range(50)]
    finally:
        sys.setswitchinterval(interval)
        for bus in buses:
            bus.close()
        server.close()
