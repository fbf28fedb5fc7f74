import dataclasses
import logging

import pytest

from conftest import record
from continuum.bus import Envelope, LinkLatency, SimBroker, SimClock


def collect(broker: SimBroker, node: str, filt: str) -> list[Envelope]:
    received: list[Envelope] = []
    broker.subscribe(node, filt, received.append)
    return received


def test_subscribe_then_publish_delivers_once():
    broker = SimBroker()
    got = collect(broker, "fog:a", "sensors/+")
    broker.publish("edge:s", "sensors/temp", b"21.5")
    broker.run_until_idle()
    assert len(got) == 1
    assert got[0].payload == b"21.5"
    assert got[0].topic == "sensors/temp"
    assert got[0].sender == "edge:s"


def test_no_retained_messages():
    broker = SimBroker()
    broker.publish("edge:s", "sensors/temp", b"before")
    broker.run_until_idle()
    got = collect(broker, "fog:a", "sensors/temp")
    broker.run_until_idle()
    assert got == []


def test_overlapping_subscriptions_deliver_twice():
    broker = SimBroker()
    received = []
    broker.subscribe("fog:a", "sensors/#", received.append)
    broker.subscribe("fog:a", "sensors/+", received.append)
    broker.publish("edge:s", "sensors/temp", b"x")
    broker.run_until_idle()
    assert len(received) == 2
    assert received[0].msg_id == received[1].msg_id


def test_unmatched_publish_succeeds():
    broker = SimBroker()
    msg_id = broker.publish("edge:s", "nobody/listens", b"x")
    assert msg_id >= 1
    assert broker.run_until_idle() == 0.0


def test_link_latency_delivery_time():
    latency = LinkLatency(pairs={("edge:a", "fog:b"): 50.0})
    broker = SimBroker(latency=latency)
    seen_at = []
    broker.subscribe("fog:b", "t", lambda env: seen_at.append(broker.now))
    broker.call_at(100.0, lambda: broker.publish("edge:a", "t", b""))
    broker.run_until_idle()
    assert seen_at == [150.0]


def test_latency_validation():
    with pytest.raises(ValueError):
        LinkLatency(pairs={("a", "b"): -1.0})
    with pytest.raises(ValueError):
        LinkLatency(pairs={("a", "a"): 5.0})
    assert LinkLatency(default_ms=9.0).between("fog:x", "fog:x") == 0.0


def test_per_pair_fifo_ordering():
    broker = SimBroker(latency=LinkLatency(default_ms=10.0))
    order = []
    broker.subscribe("fog:b", "t", lambda env: order.append(env.payload))
    for i in range(20):
        broker.publish("edge:a", "t", bytes([i]))
    broker.run_until_idle()
    assert order == [bytes([i]) for i in range(20)]


def test_run_until_idle_returns_last_due_time():
    broker = SimBroker()
    assert broker.run_until_idle() == 0.0

    def chain(depth):
        if depth > 0:
            broker.call_at(broker.now + 10.0, lambda: chain(depth - 1))

    chain(3)
    assert broker.run_until_idle() == 30.0


def test_livelock_guard():
    broker = SimBroker(max_events=100)
    broker.subscribe("fog:a", "loop", lambda env: broker.publish("fog:a", "loop", b""))
    broker.publish("fog:a", "loop", b"")
    with pytest.raises(RuntimeError, match="event cap"):
        broker.run_until_idle()


def test_identical_workload_gives_identical_trace():
    def workload() -> list[tuple[float, str, str, int]]:
        broker = SimBroker(latency=LinkLatency(default_ms=3.0))
        trace = []
        for node, filt in (("fog:a", "a/#"), ("fog:b", "a/+")):
            broker.subscribe(
                node, filt, lambda env, n=node: trace.append((broker.now, n, env.topic, env.msg_id))
            )
        for i in range(10):
            broker.call_at(5.0 * i, lambda i=i: broker.publish("edge:s", f"a/{i % 3}", b"x"))
        broker.run_until_idle()
        return trace

    assert workload() == workload()


def test_msg_ids_monotonic_and_publish_times_nondecreasing():
    broker = SimBroker()
    trace = record(broker)
    broker.call_at(5.0, lambda: broker.publish("edge:s", "t/1", b""))
    broker.call_at(9.0, lambda: broker.publish("edge:s", "t/2", b""))
    broker.publish("edge:s", "t/0", b"")
    broker.run_until_idle()
    ids = [env.msg_id for env in trace]
    times = [env.publish_time for env in sorted(trace, key=lambda e: e.msg_id)]
    assert len(ids) == 3 and ids == sorted(ids)
    assert times == sorted(times)


def test_payload_size_limit():
    broker = SimBroker()
    with pytest.raises(ValueError, match="16 MiB"):
        broker.publish("edge:s", "t", b"x" * (16 * 1024 * 1024 + 1))


def test_unsubscribe_cancels_in_flight_delivery():
    broker = SimBroker(latency=LinkLatency(default_ms=10.0))
    received = []
    sub_id = broker.subscribe("fog:a", "t", received.append)
    broker.publish("edge:s", "t", b"")
    broker.unsubscribe(sub_id)
    broker.run_until_idle()
    assert received == []


def test_invalid_node_and_topic_rejected():
    broker = SimBroker()
    with pytest.raises(ValueError):
        broker.publish("nolayer", "t", b"")
    with pytest.raises(ValueError):
        broker.publish("edge:s", "bad/+/topic", b"")
    with pytest.raises(ValueError):
        broker.subscribe("fog:a", "bad/#/filter", lambda env: None)


def test_handlers_fire_in_subscription_order_for_equal_times():
    broker = SimBroker()
    order = []
    broker.subscribe("fog:a", "t", lambda env: order.append("first"))
    broker.subscribe("fog:b", "t", lambda env: order.append("second"))
    broker.publish("edge:s", "t", b"")
    broker.run_until_idle()
    assert order == ["first", "second"]


def test_publish_validation_holds_after_the_sender_published_validly():
    broker = SimBroker()
    trace = record(broker)
    broker.publish("edge:s", "t", b"")
    for _ in range(2):  # a rejected pair is not remembered, so it is rejected again
        with pytest.raises(ValueError, match="node id"):
            broker.publish("nolayer", "t", b"")
        for topic in ("t/+", "t/#", "+"):
            with pytest.raises(ValueError, match="wildcard"):
                broker.publish("edge:s", topic, b"")
        with pytest.raises(ValueError, match="16 MiB"):
            broker.publish("edge:s", "t", b"x" * (16 * 1024 * 1024 + 1))
    broker.publish("edge:s", "t", b"")
    broker.run_until_idle()
    assert len(trace) == 2


def test_call_at_passes_arguments_and_fires_equal_times_in_scheduling_order():
    broker = SimBroker()
    fired = []

    def record(*args):
        fired.append((broker.now, args))

    for i in range(4):
        broker.call_at(10.0, record, i, f"arg{i}")
    broker.call_at(10.0, lambda: fired.append((broker.now, "no arguments")))
    broker.call_at(5.0, record)
    broker.run_until_idle()
    assert fired == [
        (5.0, ()),
        *[(10.0, (i, f"arg{i}")) for i in range(4)],
        (10.0, "no arguments"),
    ]


def test_call_at_before_now_raises():
    broker = SimBroker()
    broker.call_at(10.0, lambda: None)
    broker.run_until_idle()
    with pytest.raises(ValueError, match="time is already 10.0 ms"):
        broker.call_at(9.0, print, "too late")
    assert broker.clock.pending() == 0


def test_reserved_sequence_numbers_fire_as_call_at_would():
    # (due, label): equal due times break ties by sequence number
    events = [(10.0, "a"), (5.0, "b"), (10.0, "c"), (5.0, "d"), (7.0, "e")]

    def fire_all(schedule) -> list[str]:
        clock, fired = SimClock(), []
        schedule(clock, fired.append)
        while clock.pending():
            clock.step()
        return fired

    def with_call_at(clock, fire):
        for due, label in events:
            clock.call_at(due, fire, label)
        clock.call_at(5.0, fire, "after")

    def with_reserve(clock, fire):
        first = clock.reserve(len(events))
        clock.call_at(5.0, fire, "after")  # takes the number after the reserved block
        for i in reversed(range(len(events))):  # push order does not matter, the numbers do
            clock.push(events[i][0], first + i, fire, events[i][1])

    expected = ["b", "d", "after", "e", "a", "c"]
    assert fire_all(with_call_at) == fire_all(with_reserve) == expected


def test_cached_fanout_is_rebuilt_after_subscribe_and_unsubscribe():
    broker = SimBroker(latency=LinkLatency(pairs={("edge:s", "fog:b"): 7.0}, default_ms=2.0))
    seen = []

    def seen_by(node):
        return lambda env: seen.append((node, env.payload, broker.now))

    first = broker.subscribe("fog:a", "t", seen_by("fog:a"))
    broker.publish("edge:s", "t", b"1")
    broker.run_until_idle()
    broker.subscribe("fog:b", "t", seen_by("fog:b"))
    broker.publish("edge:s", "t", b"2")
    broker.run_until_idle()
    broker.unsubscribe(first)
    broker.publish("edge:s", "t", b"3")
    assert broker.clock.pending() == 1  # no event queued for the gone subscriber
    broker.run_until_idle()
    assert seen == [
        ("fog:a", b"1", 2.0),
        ("fog:a", b"2", 4.0), ("fog:b", b"2", 9.0),
        ("fog:b", b"3", 16.0),
    ]


def test_link_latency_cannot_be_changed_after_it_is_built():
    pairs = {("edge:a", "fog:b"): 5.0}
    latency = LinkLatency(pairs=pairs, default_ms=1.0)
    pairs[("edge:a", "fog:b")] = 50.0  # the caller's dict is copied, not held
    assert latency.between("edge:a", "fog:b") == 5.0
    with pytest.raises(TypeError):
        latency.pairs[("edge:a", "fog:b")] = 50.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        latency.default_ms = 9.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        latency.pairs = {}
    assert latency == LinkLatency(pairs={("edge:a", "fog:b"): 5.0}, default_ms=1.0)


def test_trace_log_has_one_deliver_line_per_delivery(caplog):
    caplog.set_level(logging.DEBUG, logger="continuum.bus")
    broker = SimBroker(latency=LinkLatency(default_ms=2.0))
    broker.subscribe("fog:a", "t/#", lambda env: None)
    broker.subscribe("fog:b", "t/+", lambda env: None)
    broker.publish("edge:s", "t/1", b"")
    broker.publish("edge:s", "t", b"")
    broker.run_until_idle()
    assert [r.getMessage() for r in caplog.records if r.name == "continuum.bus"] == [
        "deliver t=2.000 topic=t/1 msg=1 -> fog:a",
        "deliver t=2.000 topic=t/1 msg=1 -> fog:b",
        "deliver t=2.000 topic=t msg=2 -> fog:a",
    ]
