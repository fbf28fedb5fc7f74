import pytest

from continuum.bus import Envelope, LinkLatency, SimBroker


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
    broker.subscribe("fog:a", "#", lambda env: None)
    broker.call_at(5.0, lambda: broker.publish("edge:s", "t/1", b""))
    broker.call_at(9.0, lambda: broker.publish("edge:s", "t/2", b""))
    broker.publish("edge:s", "t/0", b"")
    broker.run_until_idle()
    ids = [env.msg_id for env in broker.published]
    times = [env.publish_time for env in sorted(broker.published, key=lambda e: e.msg_id)]
    assert ids == sorted(ids)
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
