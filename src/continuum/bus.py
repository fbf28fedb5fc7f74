"""MQTT-semantics publish/subscribe on a deterministic virtual-time event loop.

Topic filters follow MQTT v3.1.1 wildcard rules: ``+`` matches exactly one
level and a trailing ``#`` matches all remaining levels, including none
(``a/#`` matches ``a``). The simulated broker delivers with per-link latency
and breaks equal-timestamp ties FIFO by scheduling order, so a run is a pure
function of its inputs.
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Collection, Hashable, Mapping, NamedTuple, Protocol

log = logging.getLogger("continuum.bus")

MAX_FRAME_BYTES = 16 * 1024 * 1024
NODE_LAYERS = ("edge", "fog", "cloud")

Handler = Callable[["Envelope"], None]
# What a workload still waits for, by name (a node id, "item 3"); empty once it is done.
Awaiting = Callable[[], Collection[str]]
# Either backend's debug line for one delivery: time in ms, topic, msg id, receiving node.
DELIVER_LINE = "deliver t=%.3f topic=%s msg=%d -> %s"


def validate_topic(topic: str) -> str:
    """Check a concrete (publishable) topic; wildcards are not allowed."""
    if not topic:
        raise ValueError("topic must be a non-empty string")
    if "+" in topic or "#" in topic:
        raise ValueError(f"topic {topic!r} may not contain wildcard characters")
    return topic


def validate_payload(payload: bytes) -> bytes:
    """Check a payload against the frame cap that both backends enforce."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ValueError(f"payload of {len(payload)} bytes exceeds the 16 MiB frame limit")
    return payload


def stalled(cause: str, missing: Collection[str]) -> RuntimeError:
    """The error either backend's `drive` raises when a workload stops short of done."""
    return RuntimeError(f"{cause}; still awaiting {sorted(missing)}")


class HandlerRaised(RuntimeError):
    """The cause either backend chains to a handler's exception, naming where it raised."""

    def __init__(self, node: str, topic: str):
        super().__init__(f"a handler of {node} raised on topic {topic!r}")


def validate_filter(filt: str) -> str:
    """Check a subscription filter: '+'/'#' only as whole levels, '#' only last."""
    if not filt:
        raise ValueError("topic filter must be a non-empty string")
    levels = filt.split("/")
    for i, level in enumerate(levels):
        if level == "#":
            if i != len(levels) - 1:
                raise ValueError(f"'#' must be the final level in filter {filt!r}")
        elif level != "+" and ("+" in level or "#" in level):
            raise ValueError(f"wildcards must occupy a whole level in filter {filt!r}")
    return filt


def topic_matches(filt: str, topic: str) -> bool:
    """True iff `filt` matches `topic` level-by-level (MQTT v3.1.1 semantics)."""
    flevels = filt.split("/")
    tlevels = topic.split("/")
    for i, flevel in enumerate(flevels):
        if flevel == "#":
            return True
        if i >= len(tlevels):
            return False
        if flevel != "+" and flevel != tlevels[i]:
            return False
    return len(tlevels) == len(flevels)


class RouteTable:
    """Topic filters by target, in subscription order, behind a lazily filled route cache.

    `route(topic)` lists each target with a matching filter once, in order of its
    first matching subscription. A topic's first route scans every filter with
    `topic_matches`; any subscribe or unsubscribe clears the whole cache, so it
    holds at most one entry per distinct topic routed since the last subscription
    change. Not thread-safe: callers hold their own lock.
    """

    def __init__(self) -> None:
        self._filters: list[tuple[str, Hashable]] = []  # (filter, target), subscription order
        self._routes: dict[str, list[Hashable]] = {}

    def add(self, target: Hashable, filt: str) -> None:
        self._filters.append((filt, target))
        self._routes.clear()

    def remove(self, target: Hashable) -> None:
        """Drop every filter of `target`."""
        self._filters = [(f, t) for f, t in self._filters if t != target]
        self._routes.clear()

    def route(self, topic: str) -> list[Hashable]:
        targets = self._routes.get(topic)
        if targets is None:
            targets = list(dict.fromkeys(t for f, t in self._filters if topic_matches(f, topic)))
            self._routes[topic] = targets
        return targets


def validate_node_id(node: str) -> str:
    """Node ids carry their continuum layer: 'edge:cam1', 'fog:worker-0', 'cloud:server'."""
    layer, sep, name = node.partition(":")
    if not sep or not name or layer not in NODE_LAYERS:
        raise ValueError(
            f"node id {node!r} must be '<layer>:<name>' with layer one of {NODE_LAYERS}"
        )
    return node


class Envelope(NamedTuple):
    """One published message as seen on the bus."""

    msg_id: int
    topic: str
    payload: bytes
    publish_time: float  # milliseconds; virtual under SimBroker, wall-clock under TCP
    sender: str


@dataclass(frozen=True)
class LinkLatency:
    """Directed per-pair delivery latency in ms with a default for unlisted pairs.

    Immutable, `pairs` included (it is held as a read-only copy), so a broker may
    cache the latencies it has looked up. Every latency is held as a Python float.
    """

    pairs: Mapping[tuple[str, str], float] = field(default_factory=dict, hash=False)
    default_ms: float = 0.0

    def __post_init__(self) -> None:
        pairs = MappingProxyType({pair: float(ms) for pair, ms in self.pairs.items()})
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "default_ms", float(self.default_ms))
        if self.default_ms < 0:
            raise ValueError("default latency must be >= 0")
        for (a, b), ms in self.pairs.items():
            if ms < 0:
                raise ValueError(f"latency for ({a}, {b}) must be >= 0")
            if a == b and ms != 0:
                raise ValueError(f"latency from {a} to itself must be 0")

    def between(self, sender: str, receiver: str) -> float:
        if sender == receiver:
            return 0.0
        return self.pairs.get((sender, receiver), self.default_ms)


class Bus(Protocol):
    """What the workloads use of a bus; SimBroker and tcp.TcpBus both provide it.

    Handlers run only inside `drive(awaiting, timeout_ms)`, on the thread that
    calls it, one at a time, in arrival order, until `awaiting()` is empty. A
    raising handler ends the call with its exception, caused by `HandlerRaised`;
    deliveries not yet made wait for the next. A stuck workload (sim: queue
    drained; TCP: `timeout_ms` passed) raises a RuntimeError naming
    `sorted(awaiting())`, and a lost TCP broker a ConnectionError at once. A bus
    keeps no envelope once it has delivered it; a caller that wants a trace
    subscribes on '#'.
    """

    def subscribe(self, node: str, filt: str, handler: Handler) -> int: ...

    def unsubscribe(self, handle: int) -> None: ...  # a handle subscribe returned

    def publish(self, sender: str, topic: str, payload: bytes) -> int: ...

    def drive(self, awaiting: Awaiting, timeout_ms: float = ...) -> None: ...


class SimClock:
    """Virtual-time event queue: `call_at(due_ms, fn, *args)` schedules the call
    `fn(*args)`, and equal due times fire in scheduling (FIFO) order.

    Events are keyed (due, seq). A caller that schedules a stream of events one
    at a time takes their sequence numbers up front with `reserve` and pushes
    each with `push`, so they fire as if all had gone through `call_at` at once.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._seq = itertools.count()

    def call_at(self, due_ms: float, fn: Callable[..., None], *args) -> None:
        due = float(due_ms)
        if due < self.now:
            raise ValueError(f"cannot schedule at {due} ms: time is already {self.now} ms")
        heapq.heappush(self._heap, (due, next(self._seq), fn, args))

    def reserve(self, n: int) -> int:
        """Take `n` consecutive sequence numbers for later `push` calls; returns the first."""
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        return first

    def push(self, due: float, seq: int, fn: Callable[..., None], *args) -> None:
        """Schedule `fn(*args)` at `due` under a reserved `seq`; the caller keeps due >= now."""
        heapq.heappush(self._heap, (due, seq, fn, args))

    def pending(self) -> int:
        return len(self._heap)

    def step(self) -> float:
        """Run the next event, advancing the clock. Returns its due time."""
        due, _, fn, args = heapq.heappop(self._heap)
        self.now = due
        fn(*args)
        return due


class SimBroker:
    """Single logical broker over a virtual clock.

    Handlers run inside the event loop, strictly one at a time, and may
    publish or schedule further events (`call_at(due_ms, fn, *args)`) but must
    not block. The per-delivery trace line is logged only when `continuum.bus`
    has DEBUG enabled as the broker is built.
    """

    # Read by perfbench's tracer as what a bus still holds; a bus retains nothing.
    published: tuple[Envelope, ...] = ()

    def __init__(self, latency: LinkLatency | None = None, max_events: int = 10_000_000):
        self.clock = SimClock()
        # call_at(due_ms, fn, *args) is the clock's own method: an event's arguments are packed once
        self.call_at = self.clock.call_at
        self.latency = latency if latency is not None else LinkLatency()
        self.max_events = max_events
        self._subs: dict[int, tuple[str, Handler]] = {}  # sub_id -> (node, handler)
        self._routes = RouteTable()  # of sub_ids
        self._sub_ids = itertools.count(1)
        self._msg_ids = itertools.count(1)
        # (sender, topic) -> [(latency_ms, sub_id)] in route order; cleared on (un)subscribe
        self._fanouts: dict[tuple[str, str], list[tuple[float, int]]] = {}
        self._trace = log.isEnabledFor(logging.DEBUG)

    @property
    def now(self) -> float:
        return self.clock.now

    def subscribe(self, node: str, filt: str, handler: Handler) -> int:
        validate_node_id(node)
        validate_filter(filt)
        sub_id = next(self._sub_ids)
        self._subs[sub_id] = (node, handler)
        self._routes.add(sub_id, filt)
        self._fanouts.clear()
        return sub_id

    def unsubscribe(self, sub_id: int) -> None:
        self._subs.pop(sub_id, None)
        self._routes.remove(sub_id)
        self._fanouts.clear()

    def _fanout(self, sender: str, topic: str) -> list[tuple[float, int]]:
        """Validate a new (sender, topic) pair and cache its deliveries' latencies."""
        validate_node_id(sender)
        validate_topic(topic)
        between, subs = self.latency.between, self._subs
        fanout = [(between(sender, subs[s][0]), s) for s in self._routes.route(topic)]
        self._fanouts[(sender, topic)] = fanout
        return fanout

    def publish(self, sender: str, topic: str, payload: bytes) -> int:
        fanout = self._fanouts.get((sender, topic))
        if fanout is None:
            fanout = self._fanout(sender, topic)
        validate_payload(payload)
        clock = self.clock
        now = clock.now
        env = Envelope(next(self._msg_ids), topic, bytes(payload), now, sender)
        # latencies are >= 0, so no delivery is due before now: call_at's check cannot fail
        heap, seq, deliver = clock._heap, clock._seq, self._deliver
        for latency_ms, sub_id in fanout:
            heapq.heappush(heap, (now + latency_ms, next(seq), deliver, (sub_id, env)))
        return env.msg_id

    def _deliver(self, sub_id: int, env: Envelope) -> None:
        entry = self._subs.get(sub_id)
        if entry is None:  # unsubscribed while in flight
            return
        if self._trace:
            log.debug(DELIVER_LINE, self.clock.now, env.topic, env.msg_id, entry[0])
        try:
            entry[1](env)
        except Exception as exc:
            raise exc from HandlerRaised(entry[0], env.topic)

    def run_until_idle(self) -> float:
        """Process events in (due, seq) order until none remain.

        Returns the due time of the last event processed by this call, 0.0 if
        the queue was already empty. Raises if the event count exceeds the
        livelock cap.
        """
        # every event runs through step, which perfbench's tracer wraps to count events
        heap, step = self.clock._heap, self.clock.step
        processed = 0
        last_due = 0.0
        while heap:
            processed += 1
            if processed > self.max_events:
                raise RuntimeError(f"event cap of {self.max_events} exceeded; likely a livelock")
            last_due = step()
        return last_due

    def drive(self, awaiting: Awaiting, timeout_ms: float | None = None) -> None:
        """Drain the event queue, then raise naming whatever the workload still awaits.

        `timeout_ms` is part of the Bus contract so that one call runs on either
        backend; it is unused here, because a drained queue already bounds a run
        in virtual time and the event cap bounds a livelock.
        """
        self.run_until_idle()
        missing = awaiting()
        if missing:
            raise stalled("event queue drained", missing)
