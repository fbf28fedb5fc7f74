"""Event-triggered staged data pipeline with per-stage FIFO queues.

Each stage subscribes to its input topic, serves items one at a time (single
server by default), and publishes downstream. For constant service times the
simulated completion times match the exact tandem-queue recurrence
``D[i][s] = max(D[i][s-1], D[i-1][s]) + S[i][s]`` to the millisecond, which is
the correctness oracle for the whole engine.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from . import wire
from .bus import SimBroker, topic_matches, validate_filter, validate_node_id, validate_topic

STAGE_KINDS = ("process", "serverless_function")
UNIT_BLOCK = 4096
SOURCE_NODE = "edge:source"  # the node that publishes each arriving item


def unit_doubles(rng: np.random.Generator) -> Iterator[float]:
    """`rng.random()`'s sequence of doubles in [0, 1), drawn UNIT_BLOCK at a time."""
    while True:
        yield from rng.random(UNIT_BLOCK).tolist()


@dataclass(frozen=True)
class Constant:
    ms: float

    def __post_init__(self) -> None:
        if self.ms < 0:
            raise ValueError("service time must be >= 0")

    def draw(self, units: Iterator[float]) -> float:
        return self.ms


@dataclass(frozen=True)
class Uniform:
    lo_ms: float
    hi_ms: float

    def __post_init__(self) -> None:
        if self.lo_ms < 0 or self.hi_ms < self.lo_ms:
            raise ValueError("need 0 <= lo_ms <= hi_ms")

    def draw(self, units: Iterator[float]) -> float:
        """`rng.uniform(lo_ms, hi_ms)`'s next value, bit for bit, from `unit_doubles(rng)`."""
        return self.lo_ms + (self.hi_ms - self.lo_ms) * next(units)


@dataclass(frozen=True)
class StageSpec:
    name: str
    node: str
    input_topic: str
    output_topic: str | None
    service: Constant | Uniform
    kind: str = "process"
    servers: int = 1
    cold_start_ms: float = 0.0
    cold_idle_threshold_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("stage name must be non-empty")
        validate_node_id(self.node)
        validate_filter(self.input_topic)
        if self.output_topic is not None:
            validate_topic(self.output_topic)
        if self.kind not in STAGE_KINDS:
            raise ValueError(f"stage kind must be one of {STAGE_KINDS}, got {self.kind!r}")
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.cold_start_ms < 0 or self.cold_idle_threshold_ms < 0:
            raise ValueError("cold-start parameters must be >= 0")


@dataclass(frozen=True)
class PipelineSpec:
    name: str
    source_topic: str
    stages: tuple[StageSpec, ...]

    def __post_init__(self) -> None:
        validate_topic(self.source_topic)
        if not self.stages:
            raise ValueError("a pipeline needs at least one stage")
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError(f"stage names must be unique, got {names}")
        if not topic_matches(self.stages[0].input_topic, self.source_topic):
            raise ValueError(
                f"source topic {self.source_topic!r} does not reach stage "
                f"{self.stages[0].name!r} (input {self.stages[0].input_topic!r})"
            )
        for upstream, downstream in zip(self.stages[:-1], self.stages[1:]):
            if upstream.output_topic is None:
                raise ValueError(
                    f"stage {upstream.name!r} has no output topic but is followed by "
                    f"{downstream.name!r}"
                )
            if not topic_matches(downstream.input_topic, upstream.output_topic):
                raise ValueError(
                    f"output of stage {upstream.name!r} ({upstream.output_topic!r}) does not "
                    f"match the input of stage {downstream.name!r} ({downstream.input_topic!r})"
                )
        if self.stages[-1].output_topic is not None:
            raise ValueError(f"terminal stage {self.stages[-1].name!r} must not publish onward")
        published = [self.source_topic] + [s.output_topic for s in self.stages[:-1]]
        for k, stage in enumerate(self.stages):  # stage k's upstream publishes published[k]
            for topic in published[:k] + published[k + 1:]:
                if topic_matches(stage.input_topic, topic):
                    raise ValueError(f"stage {stage.name!r} would see each item more than once: "
                                     f"its input {stage.input_topic!r} also matches {topic!r}")


@dataclass(frozen=True)
class ArrivalSchedule:
    """Either `count` items every `interval_ms`, or explicit strictly increasing times."""

    count: int = 0
    interval_ms: float = 0.0
    times_ms: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.times_ms is not None:
            if not self.times_ms:
                raise ValueError("explicit arrival list must be non-empty")
            if any(b <= a for a, b in zip(self.times_ms, self.times_ms[1:])):
                raise ValueError("arrival times must be strictly increasing")
        else:
            if self.count < 1:
                raise ValueError("count must be >= 1")
            if self.interval_ms <= 0:
                raise ValueError("interval_ms must be > 0")
            try:  # the last arrival time, as times() computes it
                last = (self.count - 1) * float(self.interval_ms)
            except OverflowError:  # a count beyond float range
                last = math.inf
            if not math.isfinite(last):
                raise ValueError("the last arrival time, (count - 1) * interval_ms, is not finite")

    def times(self) -> list[float]:
        if self.times_ms is not None:
            return [float(t) for t in self.times_ms]
        return [i * float(self.interval_ms) for i in range(self.count)]


class StageRecord(NamedTuple):
    """One item's pass through one stage; fields in stages.csv column order."""

    item_id: int
    stage: str
    enqueue_ms: float
    start_ms: float
    end_ms: float


class ItemTrace(NamedTuple):
    """One item's passage through the pipeline; fields in items.csv column order."""

    item_id: int
    arrival_ms: float
    completion_ms: float
    sojourn_ms: float  # completion_ms - arrival_ms


class _Rows(Sequence):
    """A finished run's records, read-only and kept as flat columns: each record is
    built as its NamedTuple only when read. A subclass gives `__len__`, `_row(k)`,
    the k-th record, and `rows()`, every row as a plain tuple in field order."""

    record: type

    def __getitem__(self, i):
        k = range(len(self))[i]  # an index in range, or a range for a slice
        return [self._row(j) for j in k] if isinstance(k, range) else self._row(k)

    def __iter__(self):
        return itertools.starmap(self.record, self.rows())


class ItemTraces(_Rows):
    """Item i arrived at `arrival_ms[i]` and completed at `completion_ms[i]`."""

    record = ItemTrace

    def __init__(self, arrival_ms: array, completion_ms: array):
        self.arrival_ms, self.completion_ms = arrival_ms, completion_ms

    def __len__(self) -> int:
        return len(self.arrival_ms)

    def _row(self, i: int) -> ItemTrace:
        t, done = self.arrival_ms[i], self.completion_ms[i]
        return ItemTrace(i, t, done, done - t)

    def rows(self) -> Iterator[tuple]:
        return zip(itertools.count(), self.arrival_ms, self.completion_ms,
                   map(operator.sub, self.completion_ms, self.arrival_ms))


class StageRecords(_Rows):
    """Item i's pass through stage s, in the columns' slot `i * len(stages) + s`."""

    record = StageRecord

    def __init__(self, stages: tuple[str, ...], enqueue_ms: array, start_ms: array, end_ms: array):
        self.stages = stages
        self.enqueue_ms, self.start_ms, self.end_ms = enqueue_ms, start_ms, end_ms

    def __len__(self) -> int:
        return len(self.end_ms)

    def _row(self, k: int) -> StageRecord:
        i, s = divmod(k, len(self.stages))
        return StageRecord(i, self.stages[s], self.enqueue_ms[k], self.start_ms[k], self.end_ms[k])

    def rows(self) -> Iterator[tuple]:
        items = (i for i in range(len(self) // len(self.stages)) for _ in self.stages)
        return zip(items, itertools.cycle(self.stages), self.enqueue_ms, self.start_ms,
                   self.end_ms)


class _StageRuntime:
    """Queue plus k-server service state for the `index`-th stage of the chain."""

    def __init__(self, spec: StageSpec, instance: "PipelineInstance", index: int):
        self.spec = spec
        self.instance = instance
        self.index = index
        self.stride = len(instance.spec.stages)
        self.clock = instance.broker.clock
        self.cold_starts = spec.kind == "serverless_function" and spec.cold_start_ms > 0
        self.queue: deque[int] = deque()  # item ids
        self.busy = 0
        self.last_service_end: float | None = None

    def on_message(self, env) -> None:
        instance = self.instance
        item_id = instance.item_ids.pop(env.payload, None)
        if item_id is None:  # a copy from outside the run: served only if its item is in flight
            try:
                item_id = instance.payloads.index(env.payload)
            except ValueError:
                raise RuntimeError(
                    f"stage {self.spec.name!r} received a payload that is not one of this run's "
                    f"items on topic {env.topic!r} from {env.sender!r}"
                ) from None
        slot = item_id * self.stride + self.index
        if not math.isnan(instance.enqueue_ms[slot]):
            raise RuntimeError(
                f"stage {self.spec.name!r} received item {item_id} a second time "
                f"on topic {env.topic!r} from {env.sender!r}"
            )
        instance.enqueue_ms[slot] = self.clock.now
        self.queue.append(item_id)
        self._try_start()

    def _try_start(self) -> None:
        clock = self.clock
        while self.busy < self.spec.servers and self.queue:
            item_id = self.queue.popleft()
            self.busy += 1
            start = clock.now
            duration = self.spec.service.draw(self.instance.units)
            if self.cold_starts:
                idle = (
                    None
                    if self.last_service_end is None
                    else start - self.last_service_end
                )
                if idle is None or idle >= self.spec.cold_idle_threshold_ms:
                    duration += self.spec.cold_start_ms
            end = start + duration
            if not end < math.inf:
                raise RuntimeError(f"stage {self.spec.name!r}: a service of {duration} ms "
                                   f"starting at {start} ms ends past the largest finite time")
            clock.call_at(end, self._finish, item_id, start)

    def _finish(self, item_id: int, start_ms: float) -> None:
        instance = self.instance
        end = self.clock.now
        self.busy -= 1
        self.last_service_end = end
        slot = item_id * self.stride + self.index
        instance.start_ms[slot] = start_ms
        instance.end_ms[slot] = end
        if self.spec.output_topic is not None:
            payload = instance.payloads[item_id]
            instance.item_ids[payload] = item_id
            instance.broker.publish(self.spec.node, self.spec.output_topic, payload)
        else:  # the item is complete
            instance.payloads[item_id] = None
        self._try_start()


class PipelineInstance:
    """A pipeline wired onto a broker: one subscription and one queue per stage.

    For the length of a run, `run_pipeline` sets the service times' `units`
    (`unit_doubles` of the seeded generator) and sizes three NaN-filled columns
    to one slot per item and stage: stage s files item i's enqueue, start and
    end times at slot `i * len(stages) + s`, so the columns are in stages.csv
    row order and an item's last slot holds its completion. A set enqueue slot
    marks an item the stage has already received.

    Each piece of an item's state has one holder. `payloads[i]` holds the
    payload packed for item i from its arrival until the terminal stage
    finishes it. `item_ids` maps each payload published and not yet delivered
    to its item id: the receiving stage pops it, so it reads the id without
    decoding the payload, and a stage puts it back just before it publishes
    onward; as each published topic reaches one stage, the map holds no more
    entries than there are messages on the bus. Stage queues hold item ids. A
    payload with no entry is a copy from outside the run: it is looked up
    among the items in flight (a scan, on this path only), so a copy of an
    item in flight is served, or refused as a second receipt, as the enqueue
    slot says, and any other is not one of the run's items.
    """

    units: Iterator[float]
    payloads: list[bytes | None]
    item_ids: dict[bytes, int]
    enqueue_ms: array
    start_ms: array
    end_ms: array

    def __init__(self, spec: PipelineSpec, broker: SimBroker):
        self.spec = spec
        self.broker = broker
        self.stages = [_StageRuntime(s, self, i) for i, s in enumerate(spec.stages)]
        for stage in self.stages:
            broker.subscribe(stage.spec.node, stage.spec.input_topic, stage.on_message)


def build_pipeline(spec: PipelineSpec, broker: SimBroker) -> PipelineInstance:
    return PipelineInstance(spec, broker)


def run_pipeline(
    instance: PipelineInstance, arrivals: ArrivalSchedule, seed: int = 0
) -> tuple[ItemTraces, StageRecords]:
    """Inject the arrival schedule, drive every item to completion, and return the traces.

    Arrivals are scheduled one ahead (each arrival event schedules the next), so
    the event queue holds in-flight work rather than the whole schedule. Their
    sequence numbers are reserved up front, so they fire exactly as if all had
    been scheduled at once.
    """
    broker = instance.broker
    clock = broker.clock
    times = array("d", arrivals.times())
    if times[0] < clock.now:
        raise ValueError(f"cannot schedule at {times[0]} ms: time is already {clock.now} ms")
    stride = len(instance.stages)
    blank = array("d", [math.nan]) * (len(times) * stride)
    instance.enqueue_ms, instance.start_ms, instance.end_ms = blank, blank[:], blank[:]
    instance.units = unit_doubles(np.random.default_rng(seed))
    instance.payloads = [None] * len(times)
    instance.item_ids = {}
    topic, first = instance.spec.source_topic, clock.reserve(len(times))

    def arrive(item_id: int) -> None:
        if item_id + 1 < len(times):
            clock.push(times[item_id + 1], first + item_id + 1, arrive, item_id + 1)
        payload = instance.payloads[item_id] = wire.pack({"item_id": item_id})
        instance.item_ids[payload] = item_id
        broker.publish(SOURCE_NODE, topic, payload)

    clock.push(times[0], first, arrive, 0)
    broker.drive(lambda: [f"item {i}" for i, t in enumerate(instance.end_ms[stride - 1::stride])
                          if math.isnan(t)])
    completion = instance.end_ms[stride - 1::stride]
    records = StageRecords(tuple(s.name for s in instance.spec.stages),
                           instance.enqueue_ms, instance.start_ms, instance.end_ms)
    # the columns now belong to the returned views; the instance keeps no per-item state
    del instance.payloads, instance.item_ids
    del instance.enqueue_ms, instance.start_ms, instance.end_ms
    return ItemTraces(times, completion), records


def tandem_oracle(
    arrival_times: Sequence[float],
    service_times: Sequence[Sequence[float]],
) -> list[float]:
    """Exact FIFO tandem-queue completion times.

    `service_times[s][i]` is the service of item i at stage s. Items must be
    indexed in arrival order.
    """
    done = [float(t) for t in arrival_times]  # D[i][0] = arrival_i
    for stage in service_times:
        if len(stage) != len(done):
            raise ValueError("each stage needs one service time per item")
        prev_item_done = float("-inf")
        for i, service in enumerate(stage):
            done[i] = max(done[i], prev_item_done) + float(service)
            prev_item_done = done[i]
    return done


@dataclass(frozen=True)
class PipelineStats:
    mean_sojourn_ms: float
    max_sojourn_ms: float
    per_stage_utilization: dict[str, float] = field(hash=False, default_factory=dict)


def pipeline_stats(traces: ItemTraces, records: StageRecords) -> PipelineStats:
    """Sojourn summaries plus per-stage busy-time / makespan utilization."""
    if not traces:
        raise ValueError("no item traces to summarize")
    sojourns = np.frombuffer(traces.completion_ms) - np.frombuffer(traces.arrival_ms)
    makespan = max(records.end_ms) - min(traces.arrival_ms)
    per_item = len(records.stages)
    utilization = {}
    for s, stage in enumerate(records.stages):
        busy = 0.0  # summed in item order
        for start, end in zip(records.start_ms[s::per_item], records.end_ms[s::per_item]):
            busy += end - start
        utilization[stage] = busy / makespan if makespan > 0 else 0.0
    return PipelineStats(
        mean_sojourn_ms=float(np.mean(sojourns)),
        max_sojourn_ms=float(sojourns.max()),
        per_stage_utilization=utilization,
    )
