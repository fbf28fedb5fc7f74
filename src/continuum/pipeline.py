"""Event-triggered staged data pipeline with per-stage FIFO queues.

Each stage subscribes to its input topic, serves items one at a time (single
server by default), and publishes downstream. For constant service times the
simulated completion times match the exact tandem-queue recurrence
``D[i][s] = max(D[i][s-1], D[i-1][s]) + S[i][s]`` to the millisecond, which is
the correctness oracle for the whole engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import wire
from .bus import SimBroker, topic_matches, validate_filter, validate_node_id, validate_topic

STAGE_KINDS = ("process", "serverless_function")


@dataclass(frozen=True)
class Constant:
    ms: float

    def __post_init__(self) -> None:
        if self.ms < 0:
            raise ValueError("service time must be >= 0")

    def draw(self, rng: np.random.Generator) -> float:
        return self.ms


@dataclass(frozen=True)
class Uniform:
    lo_ms: float
    hi_ms: float

    def __post_init__(self) -> None:
        if self.lo_ms < 0 or self.hi_ms < self.lo_ms:
            raise ValueError("need 0 <= lo_ms <= hi_ms")

    def draw(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.lo_ms, self.hi_ms))


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

    def times(self) -> list[float]:
        if self.times_ms is not None:
            return [float(t) for t in self.times_ms]
        return [i * float(self.interval_ms) for i in range(self.count)]


@dataclass
class StageRecord:
    item_id: int
    stage: str
    enqueue_ms: float
    start_ms: float
    end_ms: float


@dataclass
class ItemTrace:
    item_id: int
    arrival_ms: float
    completion_ms: float

    @property
    def sojourn_ms(self) -> float:
        return self.completion_ms - self.arrival_ms


class _StageRuntime:
    """Queue plus k-server service state for one stage."""

    def __init__(self, spec: StageSpec, instance: "PipelineInstance"):
        self.spec = spec
        self.instance = instance
        self.queue: deque[tuple[int, bytes, float]] = deque()
        self.busy = 0
        self.last_service_end: float | None = None

    def on_message(self, env) -> None:
        item_id = self.instance.item_ids.get(env.payload)
        if item_id is None:
            raise RuntimeError(
                f"stage {self.spec.name!r} received a payload that is not one of this run's "
                f"items on topic {env.topic!r} from {env.sender!r}"
            )
        self.queue.append((item_id, env.payload, self.instance.broker.now))
        self._try_start()

    def _try_start(self) -> None:
        broker = self.instance.broker
        while self.busy < self.spec.servers and self.queue:
            item_id, payload, enqueue_ms = self.queue.popleft()
            self.busy += 1
            start = broker.now
            duration = self.spec.service.draw(self.instance.rng)
            if self.spec.kind == "serverless_function" and self.spec.cold_start_ms > 0:
                idle = (
                    None
                    if self.last_service_end is None
                    else start - self.last_service_end
                )
                if idle is None or idle >= self.spec.cold_idle_threshold_ms:
                    duration += self.spec.cold_start_ms
            broker.call_at(start + duration, self._finish, item_id, payload, enqueue_ms, start)

    def _finish(self, item_id: int, payload: bytes, enqueue_ms: float, start_ms: float) -> None:
        broker = self.instance.broker
        end = broker.now
        self.busy -= 1
        self.last_service_end = end
        self.instance.records.append(
            StageRecord(item_id, self.spec.name, enqueue_ms, start_ms, end)
        )
        if self.spec.output_topic is not None:
            broker.publish(self.spec.node, self.spec.output_topic, payload)
        else:
            self.instance.completions[item_id] = end
        self._try_start()


class PipelineInstance:
    """A pipeline wired onto a broker: one subscription and one queue per stage.

    `run_pipeline` sets the service-time `rng` and maps each payload it packs
    to its item id, so a stage reads the id without decoding the payload.
    """

    rng: np.random.Generator

    def __init__(self, spec: PipelineSpec, broker: SimBroker):
        self.spec = spec
        self.broker = broker
        self.item_ids: dict[bytes, int] = {}
        self.records: list[StageRecord] = []
        self.completions: dict[int, float] = {}
        self.stages = [_StageRuntime(s, self) for s in spec.stages]
        for stage in self.stages:
            broker.subscribe(stage.spec.node, stage.spec.input_topic, stage.on_message)


def build_pipeline(spec: PipelineSpec, broker: SimBroker) -> PipelineInstance:
    return PipelineInstance(spec, broker)


def run_pipeline(
    instance: PipelineInstance,
    arrivals: ArrivalSchedule,
    seed: int = 0,
    source_node: str = "edge:source",
) -> tuple[list[ItemTrace], list[StageRecord]]:
    """Inject the arrival schedule, drive every item to completion, and return the traces."""
    broker = instance.broker
    instance.rng = np.random.default_rng(seed)
    instance.item_ids.clear()
    instance.records.clear()
    instance.completions.clear()
    validate_node_id(source_node)
    times = arrivals.times()
    for item_id, t in enumerate(times):
        payload = wire.pack({"item_id": item_id})
        instance.item_ids[payload] = item_id
        broker.call_at(t, broker.publish, source_node, instance.spec.source_topic, payload)
    broker.drive(lambda: [f"item {i}" for i in range(len(times)) if i not in instance.completions])
    traces = [ItemTrace(i, t, instance.completions[i]) for i, t in enumerate(times)]
    order = {s.name: i for i, s in enumerate(instance.spec.stages)}
    records = sorted(instance.records, key=lambda r: (r.item_id, order[r.stage]))
    return traces, records


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


def pipeline_stats(traces: list[ItemTrace], records: list[StageRecord]) -> PipelineStats:
    """Sojourn summaries plus per-stage busy-time / makespan utilization."""
    if not traces:
        raise ValueError("no item traces to summarize")
    sojourns = tuple(t.sojourn_ms for t in traces)
    makespan = max(r.end_ms for r in records) - min(t.arrival_ms for t in traces)
    busy: dict[str, float] = {}
    for r in records:
        busy[r.stage] = busy.get(r.stage, 0.0) + (r.end_ms - r.start_ms)
    utilization = {
        stage: (b / makespan if makespan > 0 else 0.0) for stage, b in busy.items()
    }
    return PipelineStats(
        mean_sojourn_ms=float(np.mean(sojourns)),
        max_sojourn_ms=float(max(sojourns)),
        per_stage_utilization=utilization,
    )
