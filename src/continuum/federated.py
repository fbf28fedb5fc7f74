"""Synchronous and asynchronous federated averaging over the bus.

Clients train on streaming fixed-size batches of their own partition and ship
serialized parameters only; the server aggregates sample-weighted averages.
Sync mode waits for one update from every client each round, based on that
round; async mode aggregates on a fixed virtual-time interval, tolerating
missed or delayed updates up to a staleness bound. Both modes close a round
with the same aggregation step, and neither broadcasts after the last round.
With no straggling the two modes produce identical numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Container, NamedTuple

import numpy as np

from . import nn, wire
from .bus import Awaiting, Bus, Envelope, SimBroker
from .data import Dataset, Part, next_round_batch, partition

SERVER_NODE = "cloud:server"
CLIENT_NODE = "fog:client-{client}"
GLOBAL_TOPIC = "fl/global"
UPDATE_TOPIC = "fl/updates"

FL_MODES = ("sync", "async")


@dataclass(frozen=True)
class FlConfig:
    mode: str
    num_clients: int
    rounds: int
    layer_sizes: tuple[int, ...]
    learning_rate: float
    samples_per_round: int = 60
    local_epochs: int = 1
    hidden_activation: str = "sigmoid"
    aggregation_interval_ms: float = 60_000.0
    staleness_bound: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in FL_MODES:
            raise ValueError(f"mode must be one of {FL_MODES}, got {self.mode!r}")
        if self.num_clients < 1:
            raise ValueError("num_clients must be >= 1")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.samples_per_round < 1:
            raise ValueError("samples_per_round must be >= 1")
        if self.local_epochs < 0:
            raise ValueError("local_epochs must be >= 0")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.mode == "async" and self.aggregation_interval_ms <= 0:
            raise ValueError("async mode needs aggregation_interval_ms > 0")
        if self.staleness_bound < 0:
            raise ValueError("staleness_bound must be >= 0")


@dataclass(frozen=True)
class StragglerModel:
    """Per-round send failures and delivery delays for async clients."""

    miss_probability: float = 0.0
    delay_ms: float | tuple[float, float] | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ValueError("miss_probability must lie in [0, 1]")
        if isinstance(self.delay_ms, tuple):
            lo, hi = self.delay_ms
            if lo < 0 or hi < lo:
                raise ValueError("delay range needs 0 <= lo <= hi")
        elif self.delay_ms is not None and self.delay_ms < 0:
            raise ValueError("delay must be >= 0")

    def is_zero(self) -> bool:
        if self.miss_probability > 0:
            return False
        if isinstance(self.delay_ms, tuple):
            return self.delay_ms[1] == 0
        return not self.delay_ms

    def draw_delay(self, rng: np.random.Generator) -> float:
        if self.delay_ms is None:
            return 0.0
        if isinstance(self.delay_ms, tuple):
            return float(rng.uniform(*self.delay_ms))
        return float(self.delay_ms)


@dataclass(frozen=True)
class ClientUpdate:
    client_id: int
    base_round: int
    params: np.ndarray
    sample_count: int


@dataclass(frozen=True)
class GlobalModel:
    round_index: int
    params: np.ndarray


class RoundMetrics(NamedTuple):
    """One round's held-out scores; fields in fl_rounds.csv column order."""

    round: int
    test_accuracy: float
    test_loss: float
    contributors: int


@dataclass
class FlRunResult:
    global_model: GlobalModel
    rows: list[RoundMetrics]


def fedavg(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted parameter mean, summed in ascending client order."""
    return nn.weighted_mean([(u.client_id, u.params, u.sample_count) for u in updates])


def client_local_train(
    client_id: int,
    global_model: GlobalModel,
    round_index: int,
    part: Part,
    config: FlConfig,
) -> ClientUpdate:
    """Train `local_epochs` full-batch steps on this round's streaming batch."""
    model = nn.deserialize_params(
        config.layer_sizes, config.hidden_activation, global_model.params
    )
    batch = next_round_batch(part, round_index, config.samples_per_round)
    for _ in range(config.local_epochs):
        model = nn.sgd_step(
            model, nn.gradient(model, batch.features, batch.labels), config.learning_rate
        )
    return ClientUpdate(
        client_id=client_id,
        base_round=global_model.round_index,
        params=nn.serialize_params(model),
        sample_count=len(batch),
    )


def split_train_test(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """First half trains, second half is the held-out test split; both are views."""
    n = len(dataset)
    half = n - n // 2
    if n < 2:
        raise ValueError("dataset too small to split")
    return dataset.take(slice(None, half)), dataset.take(slice(half, None))


def _update_payload(update: ClientUpdate) -> bytes:
    return wire.pack({"type": "update", **vars(update)})


def _decode_update(payload: bytes) -> ClientUpdate:
    msg = wire.unpack(payload)
    return ClientUpdate(msg["client_id"], msg["base_round"], msg["params"], msg["sample_count"])


def _global_payload(round_index: int, params: np.ndarray) -> bytes:
    return wire.pack({"type": "global", "round": round_index, "params": params})


# The rules both learning servers (this one and `training`'s coordinator) keep for the
# one contribution per participant per round they collect. Participant k of `count` is
# the node `node.format(**{role: k})`, as in CLIENT_NODE.format(client=k).
def awaited(done: bool, pending: Container[int], node: str, role: str, count: int,
            server: str) -> list[str]:
    """Participants missing from `pending`, else the server while it aggregates; none once done."""
    if done:
        return []
    return [node.format(**{role: k}) for k in range(count) if k not in pending] or [server]


def rejected(sender: str, noun: str, role: str, k: int, fault: str) -> RuntimeError:
    """The error naming a contribution's sender, its participant and what it has wrong."""
    return RuntimeError(f"{sender}: {noun} of {role} {k} has {fault}")


def admit(sender: str, noun: str, node: str, role: str, count: int, k, sample_count) -> None:
    """Raise unless k is a participant's int id, `sender` is its node and sample_count >= 1."""
    if type(k) is not int or not 0 <= k < count:  # a bool is no id
        raise RuntimeError(f"{sender}: {noun} names unknown {role}_id {k!r}")
    if sender != (expected := node.format(**{role: k})):
        raise RuntimeError(f"{sender}: {noun} names {role} {k}, which only {expected} may send")
    if type(sample_count) is not int or sample_count < 1:
        raise rejected(sender, noun, role, k, f"sample_count {sample_count!r}"
                       + (" < 1" if type(sample_count) is int else ", not an int"))


def drive_rounds(broker: Bus, awaiting: Awaiting, step: Callable[[], str],
                 learning_rate: float) -> None:
    """Drive `broker` until `awaiting()` is empty.

    A FloatingPointError (numpy's, where the caller set np.errstate to raise, or a
    non-finite loss) becomes a RuntimeError naming the learning rate and the step in
    progress, as `step()` names it.
    """
    try:
        broker.drive(awaiting)
    except FloatingPointError as exc:
        raise RuntimeError(f"{step()} with lr {learning_rate!r}: {exc}") from exc


class _Server:
    """Global params, the freshest update per client, per-round metrics; async runs it as is."""

    def __init__(self, config: FlConfig, broker: Bus, test: Dataset):
        self.config = config
        self.broker = broker
        self.test = test
        model = nn.init_model(config.layer_sizes, config.hidden_activation, config.seed)
        self.params = nn.serialize_params(model)
        self.round_index = 0
        self.contributors = 0  # clients in the latest aggregate
        self.pending: dict[int, ClientUpdate] = {}
        self.rows: list[RoundMetrics] = []
        self.done = False
        self._record(0)  # the untrained global model
        broker.subscribe(SERVER_NODE, UPDATE_TOPIC, self.on_update)

    def _record(self, round_index: int) -> None:
        model = nn.deserialize_params(
            self.config.layer_sizes, self.config.hidden_activation, self.params
        )
        result = nn.evaluate(model, self.test.features, self.test.labels)
        if not math.isfinite(result.mean_loss):
            raise FloatingPointError(f"the test loss is {result.mean_loss}")
        self.rows.append(
            RoundMetrics(round_index, result.accuracy, result.mean_loss, self.contributors)
        )

    def broadcast(self) -> None:
        self.broker.publish(SERVER_NODE, GLOBAL_TOPIC, _global_payload(self.round_index, self.params))

    def on_update(self, env: Envelope) -> None:
        if self.done:
            return
        update = _decode_update(env.payload)
        client_id = update.client_id
        admit(env.sender, "update", CLIENT_NODE, "client", self.config.num_clients, client_id,
              update.sample_count)
        if type(update.base_round) is not int or not 0 <= update.base_round <= self.round_index:
            raise rejected(env.sender, "update", "client", client_id, f"base_round "
                           f"{update.base_round!r}, not an int in [0, {self.round_index}]")
        if mismatch := nn.vector_mismatch(update.params, self.params.shape[0]):
            raise rejected(env.sender, "update", "client", client_id, f"params {mismatch}")
        self.accept(env.sender, update)

    def accept(self, sender: str, update: ClientUpdate) -> None:
        """Keep a checked update: async keeps the freshest basis per client."""
        previous = self.pending.get(update.client_id)
        if previous is None or update.base_round >= previous.base_round:
            self.pending[update.client_id] = update

    def aggregate(self) -> None:
        """Close a round: average the fresh-enough updates, record, broadcast unless done."""
        oldest = self.round_index - self.config.staleness_bound
        eligible = [u for u in self.pending.values() if u.base_round >= oldest]
        self.pending.clear()
        if eligible:  # an empty async interval keeps the params; the round still advances
            self.params = fedavg(eligible)
        self.contributors = len(eligible)
        self._record(self.round_index + 1)
        self.round_index += 1
        if self.round_index < self.config.rounds:
            self.broadcast()
        else:
            self.done = True

    def drive(self, clients: int) -> FlRunResult:
        """Run to the end, each round awaiting `clients` updates (sync: all; async: none)."""
        drive_rounds(self.broker, lambda: awaited(self.done, self.pending, CLIENT_NODE, "client",
                                                  clients, SERVER_NODE),
                     lambda: f"round {self.round_index + 1}", self.config.learning_rate)
        return FlRunResult(GlobalModel(self.round_index, self.params), self.rows)


class _SyncServer(_Server):
    def accept(self, sender: str, update: ClientUpdate) -> None:
        """Keep one update per client, based on the round in progress; close a full round."""
        k, r = update.client_id, self.round_index
        if update.base_round != r:
            raise rejected(sender, "update", "client", k, f"base_round {update.base_round} "
                           f"during round {r}")
        if k in self.pending:
            raise RuntimeError(f"{sender}: second update of client {k} in round {r}")
        self.pending[k] = update
        if len(self.pending) == self.config.num_clients:
            self.aggregate()


class _Client:
    def __init__(self, client_id: int, config: FlConfig, broker: Bus, part: Part):
        self.client_id = client_id
        self.config = config
        self.broker = broker
        self.part = part
        self.node = CLIENT_NODE.format(client=client_id)
        self.latest = GlobalModel(-1, np.empty(0))
        broker.subscribe(self.node, GLOBAL_TOPIC, self.on_global)

    def on_global(self, env: Envelope) -> None:
        if env.sender != SERVER_NODE:
            raise RuntimeError(
                f"{env.sender}: {env.topic} message, which only {SERVER_NODE} may send")
        msg = wire.unpack(env.payload)
        if msg["round"] > self.latest.round_index:
            self.latest = GlobalModel(msg["round"], msg["params"])

    def build_update(self, round_index: int) -> bytes:
        return _update_payload(
            client_local_train(self.client_id, self.latest, round_index, self.part, self.config)
        )


class _SyncClient(_Client):
    def on_global(self, env: Envelope) -> None:
        super().on_global(env)
        round_index = self.latest.round_index
        if round_index < self.config.rounds:
            self.broker.publish(self.node, UPDATE_TOPIC, self.build_update(round_index))


def check_fit(config: FlConfig, dataset: Dataset) -> None:
    """The output layer matches the dataset's classes; every client gets a training sample."""
    nn.check_output_layer(config.layer_sizes, dataset.num_classes)
    train_size = len(dataset) - len(dataset) // 2
    if config.num_clients > train_size:
        raise ValueError(f"{config.num_clients} clients cannot share {train_size} training samples")


def _prepare(config: FlConfig, dataset: Dataset) -> tuple[Dataset, list[Part]]:
    check_fit(config, dataset)
    train, test = split_train_test(dataset)
    return test, partition(train, config.num_clients, config.seed)


def run_sync(config: FlConfig, broker: Bus, dataset: Dataset) -> FlRunResult:
    """Lockstep rounds: every client contributes to every aggregation."""
    if config.mode != "sync":
        raise ValueError("run_sync requires a sync-mode config")
    test, parts = _prepare(config, dataset)
    server = _SyncServer(config, broker, test)
    clients = [_SyncClient(k, config, broker, parts[k]) for k in range(config.num_clients)]
    server.broadcast()
    return server.drive(config.num_clients)


def run_async(
    config: FlConfig,
    broker: SimBroker,
    dataset: Dataset,
    stragglers: StragglerModel | None = None,
) -> FlRunResult:
    """Interval-driven aggregation on the simulated clock, tolerant of stragglers.

    Clients train at the start of each interval; the server aggregates halfway
    through the next one, so on-time updates always land in their own round.
    """
    if config.mode != "async":
        raise ValueError("run_async requires an async-mode config")
    if not isinstance(broker, SimBroker):
        raise ValueError("async mode runs on the simulated bus only (interval timers)")
    stragglers = stragglers or StragglerModel()
    test, parts = _prepare(config, dataset)
    server = _Server(config, broker, test)
    clients = [_Client(k, config, broker, parts[k]) for k in range(config.num_clients)]
    rngs = [np.random.default_rng([stragglers.seed, k]) for k in range(config.num_clients)]
    interval = config.aggregation_interval_ms

    def fire(client: _Client, rng: np.random.Generator, round_index: int) -> None:
        if rng.random() < stragglers.miss_probability:
            return
        delay = stragglers.draw_delay(rng)
        if client.latest.round_index < 0:
            return  # no global has reached it: it misses the tick, after the tick's draws
        # training happens at the cadence tick; only the send is delayed
        payload = client.build_update(round_index)
        if delay > 0:
            broker.call_at(broker.now + delay, broker.publish, client.node, UPDATE_TOPIC, payload)
        else:
            broker.publish(client.node, UPDATE_TOPIC, payload)

    server.broadcast()
    for r in range(config.rounds):
        for k, client in enumerate(clients):
            broker.call_at(r * interval, fire, client, rngs[k], r)
        broker.call_at((r + 0.5) * interval, server.aggregate)
    return server.drive(0)


def fl_metrics(result: FlRunResult) -> list[RoundMetrics]:
    """Per-round metric rows in round order: the baseline row plus one per round."""
    if not result.rows:
        raise ValueError("run produced no metric rows")
    return list(result.rows)

