"""Synchronous and asynchronous federated averaging over the bus.

Clients train on streaming fixed-size batches of their own partition and ship
serialized parameters only; the server aggregates sample-weighted averages.
Sync mode waits for every client each round; async mode aggregates on a fixed
virtual-time interval, tolerating missed or delayed updates up to a staleness
bound. Both modes close a round with the same aggregation step, and neither
broadcasts after the last round. With no straggling the two modes produce
identical numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, wire
from .bus import Bus, Envelope, SimBroker
from .data import Dataset, Part, next_round_batch, partition

SERVER_NODE = "cloud:server"
CLIENT_NODE = "fog:client-{client}"
GLOBAL_TOPIC = "fl/global"
UPDATE_TOPIC = "fl/updates"

_GLOBAL_KEYS = frozenset({"type", "round", "params"})
_UPDATE_KEYS = frozenset({"type", "client_id", "base_round", "params", "sample_count"})

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


@dataclass
class RoundMetrics:
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
    return (dataset.take(slice(None, half), name=f"{dataset.name}/train"),
            dataset.take(slice(half, None), name=f"{dataset.name}/test"))


def _update_payload(update: ClientUpdate) -> bytes:
    return wire.pack({"type": "update", **vars(update)})


def _decode_update(payload: bytes) -> ClientUpdate:
    msg = wire.unpack(payload)
    return ClientUpdate(msg["client_id"], msg["base_round"], msg["params"], msg["sample_count"])


def _global_payload(round_index: int, params: np.ndarray) -> bytes:
    return wire.pack({"type": "global", "round": round_index, "params": params})


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
        self._record()  # round 0: the untrained global model
        broker.subscribe(SERVER_NODE, UPDATE_TOPIC, self.on_update)

    def _record(self) -> None:
        model = nn.deserialize_params(
            self.config.layer_sizes, self.config.hidden_activation, self.params
        )
        result = nn.evaluate(model, self.test.features, self.test.labels)
        self.rows.append(
            RoundMetrics(self.round_index, result.accuracy, result.mean_loss, self.contributors)
        )

    def broadcast(self) -> None:
        self.broker.publish(SERVER_NODE, GLOBAL_TOPIC, _global_payload(self.round_index, self.params))

    def on_update(self, env: Envelope) -> None:
        if self.done:
            return
        update = _decode_update(env.payload)
        client_id = update.client_id
        if type(client_id) is not int or not 0 <= client_id < self.config.num_clients:
            raise RuntimeError(f"{env.sender}: update names unknown client_id {client_id!r}")
        expected = CLIENT_NODE.format(client=client_id)
        if env.sender != expected:
            raise RuntimeError(
                f"{env.sender}: update names client {client_id}, which only {expected} may send"
            )
        if update.sample_count < 1:
            raise RuntimeError(
                f"{env.sender}: update of client {client_id} has sample_count "
                f"{update.sample_count} < 1"
            )
        if type(update.base_round) is not int or not 0 <= update.base_round <= self.round_index:
            raise RuntimeError(
                f"{env.sender}: update of client {client_id} has base_round "
                f"{update.base_round!r}, not an int in [0, {self.round_index}]"
            )
        if mismatch := nn.vector_mismatch(update.params, self.params.shape[0]):
            raise RuntimeError(f"{env.sender}: update of client {client_id} has params {mismatch}")
        previous = self.pending.get(update.client_id)
        if previous is None or update.base_round >= previous.base_round:
            self.pending[update.client_id] = update  # keep the freshest basis per client

    def aggregate(self) -> None:
        """Close a round: average the fresh-enough updates, record, broadcast unless done."""
        oldest = self.round_index - self.config.staleness_bound
        eligible = [u for u in self.pending.values() if u.base_round >= oldest]
        self.pending.clear()
        if eligible:  # an empty async interval keeps the params; the round still advances
            self.params = fedavg(eligible)
        self.contributors = len(eligible)
        self.round_index += 1
        self._record()
        if self.round_index < self.config.rounds:
            self.broadcast()
        else:
            self.done = True

    def result(self) -> FlRunResult:
        return FlRunResult(GlobalModel(self.round_index, self.params), self.rows)


class _SyncServer(_Server):
    def awaiting(self) -> list[str]:
        """Clients whose update this round lacks, or the server while it aggregates."""
        if self.done:
            return []
        missing = [CLIENT_NODE.format(client=k)
                   for k in range(self.config.num_clients) if k not in self.pending]
        return missing or [SERVER_NODE]

    def on_update(self, env: Envelope) -> None:
        super().on_update(env)
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
        msg = wire.unpack(env.payload)
        if msg["round"] > self.latest.round_index:
            self.latest = GlobalModel(msg["round"], msg["params"])

    def build_update(self, round_index: int) -> bytes:
        return _update_payload(
            client_local_train(self.client_id, self.latest, round_index, self.part, self.config)
        )

    def train_and_send(self, round_index: int) -> None:
        self.broker.publish(self.node, UPDATE_TOPIC, self.build_update(round_index))


class _SyncClient(_Client):
    def on_global(self, env: Envelope) -> None:
        super().on_global(env)
        round_index = self.latest.round_index
        if round_index < self.config.rounds:
            self.train_and_send(round_index)


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
    broker.drive(server.awaiting)
    return server.result()


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
    broker.drive(lambda: [] if server.done else [SERVER_NODE])
    return server.result()


def fl_metrics(result: FlRunResult) -> list[RoundMetrics]:
    """Per-round metric rows in round order: the baseline row plus one per round."""
    if not result.rows:
        raise ValueError("run produced no metric rows")
    return list(result.rows)


def privacy_violations(
    envelopes: list[Envelope], dataset: Dataset | None = None, sample_rows: int = 64
) -> list[str]:
    """Structural scan of an FL trace: parameters and counts only, no raw data.

    Checks every published envelope's header keys against the two wire schemas
    and that its `params` field is a float64 vector, and, when a dataset is
    given, searches every raw payload for the bytes of sampled feature rows.
    Reports every problem; raises on none.
    """
    issues: list[str] = []
    for env in envelopes:
        if env.topic == GLOBAL_TOPIC:
            allowed = _GLOBAL_KEYS
        elif env.topic == UPDATE_TOPIC:
            allowed = _UPDATE_KEYS
        else:
            issues.append(f"msg {env.msg_id}: unexpected topic {env.topic!r} in an FL run")
            continue
        try:
            msg = wire.unpack(env.payload)
        except ValueError as exc:
            issues.append(f"msg {env.msg_id}: payload is not a JSON header plus blobs: {exc}")
            continue
        if set(msg) != allowed:
            issues.append(
                f"msg {env.msg_id} on {env.topic}: keys {sorted(msg)} != {sorted(allowed)}"
            )
        elif not (isinstance(msg["params"], np.ndarray) and msg["params"].dtype == np.float64
                  and msg["params"].ndim == 1):
            issues.append(f"msg {env.msg_id} on {env.topic}: params is not a float64 vector")
    if dataset is not None:
        step = max(1, len(dataset) // sample_rows)
        for i in range(0, len(dataset), step):
            row = np.ascontiguousarray(dataset.features[i], dtype="<f8").tobytes()
            if any(row in env.payload for env in envelopes):
                issues.append(f"raw bytes of sample {i} appear in a published payload")
    return issues
