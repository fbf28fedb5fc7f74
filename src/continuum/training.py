"""Coordinator/worker data-parallel training over the bus.

The coordinator shards the dataset, workers return full-shard gradients, and
the coordinator applies one sample-weighted averaged step per epoch. Because
the mean gradient over a partition equals the full-dataset gradient, a run
with any worker count reproduces single-process full-batch gradient descent,
which is what the tests check against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, wire
from .bus import Bus
from .data import Dataset, partition

ASSIGN_TOPIC = "train/job/worker/{worker}"
GRADS_TOPIC = "train/job/gradients"

COORDINATOR_NODE = "cloud:coordinator"
WORKER_NODE = "fog:worker-{worker}"


@dataclass(frozen=True)
class TrainJob:
    layer_sizes: tuple[int, ...]
    hidden_activation: str
    learning_rate: float
    epochs: int
    num_workers: int
    seed: int
    dataset: Dataset

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.num_workers > len(self.dataset):
            raise ValueError(
                f"{self.num_workers} workers cannot share {len(self.dataset)} samples"
            )
        nn.check_output_layer(self.layer_sizes, self.dataset.num_classes)


@dataclass
class EpochMetrics:
    epoch: int
    loss: float
    accuracy: float


@dataclass
class TrainResult:
    final_model: nn.MlpModel
    epochs: list[EpochMetrics]


def worker_epoch(shard: Dataset, model: nn.MlpModel) -> nn.Gradients:
    """Full-shard gradient; the worker-side computation of one epoch."""
    return nn.gradient(model, shard.features, shard.labels)


def aggregate_and_step(
    model: nn.MlpModel,
    shard_gradients: list[tuple[int, np.ndarray, int]],
    learning_rate: float,
) -> nn.MlpModel:
    """Step on the sample-weighted mean of (worker_id, flat_grads, sample_count) triples."""
    mean = nn.weighted_mean(shard_gradients)
    total = sum(count for _, _, count in shard_gradients)
    return nn.sgd_step(
        model, nn.deserialize_gradients(model.layer_sizes, mean, total), learning_rate
    )


class _Worker:
    def __init__(self, worker_id: int, job: TrainJob, broker: Bus):
        self.worker_id = worker_id
        self.job = job
        self.broker = broker
        self.shard: Dataset | None = None
        self.node = WORKER_NODE.format(worker=worker_id)
        broker.subscribe(self.node, ASSIGN_TOPIC.format(worker=worker_id), self.on_message)

    def on_message(self, env) -> None:
        msg = wire.unpack(env.payload)
        if "shard_features" in msg:  # first message carries the data shard
            feats = wire.decode_f64(msg["shard_features"]).reshape(msg["shard_shape"])
            labels = wire.decode_i64(msg["shard_labels"])
            self.shard = Dataset(feats, labels, msg["num_classes"], name=f"shard{self.worker_id}")
        if self.shard is None:
            raise RuntimeError(f"worker {self.worker_id} received params before its shard")
        params = wire.decode_f64(msg["params"])
        model = nn.deserialize_params(self.job.layer_sizes, self.job.hidden_activation, params)
        grads = worker_epoch(self.shard, model)
        self.broker.publish(
            self.node,
            GRADS_TOPIC,
            wire.pack(
                {
                    "worker_id": self.worker_id,
                    "epoch": msg["epoch"],
                    "grads": wire.encode_f64(nn.serialize_gradients(grads)),
                    "sample_count": grads.sample_count,
                }
            ),
        )


class _Coordinator:
    def __init__(self, job: TrainJob, broker: Bus, shards: list[Dataset]):
        self.job = job
        self.broker = broker
        self.shards = shards
        self.model = nn.init_model(job.layer_sizes, job.hidden_activation, job.seed)
        self.epoch = 1
        self.pending: dict[int, tuple[int, np.ndarray, int]] = {}  # worker -> flat gradients
        self.metrics: list[EpochMetrics] = []
        self.done = False
        broker.subscribe(COORDINATOR_NODE, GRADS_TOPIC, self.on_gradient)

    def broadcast(self, first: bool) -> None:
        params = wire.encode_f64(nn.serialize_params(self.model))
        for k, shard in enumerate(self.shards):
            msg: dict = {"epoch": self.epoch, "params": params}
            if first:
                msg.update(
                    shard_features=wire.encode_f64(shard.features.ravel()),
                    shard_shape=list(shard.features.shape),
                    shard_labels=wire.encode_i64(shard.labels),
                    num_classes=shard.num_classes,
                )
            self.broker.publish(
                COORDINATOR_NODE,
                ASSIGN_TOPIC.format(worker=k),
                wire.pack(msg),
            )

    def awaiting(self) -> list[str]:
        """Workers whose gradients this epoch lacks, or the coordinator while it steps."""
        if self.done:
            return []
        missing = [WORKER_NODE.format(worker=k)
                   for k in range(self.job.num_workers) if k not in self.pending]
        return missing or [COORDINATOR_NODE]

    def on_gradient(self, env) -> None:
        msg = wire.unpack(env.payload)
        if msg["epoch"] != self.epoch:
            raise RuntimeError(
                f"{env.sender}: gradient for epoch {msg['epoch']} arrived during epoch {self.epoch}"
            )
        worker_id, sample_count = msg["worker_id"], msg["sample_count"]
        if type(worker_id) is not int or not 0 <= worker_id < self.job.num_workers:
            raise RuntimeError(f"{env.sender}: gradient names unknown worker_id {worker_id!r}")
        expected = WORKER_NODE.format(worker=worker_id)
        if env.sender != expected:
            raise RuntimeError(
                f"{env.sender}: gradient names worker {worker_id}, which only {expected} may send"
            )
        if worker_id in self.pending:
            raise RuntimeError(
                f"{env.sender}: second gradient for worker {worker_id} in epoch {self.epoch}"
            )
        if sample_count < 1:
            raise RuntimeError(
                f"{env.sender}: gradient of worker {worker_id} has sample_count {sample_count} < 1"
            )
        self.pending[worker_id] = (worker_id, wire.decode_f64(msg["grads"]), sample_count)
        if len(self.pending) < self.job.num_workers:
            return
        gathered = list(self.pending.values())
        self.pending.clear()
        self.model = aggregate_and_step(self.model, gathered, self.job.learning_rate)
        result = nn.evaluate(self.model, self.job.dataset.features, self.job.dataset.labels)
        self.metrics.append(EpochMetrics(self.epoch, result.mean_loss, result.accuracy))
        if self.epoch < self.job.epochs:
            self.epoch += 1
            self.broadcast(first=False)
        else:
            self.done = True


@dataclass
class JobHandle:
    job: TrainJob
    broker: Bus
    coordinator: _Coordinator
    workers: list[_Worker]


def submit_job(job: TrainJob, broker: Bus) -> JobHandle:
    """Wire coordinator and workers onto the broker and send the first assignments."""
    shards = partition(job.dataset, job.num_workers, job.seed)
    coordinator = _Coordinator(job, broker, shards)
    workers = [_Worker(k, job, broker) for k in range(job.num_workers)]
    coordinator.broadcast(first=True)
    return JobHandle(job, broker, coordinator, workers)


def run_training(handle: JobHandle) -> TrainResult:
    """Drive the submitted job to completion and collect per-epoch metrics."""
    coord = handle.coordinator
    handle.broker.drive(coord.awaiting)
    return TrainResult(coord.model, coord.metrics)
