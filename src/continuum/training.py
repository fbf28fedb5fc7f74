"""Coordinator/worker data-parallel training over the bus.

The coordinator shards the dataset, workers return full-shard gradients, and
the coordinator applies one sample-weighted averaged step per epoch. Because
the mean gradient over a partition equals the full-dataset gradient, a run
with any worker count reproduces single-process full-batch gradient descent,
which is what the tests check against.

Each gradient message can also carry the loss and accuracy terms of the
forward pass the worker ran for it: p(true class) for every shard row, in shard
order, and the count of rows classified correctly. Epoch e+1's gradients are
taken at the model epoch e produced, so once they are all in, the coordinator
scatters their terms into dataset order and records epoch e's metrics from
them. It evaluates only the final model itself. The terms epoch 1 brings
describe the initial model, which has no row.

Those rows equal `nn.evaluate` on the full dataset bit for bit only if the BLAS
computes each shard's rows as it computes them in the full batch, which depends
on the kernel it picks for each shape: a one-row shard, for one, is a
matrix-vector product. So the coordinator probes the job's layer shapes and
shards with `nn.batch_invariant` when it is built, and the first assignment's
`terms` flag tells each worker whether to send terms at all; where the shapes
are not invariant, none are sent and the coordinator evaluates every epoch's
model itself. Either way the rows are `nn.evaluate`'s, a run is deterministic,
and the TCP and sim buses give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn, wire
from .bus import Bus
from .data import Dataset, Part, partition

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
        self.terms = False  # whether gradients carry their loss and accuracy terms
        self.node = WORKER_NODE.format(worker=worker_id)
        broker.subscribe(self.node, ASSIGN_TOPIC.format(worker=worker_id), self.on_message)

    def on_message(self, env) -> None:
        msg = wire.unpack(env.payload)
        if "shard_features" in msg:  # first message carries the data shard
            self.shard = Dataset(msg["shard_features"], msg["shard_labels"], msg["num_classes"],
                                 name=f"shard{self.worker_id}")
            self.terms = msg["terms"]
        if self.shard is None:
            raise RuntimeError(f"worker {self.worker_id} received params before its shard")
        model = nn.deserialize_params(self.job.layer_sizes, self.job.hidden_activation,
                                      msg["params"])
        grads = worker_epoch(self.shard, model)
        reply = {
            "worker_id": self.worker_id,
            "epoch": msg["epoch"],
            "grads": nn.serialize_gradients(grads),
            "sample_count": grads.sample_count,
        }
        if self.terms:
            reply["picked"], reply["correct"] = nn.eval_terms(grads.probs, self.shard.labels)
        self.broker.publish(self.node, GRADS_TOPIC, wire.pack(reply))


class _Coordinator:
    def __init__(self, job: TrainJob, broker: Bus, parts: list[Part]):
        self.job = job
        self.broker = broker
        self.parts = parts
        self.model = nn.init_model(job.layer_sizes, job.hidden_activation, job.seed)
        # Whether the workers' forward passes give every row the bits nn.evaluate gives it;
        # if not, they send no terms and the coordinator evaluates each epoch's model itself.
        self.rows_from_workers = nn.batch_invariant(
            job.layer_sizes, len(job.dataset), [part.rows for part in parts]
        )
        self.epoch = 1
        self.pending: dict[int, tuple[int, np.ndarray, int]] = {}  # worker -> flat gradients
        self.picked = np.empty(len(job.dataset))  # p(true class) per dataset row, this epoch
        self.correct = 0  # rows classified correctly, summed over this epoch's gradients
        self.metrics: list[EpochMetrics] = []
        self.done = False
        broker.subscribe(COORDINATOR_NODE, GRADS_TOPIC, self.on_gradient)

    def broadcast(self, first: bool) -> None:
        params = nn.serialize_params(self.model)
        for k, part in enumerate(self.parts):
            msg: dict = {"epoch": self.epoch, "params": params}
            if first:  # the shard travels once, as a copy of its rows
                shard = part.dataset.take(part.rows)
                msg.update(
                    shard_features=shard.features,
                    shard_labels=shard.labels,
                    num_classes=shard.num_classes,
                    terms=self.rows_from_workers,
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
        if mismatch := nn.vector_mismatch(msg["grads"], self.model.param_count):
            raise RuntimeError(f"{env.sender}: gradient of worker {worker_id} has grads {mismatch}")
        if self.rows_from_workers:  # the workers were told to send their terms
            picked, correct = msg["picked"], msg["correct"]
            rows = self.parts[worker_id].rows
            if picked.shape != rows.shape:
                count = picked.shape[0] if picked.ndim == 1 else f"a {picked.ndim}-d array of"
                raise RuntimeError(
                    f"{env.sender}: gradient of worker {worker_id} has {count} picked "
                    f"probabilities for a shard of {rows.shape[0]} rows"
                )
            if not ((picked >= 0.0) & (picked <= 1.0)).all():  # NaN fails both
                raise RuntimeError(
                    f"{env.sender}: gradient of worker {worker_id} has a picked probability "
                    f"outside [0, 1]"
                )
            if type(correct) is not int or not 0 <= correct <= rows.shape[0]:
                raise RuntimeError(
                    f"{env.sender}: gradient of worker {worker_id} has correct {correct!r}, "
                    f"not an int in [0, {rows.shape[0]}]"
                )
            self.picked[rows] = picked
            self.correct += correct
        self.pending[worker_id] = (worker_id, msg["grads"], sample_count)
        if len(self.pending) < self.job.num_workers:
            return
        gathered = list(self.pending.values())
        self.pending.clear()
        if self.rows_from_workers and self.epoch > 1:  # taken at the model of the epoch before
            result = nn.EvalResult.from_terms(self.picked, self.correct)
            self.metrics.append(EpochMetrics(self.epoch - 1, result.mean_loss, result.accuracy))
        self.correct = 0
        self.model = aggregate_and_step(self.model, gathered, self.job.learning_rate)
        if not self.rows_from_workers or self.epoch == self.job.epochs:
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
    coordinator = _Coordinator(job, broker, partition(job.dataset, job.num_workers, job.seed))
    workers = [_Worker(k, job, broker) for k in range(job.num_workers)]
    coordinator.broadcast(first=True)
    return JobHandle(job, broker, coordinator, workers)


def run_training(handle: JobHandle) -> TrainResult:
    """Drive the submitted job to completion and collect per-epoch metrics."""
    coord = handle.coordinator
    handle.broker.drive(coord.awaiting)
    return TrainResult(coord.model, coord.metrics)
