import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import record
from continuum import nn, training, wire
from continuum.bus import SimBroker
from continuum.data import partition, synth_blobs


def centralized_oracle(job: training.TrainJob) -> tuple[nn.MlpModel, list[tuple[float, float]]]:
    """Reference single-process full-batch gradient descent with the same seed."""
    model = nn.init_model(job.layer_sizes, job.hidden_activation, job.seed)
    features, labels = job.dataset.features, job.dataset.labels
    trace = []
    for _ in range(job.epochs):
        model = nn.sgd_step(model, nn.gradient(model, features, labels), job.learning_rate)
        result = nn.evaluate(model, features, labels)
        trace.append((result.mean_loss, result.accuracy))
    return model, trace


def make_job(
    workers: int, epochs: int = 10, n: int = 120, seed: int = 5, sizes: tuple[int, ...] = (6, 5, 3)
) -> training.TrainJob:
    dataset = synth_blobs(n, sizes[0], sizes[-1], separation=3.0, seed=seed)
    return training.TrainJob(
        layer_sizes=sizes,
        hidden_activation="sigmoid",
        learning_rate=0.3,
        epochs=epochs,
        num_workers=workers,
        seed=seed,
        dataset=dataset,
    )


def flat(worker_id: int, grads: nn.Gradients) -> tuple[int, np.ndarray, int]:
    """One worker's contribution as aggregate_and_step takes it off the wire."""
    return worker_id, nn.serialize_gradients(grads), grads.sample_count


def run_job(job: training.TrainJob) -> tuple[training.TrainResult, list]:
    """The job's result and every envelope the sim bus delivered while running it."""
    broker = SimBroker()
    trace = record(broker)
    handle = training.submit_job(job, broker)
    return training.run_training(handle), trace


def test_a_non_finite_loss_ends_the_run_naming_the_epoch_and_lr():
    job = dataclasses.replace(make_job(3), learning_rate=1e300)
    with np.errstate(all="ignore"):  # numpy's overflow goes unreported; the loss is checked
        with pytest.raises(RuntimeError,
                           match=r"^epoch 2 with lr 1e\+300: the loss of epoch 1 is inf$"):
            training.run_training(training.submit_job(job, SimBroker()))


def test_shard_sizes_for_517_samples_across_3_workers():
    job = make_job(3, n=517, epochs=1)
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    # shards land on the workers once the assignment messages are delivered
    training.run_training(handle)
    sizes = sorted(len(w.shard) for w in handle.workers)
    assert sizes == [172, 172, 173]


def test_job_validation():
    with pytest.raises(ValueError):
        make_job(0)
    with pytest.raises(ValueError):
        make_job(3, epochs=0)
    with pytest.raises(ValueError):
        make_job(121, n=120)  # more workers than samples
    dataset = synth_blobs(40, 6, 3, separation=1.0, seed=0)
    with pytest.raises(ValueError):
        training.TrainJob((6, 5, 3), "sigmoid", 0.0, 1, 1, 0, dataset)
    with pytest.raises(ValueError):
        training.TrainJob((6, 5, 4), "sigmoid", 0.1, 1, 1, 0, dataset)  # class mismatch


def test_worker_epoch_delegates_to_gradient():
    shard = synth_blobs(30, 6, 3, separation=2.0, seed=1)
    model = nn.init_model((6, 5, 3), "sigmoid", seed=1)
    grads = training.worker_epoch(shard, model)
    direct = nn.gradient(model, shard.features, shard.labels)
    assert np.array_equal(nn.serialize_gradients(grads), nn.serialize_gradients(direct))
    assert grads.sample_count == 30


def test_aggregate_cancellation():
    model = nn.init_model((4, 3), "sigmoid", seed=2)
    features = np.random.default_rng(0).normal(size=(8, 4))
    grads = nn.gradient(model, features, np.zeros(8, dtype=np.int64))
    negated = nn.deserialize_gradients(
        model.layer_sizes, -nn.serialize_gradients(grads), grads.sample_count
    )
    stepped = training.aggregate_and_step(model, [flat(0, grads), flat(1, negated)], 0.5)
    assert np.allclose(
        nn.serialize_params(stepped), nn.serialize_params(model), atol=1e-15
    )


def test_aggregate_weighted_mean_scalar():
    model = nn.deserialize_params([1, 1], "sigmoid", np.array([1.0, 0.0]))
    g1 = nn.deserialize_gradients([1, 1], np.array([1.0, 0.0]), 100)
    g2 = nn.deserialize_gradients([1, 1], np.array([2.0, 0.0]), 300)
    stepped = training.aggregate_and_step(model, [flat(0, g1), flat(1, g2)], 1.0)
    assert stepped.weights[0][0, 0] == pytest.approx(1.0 - 1.75, abs=1e-15)


def test_aggregate_equals_full_dataset_gradient():
    dataset = synth_blobs(90, 5, 3, separation=2.0, seed=3)
    model = nn.init_model((5, 4, 3), "sigmoid", seed=3)
    shards = [dataset.take(part.rows) for part in partition(dataset, 3, seed=3)]
    shard_grads = [flat(k, training.worker_epoch(shard, model)) for k, shard in enumerate(shards)]
    combined = training.aggregate_and_step(model, shard_grads, 1.0)
    full = nn.sgd_step(model, nn.gradient(model, dataset.features, dataset.labels), 1.0)
    np.testing.assert_allclose(
        nn.serialize_params(combined), nn.serialize_params(full), atol=1e-12
    )


def test_aggregate_is_order_invariant():
    dataset = synth_blobs(60, 5, 3, separation=2.0, seed=4)
    model = nn.init_model((5, 4, 3), "sigmoid", seed=4)
    shards = [dataset.take(part.rows) for part in partition(dataset, 3, seed=4)]
    shard_grads = [flat(k, training.worker_epoch(shard, model)) for k, shard in enumerate(shards)]
    forward_order = training.aggregate_and_step(model, shard_grads, 0.7)
    reversed_order = training.aggregate_and_step(model, shard_grads[::-1], 0.7)
    np.testing.assert_allclose(
        nn.serialize_params(forward_order), nn.serialize_params(reversed_order), atol=1e-12
    )
    with pytest.raises(ValueError):
        training.aggregate_and_step(model, [], 0.7)


@pytest.mark.parametrize(
    "workers, n, sizes",
    [
        pytest.param(1, 120, (6, 5, 3), id="1"),
        pytest.param(2, 120, (6, 5, 3), id="2"),
        pytest.param(3, 120, (6, 5, 3), id="3"),
        pytest.param(7, 120, (6, 5, 3), id="7"),
        pytest.param(7, 301, (512, 32, 8), id="7-wide"),
        pytest.param(9, 13, (17, 33, 9, 4), id="9-one-row-shards"),
    ],
)
def test_distributed_training_matches_centralized_oracle(workers, n, sizes):
    job = make_job(workers, epochs=20, n=n, sizes=sizes)
    result, _ = run_job(job)
    oracle_model, oracle_trace = centralized_oracle(job)
    np.testing.assert_allclose(
        nn.serialize_params(result.final_model),
        nn.serialize_params(oracle_model),
        atol=1e-9,
    )
    for metrics, (oracle_loss, oracle_acc) in zip(result.epochs, oracle_trace):
        assert metrics.loss == pytest.approx(oracle_loss, abs=1e-9)
        assert metrics.accuracy == pytest.approx(oracle_acc, abs=1e-9)


def test_single_worker_equals_centralized_exactly():
    job = make_job(1, epochs=5)
    result, _ = run_job(job)
    oracle_model, _ = centralized_oracle(job)
    # one shard is the whole (permuted) dataset; gradients over a permutation
    # are not bitwise identical, but must agree to near machine precision
    np.testing.assert_allclose(
        nn.serialize_params(result.final_model), nn.serialize_params(oracle_model), atol=1e-12
    )


def test_epoch_metrics_one_row_per_epoch():
    job = make_job(2, epochs=1)
    result, _ = run_job(job)
    assert len(result.epochs) == 1
    assert result.epochs[0].epoch == 1


def test_message_count_per_epoch_is_twice_the_workers():
    epochs, workers = 4, 3
    job = make_job(workers, epochs=epochs)
    _, trace = run_job(job)
    assign = [e for e in trace if "/worker/" in e.topic]
    grads = [e for e in trace if e.topic.endswith("/gradients")]
    assert len(assign) == epochs * workers
    assert len(grads) == epochs * workers
    assert len(assign) + len(grads) == epochs * 2 * workers


def peak_traced_bytes(job: training.TrainJob) -> int:
    """Peak memory traced while a sim-bus run of `job` is submitted and driven."""
    tracemalloc.start()
    try:
        training.run_training(training.submit_job(job, SimBroker()))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_does_not_grow_with_the_epoch_count():
    # each epoch carries four 37 KiB parameter or gradient vectors, which a bus that
    # kept what it carried would hold: 7.3 MiB at 50 epochs, 29 MiB at 200
    short, long = (peak_traced_bytes(make_job(2, epochs=epochs, n=200, sizes=(64, 64, 8)))
                   for epochs in (50, 200))
    assert long <= 1.05 * short + 64 * 1024, f"peak {short} B at 50 epochs, {long} B at 200"


def test_coordinator_deserializes_gradients_once_per_epoch(monkeypatch):
    calls = []
    original = nn.deserialize_gradients
    monkeypatch.setattr(nn, "deserialize_gradients", lambda *a: calls.append(1) or original(*a))
    run_job(make_job(3, epochs=4))
    assert len(calls) == 4


def test_run_is_deterministic():
    first, _ = run_job(make_job(3, epochs=6))
    second, _ = run_job(make_job(3, epochs=6))
    assert np.array_equal(
        nn.serialize_params(first.final_model), nn.serialize_params(second.final_model)
    )
    assert [(m.loss, m.accuracy) for m in first.epochs] == [
        (m.loss, m.accuracy) for m in second.epochs
    ]


class LosingBroker(SimBroker):
    """Drops every publish of one node."""

    def __init__(self, lost_sender: str):
        super().__init__()
        self.lost_sender = lost_sender

    def publish(self, sender, topic, payload):
        if sender == self.lost_sender:
            return 0
        return super().publish(sender, topic, payload)


def test_stall_names_the_workers_that_did_not_report():
    broker = LosingBroker(lost_sender=training.WORKER_NODE.format(worker=1))
    handle = training.submit_job(make_job(3, epochs=2), broker)
    with pytest.raises(RuntimeError, match=r"still awaiting \['fog:worker-1'\]$"):
        training.run_training(handle)


@pytest.mark.parametrize(
    "sender, worker_id, sample_count, copies, picked, correct, cause",
    [
        ("fog:rogue", 7, 0, 1, [0.5] * 60, 0, r"^fog:rogue: gradient names unknown worker_id 7$"),
        ("fog:worker-1", True, 40, 1, [0.5] * 60, 0,
         r"^fog:worker-1: gradient names unknown worker_id True$"),
        ("fog:worker-0", 0, 40, 2, [0.5] * 60, 0,
         r"^fog:worker-0: second gradient for worker 0 in epoch 1$"),
        ("fog:worker-0", 0, 0, 1, [0.5] * 60, 0,
         r"^fog:worker-0: gradient of worker 0 has sample_count 0 < 1$"),
        ("fog:worker-0", 0, "x", 1, [0.5] * 60, 0,
         r"^fog:worker-0: gradient of worker 0 has sample_count 'x', not an int$"),
        ("fog:worker-0", 0, 1.5, 1, [0.5] * 60, 0,
         r"^fog:worker-0: gradient of worker 0 has sample_count 1\.5, not an int$"),
        ("fog:worker-0", 0, True, 1, [0.5] * 60, 0,
         r"^fog:worker-0: gradient of worker 0 has sample_count True, not an int$"),
        ("fog:rogue", 0, 40, 1, [0.5] * 60, 0,
         r"^fog:rogue: gradient names worker 0, which only fog:worker-0 may send$"),
        ("fog:worker-0", 0, 40, 1, [0.5] * 59, 0,
         r"^fog:worker-0: gradient of worker 0 has 59 picked probabilities "
         r"for a shard of 60 rows$"),
        ("fog:worker-0", 0, 40, 1, [[0.5]] * 60, 0,
         r"^fog:worker-0: gradient of worker 0 has a 2-d array of picked probabilities "
         r"for a shard of 60 rows$"),
        ("fog:worker-0", 0, 40, 1, [0.5] * 59 + [np.nan], 0,
         r"^fog:worker-0: gradient of worker 0 has a picked probability outside \[0, 1\]$"),
        ("fog:worker-0", 0, 40, 1, [1.5] + [0.5] * 59, 0,
         r"^fog:worker-0: gradient of worker 0 has a picked probability outside \[0, 1\]$"),
        ("fog:worker-0", 0, 40, 1, [-0.5] + [0.5] * 59, 0,
         r"^fog:worker-0: gradient of worker 0 has a picked probability outside \[0, 1\]$"),
        ("fog:worker-0", 0, 40, 1, [0.5] * 60, 61,
         r"^fog:worker-0: gradient of worker 0 has correct 61, not an int in \[0, 60\]$"),
        ("fog:worker-0", 0, 40, 1, [0.5] * 60, 1.0,
         r"^fog:worker-0: gradient of worker 0 has correct 1\.0, not an int in \[0, 60\]$"),
    ],
    ids=["unknown-worker", "bool-worker", "duplicate", "zero-samples", "string-samples",
         "fractional-samples", "bool-samples", "impostor", "short-picked",
         "2-d-picked", "picked-nan", "picked-above-one", "picked-negative", "correct-above-shard-rows",
         "correct-not-int"],
)
def test_coordinator_rejects_a_stray_gradient_naming_its_sender(
    monkeypatch, sender, worker_id, sample_count, copies, picked, correct, cause
):
    monkeypatch.setattr(nn, "batch_invariant", lambda *args: True)  # so terms are read
    job = make_job(2, epochs=2)  # 120 samples: each worker's shard has 60 rows
    size = len(nn.serialize_params(nn.init_model(job.layer_sizes, job.hidden_activation, 0)))
    stray = wire.pack({"worker_id": worker_id, "epoch": 1, "sample_count": sample_count,
                       "grads": np.zeros(size), "picked": np.array(picked),
                       "correct": correct})
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    for _ in range(copies):  # queued ahead of the real workers' gradients
        broker.publish(sender, training.GRADS_TOPIC, stray)
    with pytest.raises(RuntimeError, match=cause):
        training.run_training(handle)


@pytest.mark.parametrize(
    "grads, cause",
    [
        (np.zeros(7), r"of dtype float64 and shape \(7,\), not float64 of shape \(53,\)$"),
        (np.zeros(53, dtype=np.int64),
         r"of dtype int64 and shape \(53,\), not float64 of shape \(53,\)$"),
        (np.zeros((53, 1)), r"of dtype float64 and shape \(53, 1\), not float64 of shape \(53,\)$"),
        ([0.0] * 53, r"of type list, not float64 of shape \(53,\)$"),
    ],
    ids=["short", "int64", "2-d", "json-list"],
)
def test_coordinator_rejects_grads_that_do_not_fit_the_model_naming_their_sender(
    monkeypatch, grads, cause
):
    monkeypatch.setattr(nn, "batch_invariant", lambda *args: False)  # so no terms are read
    job = make_job(1, epochs=2)  # a 6-5-3 model: 53 parameters
    stray = wire.pack({"worker_id": 0, "epoch": 1, "sample_count": 40, "grads": grads})
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    broker.publish("fog:worker-0", training.GRADS_TOPIC, stray)  # ahead of the worker's own
    with pytest.raises(RuntimeError, match=r"^fog:worker-0: gradient of worker 0 has grads " + cause):
        training.run_training(handle)


def test_workers_reject_an_assignment_the_coordinator_did_not_send():
    job = make_job(2, epochs=2)  # a 6-5-3 model: 53 parameters
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    stray = wire.pack({"epoch": 2, "params": np.zeros(53)})  # queued behind the shards
    broker.publish("edge:intruder", training.ASSIGN_TOPIC.format(worker=0), stray)
    with pytest.raises(RuntimeError, match=r"^edge:intruder: train/job/worker/0 message, "
                                           r"which only cloud:coordinator may send$"):
        training.run_training(handle)


def capture_epoch_models(monkeypatch) -> list[nn.MlpModel]:
    """Every model the coordinator steps to, in epoch order."""
    models = []
    original = training.aggregate_and_step

    def step(*args):
        models.append(original(*args))
        return models[-1]

    monkeypatch.setattr(training, "aggregate_and_step", step)
    return models


def equal_bits(a: float, b: float) -> bool:
    return a.hex() == b.hex()


@pytest.mark.parametrize("activation", nn.HIDDEN_ACTIVATIONS)
@pytest.mark.parametrize(
    "sizes, workers, n, epochs",
    [
        ((10, 16, 4), 1, 103, 6),
        ((10, 16, 4), 2, 103, 6),
        ((10, 16, 4), 3, 103, 6),
        ((10, 16, 4), 7, 103, 6),
        ((10, 16, 4), 3, 103, 1),
        ((40, 3), 3, 50, 6),
        ((512, 32, 8), 7, 301, 6),
        ((7, 2), 6, 11, 6),
        ((17, 33, 9, 4), 9, 13, 6),
    ],
)
@pytest.mark.parametrize("invariant", [None, False], ids=["probed", "not-invariant"])
def test_epoch_metrics_equal_evaluate_on_the_full_dataset_bit_for_bit(
    monkeypatch, activation, sizes, workers, n, epochs, invariant
):
    """Whatever the BLAS: rows from the workers' terms where the probe finds it
    batch-invariant, the coordinator's own evaluation where it does not.

    The last four shapes have shards that some BLAS kernels sum in another order than
    the full batch (one-row shards, and fan-outs that are not a multiple of 4).
    """
    if invariant is not None:
        monkeypatch.setattr(nn, "batch_invariant", lambda *args: invariant)
    dataset = synth_blobs(n, sizes[0], sizes[-1], separation=1.5, seed=workers)
    job = training.TrainJob(sizes, activation, 0.3, epochs, workers, 11, dataset)
    models = capture_epoch_models(monkeypatch)
    result, _ = run_job(job)
    assert len(models) == len(result.epochs) == epochs
    for e, (model, metrics) in enumerate(zip(models, result.epochs), start=1):
        expected = nn.evaluate(model, dataset.features, dataset.labels)
        assert metrics.epoch == e
        assert equal_bits(metrics.loss, expected.mean_loss)
        assert equal_bits(metrics.accuracy, expected.accuracy)


@pytest.mark.parametrize("invariant, evaluations", [(True, 1), (False, 5)])
def test_the_coordinator_evaluates_only_the_final_model_where_batch_invariant(
    monkeypatch, invariant, evaluations
):
    probes, calls = [], []
    original = nn.evaluate
    monkeypatch.setattr(nn, "batch_invariant", lambda *args: probes.append(args) or invariant)
    monkeypatch.setattr(nn, "evaluate", lambda *a: calls.append(a[0]) or original(*a))
    job = make_job(3, epochs=5)
    result, _ = run_job(job)
    ((sizes, num_rows, groups),) = probes  # one probe, of this job's layers and shards
    assert sizes == job.layer_sizes and num_rows == len(job.dataset)
    assert sorted(np.concatenate(groups).tolist()) == list(range(len(job.dataset)))
    assert len(calls) == evaluations and calls[-1] is result.final_model
    assert [m.epoch for m in result.epochs] == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("invariant", [True, False])
def test_workers_send_terms_only_where_the_probe_finds_the_job_batch_invariant(
    monkeypatch, invariant
):
    monkeypatch.setattr(nn, "batch_invariant", lambda *args: invariant)
    job = make_job(3, epochs=4)
    result, trace = run_job(job)
    first = [wire.unpack(e.payload) for e in trace if "/worker/" in e.topic][:3]
    assert [msg["terms"] for msg in first] == [invariant] * 3
    gradients = [wire.unpack(e.payload) for e in trace if e.topic == training.GRADS_TOPIC]
    assert len(gradients) == 12
    for msg in gradients:
        assert ("picked" in msg, "correct" in msg) == (invariant, invariant)
    assert [m.epoch for m in result.epochs] == [1, 2, 3, 4]
