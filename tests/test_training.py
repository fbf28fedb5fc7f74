import numpy as np
import pytest

from continuum import nn, training, wire
from continuum.bus import SimBroker
from continuum.data import synth_blobs


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


def make_job(workers: int, epochs: int = 10, n: int = 120, seed: int = 5) -> training.TrainJob:
    dataset = synth_blobs(n, 6, 3, separation=3.0, seed=seed)
    return training.TrainJob(
        layer_sizes=(6, 5, 3),
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


def run_job(job: training.TrainJob) -> tuple[training.TrainResult, SimBroker]:
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    return training.run_training(handle), broker


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
    negated = nn.Gradients(
        tuple(-w for w in grads.weights), tuple(-b for b in grads.biases), grads.sample_count
    )
    stepped = training.aggregate_and_step(model, [flat(0, grads), flat(1, negated)], 0.5)
    assert np.allclose(
        nn.serialize_params(stepped), nn.serialize_params(model), atol=1e-15
    )


def test_aggregate_weighted_mean_scalar():
    model = nn.deserialize_params([1, 1], "sigmoid", np.array([1.0, 0.0]))
    g1 = nn.Gradients((np.array([[1.0]]),), (np.array([0.0]),), 100)
    g2 = nn.Gradients((np.array([[2.0]]),), (np.array([0.0]),), 300)
    stepped = training.aggregate_and_step(model, [flat(0, g1), flat(1, g2)], 1.0)
    assert stepped.weights[0][0, 0] == pytest.approx(1.0 - 1.75, abs=1e-15)


def test_aggregate_equals_full_dataset_gradient():
    dataset = synth_blobs(90, 5, 3, separation=2.0, seed=3)
    model = nn.init_model((5, 4, 3), "sigmoid", seed=3)
    from continuum.data import partition

    shards = partition(dataset, 3, seed=3)
    shard_grads = [flat(k, training.worker_epoch(shard, model)) for k, shard in enumerate(shards)]
    combined = training.aggregate_and_step(model, shard_grads, 1.0)
    full = nn.sgd_step(model, nn.gradient(model, dataset.features, dataset.labels), 1.0)
    np.testing.assert_allclose(
        nn.serialize_params(combined), nn.serialize_params(full), atol=1e-12
    )


def test_aggregate_is_order_invariant():
    dataset = synth_blobs(60, 5, 3, separation=2.0, seed=4)
    model = nn.init_model((5, 4, 3), "sigmoid", seed=4)
    from continuum.data import partition

    shards = partition(dataset, 3, seed=4)
    shard_grads = [flat(k, training.worker_epoch(shard, model)) for k, shard in enumerate(shards)]
    forward_order = training.aggregate_and_step(model, shard_grads, 0.7)
    reversed_order = training.aggregate_and_step(model, shard_grads[::-1], 0.7)
    np.testing.assert_allclose(
        nn.serialize_params(forward_order), nn.serialize_params(reversed_order), atol=1e-12
    )
    with pytest.raises(ValueError):
        training.aggregate_and_step(model, [], 0.7)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_distributed_training_matches_centralized_oracle(workers):
    job = make_job(workers, epochs=20)
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
    _, broker = run_job(job)
    assign = [e for e in broker.published if "/worker/" in e.topic]
    grads = [e for e in broker.published if e.topic.endswith("/gradients")]
    assert len(assign) == epochs * workers
    assert len(grads) == epochs * workers
    assert len(assign) + len(grads) == epochs * 2 * workers


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
    "sender, worker_id, sample_count, copies, cause",
    [
        ("fog:rogue", 7, 0, 1, r"^fog:rogue: gradient names unknown worker_id 7$"),
        ("fog:worker-0", 0, 40, 2, r"^fog:worker-0: second gradient for worker 0 in epoch 1$"),
        ("fog:worker-0", 0, 0, 1, r"^fog:worker-0: gradient of worker 0 has sample_count 0 < 1$"),
        ("fog:rogue", 0, 40, 1,
         r"^fog:rogue: gradient names worker 0, which only fog:worker-0 may send$"),
    ],
    ids=["unknown-worker", "duplicate", "zero-samples", "impostor"],
)
def test_coordinator_rejects_a_stray_gradient_naming_its_sender(
    sender, worker_id, sample_count, copies, cause
):
    job = make_job(2, epochs=2)
    size = len(nn.serialize_params(nn.init_model(job.layer_sizes, job.hidden_activation, 0)))
    stray = wire.pack({"worker_id": worker_id, "epoch": 1, "sample_count": sample_count,
                       "grads": wire.encode_f64(np.zeros(size))})
    broker = SimBroker()
    handle = training.submit_job(job, broker)
    for _ in range(copies):  # queued ahead of the real workers' gradients
        broker.publish(sender, training.GRADS_TOPIC, stray)
    with pytest.raises(RuntimeError, match=cause):
        training.run_training(handle)
