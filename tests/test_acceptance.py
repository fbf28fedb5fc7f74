"""Acceptance suite: one test per release criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v`; a PASS/FAIL line per criterion
is printed in the terminal summary.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import record
from oracles import privacy_violations
from continuum import federated, nn, training
from continuum.bus import SimBroker, topic_matches
from continuum.cli import main
from continuum.configs import parse_dist_train, parse_fl, parse_sdp
from continuum.data import synth_blobs
from continuum.federated import ClientUpdate, StragglerModel
from continuum.pipeline import (
    ArrivalSchedule,
    Constant,
    PipelineSpec,
    StageSpec,
    build_pipeline,
    run_pipeline,
    tandem_oracle,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
FIXTURES = Path(__file__).resolve().parent / "data"


def read_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


# --- shared heavy artifacts -------------------------------------------------


@pytest.fixture(scope="module")
def fmcw_experiment():
    doc = json.loads((CONFIGS / "fmcw_synth.json").read_text())
    exp = parse_fl(doc)
    return exp, exp.dataset.build()


@pytest.fixture(scope="module")
def sync_run(fmcw_experiment):
    exp, dataset = fmcw_experiment
    broker = SimBroker()
    trace = record(broker)
    start = time.perf_counter()
    result = federated.run_sync(exp.config, broker, dataset)
    elapsed = time.perf_counter() - start
    return result, trace, elapsed


@pytest.fixture(scope="module")
def async_aligned_run(fmcw_experiment):
    exp, dataset = fmcw_experiment
    config = replace(exp.config, mode="async", aggregation_interval_ms=60_000.0)
    broker = SimBroker()
    trace = record(broker)
    result = federated.run_async(config, broker, dataset, StragglerModel())
    return result, trace


# --- criterion 1: SDP first-item latency ------------------------------------


def test_criterion_01_sdp_first_item_latency(tmp_path):
    """Bundled surveillance pipeline: item 1 completes in exactly 17,000 ms."""
    out = tmp_path / "out"
    start = time.perf_counter()
    code = main(["sdp-sim", str(CONFIGS / "iiot_surveillance.json"), "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    first = read_rows(out / "items.csv")[0]
    assert first[0] == "0"
    assert float(first[3]) == 17_000.0
    assert elapsed < 1.0


# --- criterion 2: SDP queueing law and oracle equivalence -------------------


def test_criterion_02_sdp_queueing_law():
    """Sojourns follow 17000 + 9000(i-1); the simulator equals the exact recurrence."""
    exp = parse_sdp(json.loads((CONFIGS / "iiot_surveillance.json").read_text()))
    broker = SimBroker()
    traces, _ = run_pipeline(build_pipeline(exp.pipeline, broker), exp.arrivals, seed=exp.seed)
    sojourns = [t.sojourn_ms for t in traces]
    assert sojourns == [17_000.0 + 9_000.0 * i for i in range(20)]
    assert float(np.mean(sojourns)) == 102_500.0

    arrivals = exp.arrivals.times()
    services = [[s.service.ms] * 20 for s in exp.pipeline.stages]
    oracle = tandem_oracle(arrivals, services)
    assert [t.completion_ms for t in traces] == oracle

    # 50 randomized constant-service configurations, exact integer equality
    rng = np.random.default_rng(7)
    for _ in range(50):
        num_stages = int(rng.integers(1, 7))
        services = [float(rng.integers(0, 20_000)) for _ in range(num_stages)]
        count = int(rng.integers(1, 30))
        interval = float(rng.integers(1, 10_000))
        stages = tuple(
            StageSpec(
                name=f"s{i}",
                node=f"fog:n{i}",
                input_topic=f"r/{i}",
                output_topic=None if i == num_stages - 1 else f"r/{i + 1}",
                service=Constant(ms),
            )
            for i, ms in enumerate(services)
        )
        spec = PipelineSpec(name="r", source_topic="r/0", stages=stages)
        traces, _ = run_pipeline(
            build_pipeline(spec, SimBroker()),
            ArrivalSchedule(count=count, interval_ms=interval),
        )
        expected = tandem_oracle(
            [i * interval for i in range(count)], [[ms] * count for ms in services]
        )
        assert [t.completion_ms for t in traces] == expected


# --- criterion 3: gradient correctness --------------------------------------


def test_criterion_03_gradient_finite_differences():
    """Backprop vs central differences (h=1e-5): relative error < 1e-5, 100+ models."""
    from test_nn import max_relative_error, numerical_gradient

    start = time.perf_counter()
    rng = np.random.default_rng(123)
    checked = 0
    layer_draws = [(16, 12, 8)]  # the largest required shape, then random ones
    while len(layer_draws) < 100:
        depth = int(rng.integers(2, 4))
        sizes = [int(rng.integers(2, 17))]
        for _ in range(depth - 2):
            sizes.append(int(rng.integers(2, 13)))
        sizes.append(int(rng.integers(2, 9)))
        layer_draws.append(tuple(sizes))
    for i, sizes in enumerate(layer_draws):
        activation = ("sigmoid", "relu", "tanh")[i % 3]
        model = nn.init_model(sizes, activation, seed=i)
        n = int(rng.integers(1, 9))
        features, labels = rng.normal(size=(n, sizes[0])), rng.integers(0, sizes[-1], size=n)
        analytic = nn.serialize_gradients(nn.gradient(model, features, labels))
        numeric = numerical_gradient(model, features, labels, h=1e-5)
        assert max_relative_error(analytic, numeric) < 1e-5, sizes
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 100
    assert elapsed < 30.0


# --- criterion 4: distributed == centralized --------------------------------


def centralized_reference(job: training.TrainJob):
    model = nn.init_model(job.layer_sizes, job.hidden_activation, job.seed)
    features, labels = job.dataset.features, job.dataset.labels
    rows = []
    for epoch in range(1, job.epochs + 1):
        model = nn.sgd_step(model, nn.gradient(model, features, labels), job.learning_rate)
        result = nn.evaluate(model, features, labels)
        rows.append((epoch, result.mean_loss, result.accuracy))
    return model, rows


def test_criterion_04_distributed_equals_centralized():
    """Worker counts 1-4 reproduce the centralized oracle to 1e-9 after 100 epochs."""
    dataset = synth_blobs(517, 10, 4, separation=4.0, seed=17)
    for workers in (1, 2, 3, 4):
        job = training.TrainJob(
            layer_sizes=(10, 16, 4),
            hidden_activation="sigmoid",
            learning_rate=0.5,
            epochs=100,
            num_workers=workers,
            seed=17,
            dataset=dataset,
        )
        result = training.run_training(training.submit_job(job, SimBroker()))
        oracle_model, oracle_rows = centralized_reference(job)
        np.testing.assert_allclose(
            nn.serialize_params(result.final_model),
            nn.serialize_params(oracle_model),
            atol=1e-9,
        )
        for metrics, (epoch, loss, accuracy) in zip(result.epochs, oracle_rows):
            assert metrics.epoch == epoch
            assert metrics.loss == pytest.approx(loss, abs=1e-9)
            assert metrics.accuracy == pytest.approx(accuracy, abs=1e-9)

    # the bundled forest-fire-style job beats chance and lands on the frozen
    # centralized-oracle accuracy
    fixture = json.loads((FIXTURES / "dist_train_oracle.json").read_text())
    exp = parse_dist_train(json.loads((CONFIGS / "forestfire_synth.json").read_text()))
    job = training.TrainJob(
        layer_sizes=exp.layer_sizes,
        hidden_activation=exp.activation,
        learning_rate=exp.learning_rate,
        epochs=exp.epochs,
        num_workers=exp.workers,
        seed=exp.seed,
        dataset=exp.dataset.build(),
    )
    result = training.run_training(training.submit_job(job, SimBroker()))
    final_accuracy = result.epochs[-1].accuracy
    assert final_accuracy > 0.60
    assert final_accuracy == pytest.approx(fixture["final_accuracy"], abs=0.01)


# --- criterion 5: FedAvg algebra ---------------------------------------------


def test_criterion_05_fedavg_algebra():
    """Idempotence, convex bounds, and weight normalization over 1000 update sets."""
    rng = np.random.default_rng(99)
    sets_checked = 0
    for _ in range(1000):
        k = int(rng.integers(1, 9))
        dim = int(rng.integers(1, 17))
        scale = 10.0 ** rng.uniform(-3, 3)
        vectors = [rng.normal(size=dim) * scale for _ in range(k)]
        counts = [int(rng.integers(1, 10_000)) for _ in range(k)]
        updates = [
            ClientUpdate(client_id=i, base_round=0, params=v, sample_count=c)
            for i, (v, c) in enumerate(zip(vectors, counts))
        ]
        merged = federated.fedavg(updates)

        # weight normalization
        total = sum(counts)
        assert abs(sum(c / total for c in counts) - 1.0) <= 1e-15

        # convex-combination bounds componentwise (1e-15 relative slack)
        stacked = np.stack(vectors)
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        slack = 1e-15 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi))) * 8
        assert (merged >= lo - slack).all()
        assert (merged <= hi + slack).all()

        # permutation invariance is exact (fixed summation order)
        shuffled = list(updates)
        rng.shuffle(shuffled)
        assert np.array_equal(merged, federated.fedavg(shuffled))

        # idempotence on identical updates
        same = [
            ClientUpdate(client_id=i, base_round=0, params=vectors[0], sample_count=c)
            for i, c in enumerate(counts)
        ]
        merged_same = federated.fedavg(same)
        tolerance = 1e-15 * np.maximum(1.0, np.abs(vectors[0])) * 8
        assert (np.abs(merged_same - vectors[0]) <= tolerance).all()
        sets_checked += 1
    assert sets_checked >= 1000


# --- criterion 6: synchronous FL convergence ---------------------------------


def test_criterion_06_sync_fl_convergence(sync_run):
    """3 clients, 100 rounds, lr 0.1: accuracy > 0.90 and the frozen curve re-matches."""
    result, _trace, elapsed = sync_run
    assert elapsed < 120.0
    rows = federated.fl_metrics(result)
    assert len(rows) == 101
    round0, round100 = rows[0], rows[-1]
    assert round100.round == 100
    assert round100.test_accuracy > 0.90
    assert round100.test_accuracy - round0.test_accuracy >= 0.5
    assert abs(round0.test_accuracy - 0.125) <= 0.05  # untrained 8-class chance level
    assert all(m.contributors <= 3 for m in rows)

    reference = json.loads((FIXTURES / "fl_sync_reference.json").read_text())
    assert reference["seed"] == 42
    assert len(reference["curve"]) == len(rows)
    for frozen, row in zip(reference["curve"], rows):
        assert frozen["round"] == row.round
        assert row.test_accuracy == pytest.approx(frozen["accuracy"], abs=1e-9)
        assert row.test_loss == pytest.approx(frozen["loss"], abs=1e-9)
        assert row.contributors == frozen["contributors"]


# --- criterion 7: async == sync, straggler tolerance -------------------------


def test_criterion_07_async_equivalence_and_stragglers(fmcw_experiment, sync_run, async_aligned_run):
    """Aligned async run matches sync to 1e-9; p=0.3 keeps 2.1 contributors and converges."""
    sync_result, _, _ = sync_run
    async_result, _ = async_aligned_run
    assert len(sync_result.rows) == len(async_result.rows)
    for s, a in zip(sync_result.rows, async_result.rows):
        assert s.round == a.round
        assert a.test_accuracy == pytest.approx(s.test_accuracy, abs=1e-9)
        assert a.test_loss == pytest.approx(s.test_loss, abs=1e-9)
        assert a.contributors == s.contributors

    exp, dataset = fmcw_experiment
    config = replace(exp.config, mode="async", aggregation_interval_ms=60_000.0)
    contributor_means = []
    final_accuracies = []
    for seed in range(10):
        result = federated.run_async(
            config, SimBroker(), dataset, StragglerModel(miss_probability=0.3, seed=seed)
        )
        contributor_means.append(np.mean([m.contributors for m in result.rows[1:]]))
        final_accuracies.append(result.rows[-1].test_accuracy)
    assert 1.8 <= float(np.mean(contributor_means)) <= 2.4
    assert min(final_accuracies) >= 0.80


# --- criterion 8: topic matching ---------------------------------------------


def test_criterion_08_topic_matching_exhaustive():
    """Exhaustive agreement with the recursive reference matcher, plus MQTT edges."""
    from test_topics import all_filters, all_topics, reference_match

    filters = all_filters(4, ("a", "b"))
    topics = all_topics(4, ("a", "b"))
    cases = 0
    for filt in filters:
        flevels = filt.split("/")
        for topic in topics:
            assert topic_matches(filt, topic) == reference_match(flevels, topic.split("/"))
            cases += 1
    assert cases == len(filters) * len(topics) >= 4000

    assert topic_matches("a/#", "a")  # '#' also matches the parent level
    assert not topic_matches("+", "a/b")  # '+' never spans levels
    assert not topic_matches("a/+", "a")
    assert topic_matches("#", "a/b/c/d")


# --- criterion 9: end-to-end determinism -------------------------------------


def _dist_doc() -> dict:
    return {
        "layers": [6, 5, 3],
        "lr": 0.3,
        "epochs": 5,
        "workers": 2,
        "seed": 5,
        "dataset": {"synth": {"n": 90, "d": 6, "classes": 3, "separation": 3.0, "seed": 5}},
    }


def _fl_doc(mode: str) -> dict:
    doc = {
        "mode": mode,
        "clients": 3,
        "rounds": 6,
        "samples_per_round": 8,
        "lr": 0.2,
        "layers": [6, 5, 3],
        "seed": 9,
        "dataset": {"synth": {"n": 180, "d": 6, "classes": 3, "separation": 3.0, "seed": 9}},
    }
    if mode == "async":
        doc.update(interval_ms=1000, staleness_bound=1, straggler_p=0.25)
    return doc


def test_criterion_09_every_command_is_replayable(tmp_path):
    """Same config twice -> byte-identical CSVs, and replay-check exits 0."""
    jobs = [("sdp-sim", CONFIGS / "iiot_surveillance.json")]
    for name, doc in (("dist.json", _dist_doc()), ("fl_sync.json", _fl_doc("sync")),
                      ("fl_async.json", _fl_doc("async"))):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        jobs.append(("dist-train" if name == "dist.json" else "fl-run", path))

    for command, config in jobs:
        first = tmp_path / f"{config.stem}_run1"
        second = tmp_path / f"{config.stem}_run2"
        assert main([command, str(config), "--out", str(first)]) == 0
        assert main([command, str(config), "--out", str(second)]) == 0
        csvs = sorted(p.name for p in first.glob("*.csv"))
        assert csvs
        for name in csvs:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (command, name)
        assert main(["replay-check", str(first / "manifest.json")]) == 0


# --- criterion 10: privacy of the FL trace ------------------------------------


def test_criterion_10_fl_trace_carries_no_raw_data(fmcw_experiment, sync_run, async_aligned_run):
    """Every published FL envelope holds parameters and counts only."""
    _, dataset = fmcw_experiment
    _, sync_trace, _ = sync_run
    assert privacy_violations(sync_trace, dataset, sample_rows=64) == []
    _, async_trace = async_aligned_run
    assert privacy_violations(async_trace, dataset, sample_rows=64) == []
    # 100 broadcasts (initial + one per non-final aggregation) + 3 updates/round
    assert len(sync_trace) == 100 + 300
