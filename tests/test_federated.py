import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import record
from oracles import privacy_violations
from continuum import federated, nn, wire
from continuum.bus import LinkLatency, SimBroker
from continuum.data import Part, next_round_batch, partition, synth_blobs
from continuum.federated import ClientUpdate, FlConfig, GlobalModel, StragglerModel


def small_config(mode: str = "sync", rounds: int = 8, clients: int = 3, **overrides) -> FlConfig:
    defaults = dict(
        mode=mode,
        num_clients=clients,
        rounds=rounds,
        layer_sizes=(6, 5, 3),
        learning_rate=0.2,
        samples_per_round=10,
        local_epochs=1,
        aggregation_interval_ms=1000.0,
        staleness_bound=1,
        seed=21,
    )
    defaults.update(overrides)
    return FlConfig(**defaults)


def small_dataset(n: int = 240, seed: int = 21):
    return synth_blobs(n, 6, 3, separation=3.0, seed=seed)


def updates_from(vectors, counts, ids=None) -> list[ClientUpdate]:
    ids = ids if ids is not None else range(len(vectors))
    return [
        ClientUpdate(client_id=i, base_round=0, params=np.asarray(v, dtype=float), sample_count=c)
        for i, v, c in zip(ids, vectors, counts)
    ]


# --- fedavg algebra ---


def test_fedavg_idempotent_on_identical_updates():
    vec = np.array([0.5, -1.25, 3.0])
    merged = federated.fedavg(updates_from([vec, vec, vec], [60, 60, 60]))
    assert np.array_equal(merged, vec)


def test_fedavg_weighted_mean_values():
    merged = federated.fedavg(updates_from([[0.0], [1.0]], [60, 60]))
    assert merged[0] == pytest.approx(0.5, abs=1e-15)
    merged = federated.fedavg(updates_from([[0.0], [1.0]], [20, 60]))
    assert merged[0] == pytest.approx(0.75, abs=1e-15)


def test_fedavg_errors():
    with pytest.raises(ValueError):
        federated.fedavg([])
    with pytest.raises(ValueError):
        federated.fedavg(updates_from([[0.0, 1.0], [1.0]], [10, 10]))
    with pytest.raises(ValueError, match="positive"):
        federated.fedavg(updates_from([[0.0], [1.0]], [0, 0]))


def test_fedavg_permutation_invariant_exactly():
    rng = np.random.default_rng(3)
    vectors = [rng.normal(size=7) for _ in range(5)]
    counts = [1, 60, 13, 7, 120]
    forward = federated.fedavg(updates_from(vectors, counts))
    shuffled = updates_from(vectors, counts)
    shuffled = [shuffled[i] for i in (4, 2, 0, 3, 1)]
    assert np.array_equal(forward, federated.fedavg(shuffled))


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_fedavg_convex_combination_property(data):
    k = data.draw(st.integers(1, 6))
    dim = data.draw(st.integers(1, 5))
    vectors = [
        data.draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)) for _ in range(k)
    ]
    counts = [data.draw(st.integers(1, 10_000)) for _ in range(k)]
    merged = federated.fedavg(updates_from(vectors, counts))
    arr = np.array(vectors)
    assert (merged >= arr.min(axis=0) - 1e-9).all()
    assert (merged <= arr.max(axis=0) + 1e-9).all()


# --- client-side training ---


def test_client_identity_when_no_local_work():
    config = small_config()
    part = partition(small_dataset(), config.num_clients, config.seed)[0]
    model = nn.init_model(config.layer_sizes, config.hidden_activation, config.seed)
    start = GlobalModel(0, nn.serialize_params(model))

    no_epochs = federated.client_local_train(0, start, 0, part, small_config(local_epochs=0))
    assert np.array_equal(no_epochs.params, start.params)

    zero_lr = federated.client_local_train(0, start, 0, part, small_config(learning_rate=0.0))
    assert np.array_equal(zero_lr.params, start.params)


def test_client_update_shape_for_fmcw_model():
    config = small_config(layer_sizes=(512, 32, 8), samples_per_round=60, clients=1)
    part = Part(synth_blobs(200, 512, 8, separation=6.0, seed=1), np.arange(200))
    model = nn.init_model((512, 32, 8), "sigmoid", 1)
    update = federated.client_local_train(2, GlobalModel(5, nn.serialize_params(model)), 5, part, config)
    assert update.params.shape == (16_680,)
    assert update.sample_count == 60
    assert update.base_round == 5
    assert update.client_id == 2


def test_client_rejects_wrong_param_length():
    config = small_config()
    part = partition(small_dataset(), config.num_clients, config.seed)[0]
    with pytest.raises(ValueError):
        federated.client_local_train(0, GlobalModel(0, np.zeros(7)), 0, part, config)


# --- sync runs ---


def run_sync(config, dataset):
    broker = SimBroker()
    trace = record(broker)
    result = federated.run_sync(config, broker, dataset)
    return result, trace


def test_sync_round_and_update_counts():
    config = small_config(rounds=8)
    result, trace = run_sync(config, small_dataset())
    updates = [e for e in trace if e.topic == federated.UPDATE_TOPIC]
    assert len(updates) == 8 * 3  # every client contributes every round
    assert len(result.rows) == 9  # round 0 baseline plus one row per round
    assert [m.round for m in result.rows] == list(range(9))
    assert result.rows[0].contributors == 0
    assert all(m.contributors == 3 for m in result.rows[1:])
    assert result.global_model.round_index == 8


def test_sync_single_client_matches_solo_training():
    config = small_config(clients=1, rounds=6, local_epochs=2)
    dataset = small_dataset()
    result, _ = run_sync(config, dataset)

    train, test = federated.split_train_test(dataset)
    part = partition(train, 1, config.seed)[0]
    model = nn.init_model(config.layer_sizes, config.hidden_activation, config.seed)
    for r in range(config.rounds):
        batch = next_round_batch(part, r, config.samples_per_round)
        for _ in range(config.local_epochs):
            grads = nn.gradient(model, batch.features, batch.labels)
            model = nn.sgd_step(model, grads, config.learning_rate)
    np.testing.assert_allclose(
        result.global_model.params, nn.serialize_params(model), atol=1e-9
    )


def test_sync_is_deterministic():
    config = small_config(rounds=5)
    first, _ = run_sync(config, small_dataset())
    second, _ = run_sync(config, small_dataset())
    assert [(m.round, m.test_accuracy, m.test_loss, m.contributors) for m in first.rows] == [
        (m.round, m.test_accuracy, m.test_loss, m.contributors) for m in second.rows
    ]


class UpdateDroppingBroker(SimBroker):
    """Loses every update one client publishes."""

    def __init__(self, lost_sender: str):
        super().__init__()
        self.lost_sender = lost_sender

    def publish(self, sender, topic, payload):
        if sender == self.lost_sender and topic == federated.UPDATE_TOPIC:
            return 0
        return super().publish(sender, topic, payload)


def test_sync_stall_names_the_client_whose_update_was_lost():
    broker = UpdateDroppingBroker(lost_sender=federated.CLIENT_NODE.format(client=1))
    with pytest.raises(RuntimeError, match=r"still awaiting \['fog:client-1'\]$"):
        federated.run_sync(small_config(), broker, small_dataset())


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_a_non_finite_test_loss_ends_the_run_naming_the_round_and_lr(mode):
    config = small_config(mode, learning_rate=1e10)
    run = federated.run_sync if mode == "sync" else federated.run_async
    with np.errstate(all="ignore"):  # numpy's overflow goes unreported; the loss is checked
        with pytest.raises(RuntimeError,
                           match=r"^round 1 with lr 10000000000.0: the test loss is inf$"):
            run(config, SimBroker(), small_dataset())


def test_split_is_half_and_half():
    dataset = small_dataset(n=240)
    train, test = federated.split_train_test(dataset)
    assert len(train) == 120 and len(test) == 120
    assert np.array_equal(
        np.concatenate([train.features, test.features]), dataset.features
    )


def test_fl_setup_copies_no_training_rows():
    config = small_config(layer_sizes=(64, 5, 3), clients=10)
    dataset = synth_blobs(8000, 64, 3, separation=3.0, seed=21)
    train_bytes = (len(dataset) - len(dataset) // 2) * 64 * 8
    tracemalloc.start()
    try:
        test, parts = federated._prepare(config, dataset)  # what run_sync and run_async set up
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * train_bytes, f"FL setup traced {peak} bytes"
    assert sorted(np.concatenate([p.rows for p in parts]).tolist()) == list(range(4000))
    assert all(np.shares_memory(p.dataset.features, dataset.features) for p in parts)
    assert np.shares_memory(test.features, dataset.features)


# --- async runs ---


def run_async(config, dataset, stragglers=None):
    broker = SimBroker()
    trace = record(broker)
    result = federated.run_async(config, broker, dataset, stragglers)
    return result, trace


def test_async_without_straggling_equals_sync():
    dataset = small_dataset()
    sync_result, sync_trace = run_sync(small_config(rounds=10), dataset)
    async_result, async_trace = run_async(small_config(mode="async", rounds=10), dataset)
    for trace in (sync_trace, async_trace):  # no global follows the last round
        assert sum(env.topic == federated.GLOBAL_TOPIC for env in trace) == 10
    assert len(sync_result.rows) == len(async_result.rows)
    for a, b in zip(sync_result.rows, async_result.rows):
        assert a.round == b.round
        assert b.test_accuracy == pytest.approx(a.test_accuracy, abs=1e-12)
        assert b.test_loss == pytest.approx(a.test_loss, abs=1e-12)
        assert a.contributors == b.contributors
    np.testing.assert_allclose(
        sync_result.global_model.params, async_result.global_model.params, atol=1e-12
    )


def test_async_empty_intervals_advance_rounds_without_update():
    config = small_config(mode="async", clients=1, rounds=5)
    result, _ = run_async(config, small_dataset(), StragglerModel(miss_probability=1.0))
    initial = nn.serialize_params(
        nn.init_model(config.layer_sizes, config.hidden_activation, config.seed)
    )
    assert np.array_equal(result.global_model.params, initial)
    assert result.global_model.round_index == 5
    assert [m.contributors for m in result.rows] == [0] * 6
    accuracies = {m.test_accuracy for m in result.rows}
    assert len(accuracies) == 1  # params never changed


def test_async_delayed_updates_respect_staleness_bound():
    dataset = small_dataset()
    # a 0.6-interval delay pushes every update past its own aggregation window
    late = StragglerModel(delay_ms=600.0)
    tolerant = small_config(mode="async", rounds=6, staleness_bound=1)
    result, _ = run_async(tolerant, dataset, late)
    contributors = [m.contributors for m in result.rows]
    assert contributors[1] == 0  # first window closes before anything lands
    assert all(c == 3 for c in contributors[2:])

    strict = small_config(mode="async", rounds=6, staleness_bound=0)
    result, _ = run_async(strict, dataset, late)
    assert all(m.contributors == 0 for m in result.rows)
    initial = nn.serialize_params(
        nn.init_model(strict.layer_sizes, strict.hidden_activation, strict.seed)
    )
    assert np.array_equal(result.global_model.params, initial)


def test_async_miss_probability_thins_contributors():
    config = small_config(mode="async", rounds=50)
    result, _ = run_async(config, small_dataset(), StragglerModel(miss_probability=0.3, seed=9))
    mean_contributors = np.mean([m.contributors for m in result.rows[1:]])
    assert 1.2 <= mean_contributors <= 2.9  # E = 2.1 for 3 clients at p = 0.3


def test_async_client_without_a_global_misses_its_tick_and_still_draws():
    # the first global reaches client 0 5 ms after its round-0 tick
    latency = LinkLatency({(federated.SERVER_NODE, "fog:client-0"): 5.0})
    config = FlConfig("async", 2, 3, (10, 5, 3), 0.1, 10, seed=1)
    dataset = synth_blobs(400, 10, 3, 4.0, 1)
    result = federated.run_async(config, SimBroker(latency=latency), dataset)
    assert [m.contributors for m in result.rows] == [0, 1, 2, 2]

    # the missed tick makes its draws, so round r's send waits the delay drawn r-th
    broker = SimBroker(latency=latency)
    trace = record(broker)
    federated.run_async(config, broker, dataset, StragglerModel(delay_ms=(0.0, 100.0), seed=4))
    rng = np.random.default_rng([4, 0])
    delays = [(rng.random(), rng.uniform(0.0, 100.0))[1] for _ in range(config.rounds)]
    assert [env.publish_time for env in trace if env.sender == "fog:client-0"] == [
        r * config.aggregation_interval_ms + delays[r] for r in (1, 2)]


def test_async_requires_sim_backend():
    class FakeBus:
        pass

    with pytest.raises(ValueError, match="simulated"):
        federated.run_async(small_config(mode="async"), FakeBus(), small_dataset())


def test_async_determinism():
    config = small_config(mode="async", rounds=12)
    straggler = StragglerModel(miss_probability=0.4, delay_ms=(0.0, 900.0), seed=5)
    first, _ = run_async(config, small_dataset(), straggler)
    second, _ = run_async(config, small_dataset(), straggler)
    assert [(m.test_accuracy, m.test_loss, m.contributors) for m in first.rows] == [
        (m.test_accuracy, m.test_loss, m.contributors) for m in second.rows
    ]


# --- privacy ---


def test_fl_traffic_is_params_and_counts_only():
    dataset = small_dataset()
    _, trace = run_sync(small_config(rounds=6), dataset)
    assert len(trace) == 6 + 6 * 3  # the initial global, 5 more, and 3 updates a round
    assert privacy_violations(trace, dataset) == []
    _, async_trace = run_async(
        small_config(mode="async", rounds=6), dataset, StragglerModel(miss_probability=0.2)
    )
    assert any(env.topic == federated.UPDATE_TOPIC for env in async_trace)
    assert privacy_violations(async_trace, dataset) == []


def test_privacy_scan_flags_raw_rows_and_foreign_topics():
    dataset = small_dataset()
    broker = SimBroker()
    trace = record(broker)
    broker.publish("fog:client-0", federated.UPDATE_TOPIC, b"{not json")
    leak = wire.pack(
        {
            "type": "update",
            "client_id": 0,
            "base_round": 0,
            "params": dataset.features[0],
            "sample_count": 1,
        }
    )
    broker.publish("fog:client-0", federated.UPDATE_TOPIC, leak)
    broker.publish("fog:client-0", "other/topic", b"{}")
    broker.run_until_idle()
    issues = privacy_violations(trace, dataset)
    assert len(issues) == 3
    assert any("not a JSON" in i for i in issues)
    assert any("sample 0" in i for i in issues)
    assert any("unexpected topic" in i for i in issues)


def test_privacy_scan_finds_a_row_inside_the_params_of_a_well_formed_update():
    dataset = small_dataset()
    _, trace = run_sync(small_config(rounds=2), dataset)
    update = next(e for e in trace if e.topic == federated.UPDATE_TOPIC)
    msg = wire.unpack(update.payload)
    row = dataset.features[4]
    msg["params"][2:2 + len(row)] = row  # same length, keys intact
    traffic = SimBroker()
    leaked = record(traffic)
    traffic.publish(update.sender, federated.UPDATE_TOPIC, wire.pack(msg))
    traffic.run_until_idle()
    assert len(leaked) == 1
    assert privacy_violations(leaked) == []
    assert privacy_violations(leaked, dataset, sample_rows=240) == [
        "raw bytes of sample 4 appear in a published payload"
    ]


def test_privacy_scan_reports_params_that_are_not_a_float64_vector():
    broker = SimBroker()
    trace = record(broker)
    # int64s; a float64 matrix; a base64 string field
    for params in (np.zeros(3, dtype=np.int64), np.zeros((2, 2)), "AAAAAAAAAAA="):
        broker.publish("fog:client-0", federated.UPDATE_TOPIC, wire.pack(
            {"type": "update", "client_id": 0, "base_round": 0, "params": params,
             "sample_count": 1}))
    broker.run_until_idle()
    issues = privacy_violations(trace, small_dataset())
    assert issues == [
        f"msg {msg_id} on fl/updates: params is not a float64 vector" for msg_id in (1, 2, 3)
    ]


# --- stray contributions ---


class StrayUpdateBroker(SimBroker):
    """Slips one foreign message (an update, by default) onto the bus right after the first
    global broadcast."""

    def __init__(self, sender: str, stray: bytes, topic: str = federated.UPDATE_TOPIC):
        super().__init__()
        self.sender = sender
        self.stray = stray
        self.topic = topic

    def publish(self, sender, topic, payload):
        msg_id = super().publish(sender, topic, payload)
        if self.stray and topic == federated.GLOBAL_TOPIC:
            stray, self.stray = self.stray, b""
            super().publish(self.sender, self.topic, stray)
        return msg_id


PARAMS = nn.serialize_params(nn.init_model((6, 5, 3), "sigmoid", 0))  # small_config's model


@pytest.mark.parametrize("mode", ["sync", "async"])
@pytest.mark.parametrize(
    "sender, client_id, base_round, params, sample_count, cause",
    [
        ("fog:rogue", 99, 0, PARAMS, 10, r"^fog:rogue: update names unknown client_id 99$"),
        ("fog:client-1", True, 0, PARAMS, 10,
         r"^fog:client-1: update names unknown client_id True$"),
        ("fog:client-0", 0, 0, PARAMS, 0,
         r"^fog:client-0: update of client 0 has sample_count 0 < 1$"),
        ("fog:client-0", 0, 0, PARAMS, "x",
         r"^fog:client-0: update of client 0 has sample_count 'x', not an int$"),
        ("fog:client-0", 0, 0, PARAMS, 1.5,
         r"^fog:client-0: update of client 0 has sample_count 1\.5, not an int$"),
        ("fog:client-0", 0, 0, PARAMS, True,
         r"^fog:client-0: update of client 0 has sample_count True, not an int$"),
        ("fog:rogue", 0, 0, PARAMS, 10,
         r"^fog:rogue: update names client 0, which only fog:client-0 may send$"),
        ("fog:client-0", 0, 5, PARAMS, 10,
         r"^fog:client-0: update of client 0 has base_round 5, not an int in \[0, 0\]$"),
        ("fog:client-0", 0, -1, PARAMS, 10,
         r"^fog:client-0: update of client 0 has base_round -1, not an int in \[0, 0\]$"),
        ("fog:client-0", 0, 0, PARAMS[:7], 10,
         r"^fog:client-0: update of client 0 has params of dtype float64 and shape \(7,\), "
         r"not float64 of shape \(53,\)$"),
        ("fog:client-0", 0, 0, PARAMS.astype(np.int64), 10,
         r"^fog:client-0: update of client 0 has params of dtype int64 and shape \(53,\), "
         r"not float64 of shape \(53,\)$"),
    ],
    ids=["unknown-client", "bool-client", "zero-samples", "string-samples", "fractional-samples",
         "bool-samples", "impostor", "future-round", "negative-round",
         "short-params", "int64-params"],
)
def test_server_rejects_a_stray_update_naming_its_sender(
    mode, sender, client_id, base_round, params, sample_count, cause
):
    config = small_config(mode=mode, rounds=3)
    stray = federated._update_payload(ClientUpdate(client_id, base_round, params, sample_count))
    broker = StrayUpdateBroker(sender, stray)
    run = federated.run_sync if mode == "sync" else federated.run_async
    with pytest.raises(RuntimeError, match=cause):
        run(config, broker, small_dataset())


class GlobalDuplicatingBroker(SimBroker):
    """Delivers the global model of one round twice, as an at-least-once bus may."""

    def __init__(self, round_index: int):
        super().__init__()
        self.round_index = round_index

    def publish(self, sender, topic, payload):
        msg_id = super().publish(sender, topic, payload)
        if topic == federated.GLOBAL_TOPIC and wire.unpack(payload)["round"] == self.round_index:
            super().publish(sender, topic, payload)
        return msg_id


@pytest.mark.parametrize("round_index", [0, 1, 2])
def test_sync_server_rejects_the_second_answers_to_a_duplicated_global(round_index):
    # each client answers both copies; the first answers close the round, and the
    # second ones are based on the round before the one in progress
    broker = GlobalDuplicatingBroker(round_index)
    with pytest.raises(RuntimeError, match=rf"^fog:client-0: update of client 0 has base_round "
                                           rf"{round_index} during round {round_index + 1}$"):
        federated.run_sync(small_config(rounds=4, clients=2), broker, small_dataset())


def test_sync_server_rejects_a_second_update_of_a_client_in_one_round():
    stray = federated._update_payload(ClientUpdate(0, 0, PARAMS, 10))  # well formed
    broker = StrayUpdateBroker("fog:client-0", stray)  # ahead of client 0's own update
    with pytest.raises(RuntimeError, match=r"^fog:client-0: second update of client 0 in round 0$"):
        federated.run_sync(small_config(rounds=3), broker, small_dataset())


@pytest.mark.parametrize("base_rounds", [(1, 0), (0, 1)], ids=["older-last", "older-first"])
def test_async_server_keeps_each_clients_freshest_basis(base_rounds):
    _, test = federated.split_train_test(small_dataset())
    broker = SimBroker()
    server = federated._Server(small_config("async", rounds=3), broker, test)
    server.aggregate()  # an empty interval: round 1 is in progress, so basis 0 is fresh enough
    for base_round in base_rounds:
        update = ClientUpdate(0, base_round, np.full(PARAMS.shape, float(base_round)), 10)
        broker.publish("fog:client-0", federated.UPDATE_TOPIC, federated._update_payload(update))
    broker.run_until_idle()
    server.aggregate()
    assert server.contributors == 1
    assert np.array_equal(server.params, np.full(PARAMS.shape, 1.0))


def test_client_keeps_the_latest_global_when_an_older_one_arrives_after_it():
    config = small_config("async", rounds=5)
    train, _ = federated.split_train_test(small_dataset())
    broker = SimBroker()
    client = federated._Client(0, config, broker, partition(train, config.num_clients, 0)[0])
    for round_index in (3, 1):
        broker.publish(federated.SERVER_NODE, federated.GLOBAL_TOPIC,
                       federated._global_payload(round_index, np.full(3, float(round_index))))
    broker.run_until_idle()
    assert client.latest.round_index == 3
    assert np.array_equal(client.latest.params, np.full(3, 3.0))


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_clients_reject_a_global_model_the_server_did_not_send(mode):
    stray = federated._global_payload(5, np.zeros(3))  # a later round than any real one
    broker = StrayUpdateBroker("edge:intruder", stray, topic=federated.GLOBAL_TOPIC)
    run = federated.run_sync if mode == "sync" else federated.run_async
    with pytest.raises(RuntimeError, match=r"^edge:intruder: fl/global message, "
                                           r"which only cloud:server may send$"):
        run(small_config(mode=mode, rounds=3), broker, small_dataset())


# --- config validation ---


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(mode="semi")
    with pytest.raises(ValueError):
        small_config(mode="async", aggregation_interval_ms=0.0)
    with pytest.raises(ValueError):
        small_config(rounds=0)
    with pytest.raises(ValueError):
        StragglerModel(miss_probability=1.5)
    with pytest.raises(ValueError):
        StragglerModel(delay_ms=(-1.0, 5.0))
    with pytest.raises(ValueError):
        federated.run_sync(small_config(mode="async"), SimBroker(), small_dataset())
