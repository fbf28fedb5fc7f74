import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from continuum import nn


def zero_model(layer_sizes, activation="sigmoid"):
    return nn.deserialize_params(layer_sizes, activation, np.zeros(nn.param_count(layer_sizes)))


def numerical_gradient(
    model: nn.MlpModel, features: np.ndarray, labels: np.ndarray, h: float = 1e-5
) -> np.ndarray:
    """Central finite differences on the flat parameter vector; the oracle for backprop."""
    vec = nn.serialize_params(model)
    out = np.empty_like(vec)
    sizes, activation = model.layer_sizes, model.hidden_activation
    for i in range(vec.size):
        plus = vec.copy()
        plus[i] += h
        minus = vec.copy()
        minus[i] -= h
        loss_plus = nn.loss(nn.deserialize_params(sizes, activation, plus), features, labels)
        loss_minus = nn.loss(nn.deserialize_params(sizes, activation, minus), features, labels)
        out[i] = (loss_plus - loss_minus) / (2 * h)
    return out


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    mask = scale > 1e-10
    if not mask.any():
        return 0.0
    return float((np.abs(analytic - numeric)[mask] / scale[mask]).max())


def random_batch(rng, input_dim, num_classes, n=8) -> tuple[np.ndarray, np.ndarray]:
    """(features, labels) of n samples."""
    return rng.normal(size=(n, input_dim)), rng.integers(0, num_classes, size=n)


def test_param_count_formula():
    assert nn.param_count([512, 32, 8]) == 512 * 32 + 32 + 32 * 8 + 8
    assert nn.param_count([2, 3]) == 2 * 3 + 3
    model = nn.init_model([512, 32, 8], "sigmoid", seed=5)
    assert model.param_count == 16680
    assert nn.serialize_params(model).size == 16680


def test_init_is_deterministic_and_seed_sensitive():
    a = nn.init_model([2, 3], "sigmoid", seed=1)
    b = nn.init_model([2, 3], "sigmoid", seed=1)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(a.biases, b.biases):
        assert np.array_equal(ba, bb)
    c = nn.init_model([4, 4, 4], "sigmoid", seed=1)
    d = nn.init_model([4, 4, 4], "sigmoid", seed=2)
    assert not np.array_equal(nn.serialize_params(c), nn.serialize_params(d))


def test_init_glorot_bounds_and_zero_biases():
    model = nn.init_model([20, 10, 5], "relu", seed=9)
    for w, (fan_in, fan_out) in zip(model.weights, zip(model.layer_sizes, model.layer_sizes[1:])):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(w).max() <= limit
    for b in model.biases:
        assert np.array_equal(b, np.zeros_like(b))


def test_init_rejects_bad_layers():
    with pytest.raises(ValueError):
        nn.init_model([], "sigmoid", seed=0)
    with pytest.raises(ValueError):
        nn.init_model([4], "sigmoid", seed=0)
    with pytest.raises(ValueError):
        nn.init_model([4, 0], "sigmoid", seed=0)
    with pytest.raises(ValueError):
        nn.init_model([4, 2], "softplus", seed=0)


def test_zero_model_predicts_uniform():
    model = zero_model([3, 8])
    probs = nn.forward(model, np.array([[1.0, -2.0, 0.5]]))
    assert probs.shape == (1, 8)
    np.testing.assert_allclose(probs, 0.125, atol=1e-15)


def test_forward_shape_and_row_sums():
    model = nn.init_model([512, 32, 8], "sigmoid", seed=1)
    x = np.random.default_rng(0).normal(size=(1, 512))
    probs = nn.forward(model, x)
    assert probs.shape == (1, 8)
    assert abs(probs.sum() - 1.0) < 1e-12
    with pytest.raises(ValueError):
        nn.forward(model, np.zeros((1, 8)))


def test_zero_model_loss_is_log_num_classes():
    rng = np.random.default_rng(3)
    batch8 = random_batch(rng, 4, 8)
    assert nn.loss(zero_model([4, 8]), *batch8) == pytest.approx(math.log(8), abs=1e-12)
    batch4 = random_batch(rng, 4, 4)
    assert nn.loss(zero_model([4, 4]), *batch4) == pytest.approx(math.log(4), abs=1e-12)


def test_loss_invariant_under_sample_duplication():
    rng = np.random.default_rng(4)
    model = nn.init_model([5, 6, 3], "tanh", seed=2)
    features, labels = random_batch(rng, 5, 3, n=6)
    doubled = (np.concatenate([features, features]), np.concatenate([labels, labels]))
    assert nn.loss(model, *doubled) == pytest.approx(nn.loss(model, features, labels), abs=1e-12)


@pytest.mark.parametrize("activation", ["sigmoid", "relu", "tanh"])
def test_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(11)
    model = nn.init_model([5, 4, 3], activation, seed=7)
    batch = random_batch(rng, 5, 3, n=8)
    analytic = nn.serialize_gradients(nn.gradient(model, *batch))
    numeric = numerical_gradient(model, *batch)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_zero_model_balanced_batch_has_zero_output_bias_gradient():
    features = np.random.default_rng(5).normal(size=(8, 6))
    labels = np.array([0, 1, 2, 3, 0, 1, 2, 3])
    grads = nn.gradient(zero_model([6, 4]), features, labels)
    np.testing.assert_allclose(grads.biases[-1], 0.0, atol=1e-15)
    assert grads.sample_count == 8


def test_gradient_linearity_over_batch_concatenation():
    rng = np.random.default_rng(6)
    model = nn.init_model([4, 5, 3], "sigmoid", seed=3)
    b1 = random_batch(rng, 4, 3, n=5)
    b2 = random_batch(rng, 4, 3, n=11)
    both = (np.concatenate([b1[0], b2[0]]), np.concatenate([b1[1], b2[1]]))
    g1 = nn.serialize_gradients(nn.gradient(model, *b1))
    g2 = nn.serialize_gradients(nn.gradient(model, *b2))
    combined = (5 * g1 + 11 * g2) / 16
    full = nn.serialize_gradients(nn.gradient(model, *both))
    np.testing.assert_allclose(combined, full, atol=1e-12)


def test_gradient_is_deterministic():
    rng = np.random.default_rng(7)
    model = nn.init_model([6, 4, 3], "relu", seed=8)
    batch = random_batch(rng, 6, 3)
    a = nn.serialize_gradients(nn.gradient(model, *batch))
    b = nn.serialize_gradients(nn.gradient(model, *batch))
    assert np.array_equal(a, b)


def test_sgd_step_arithmetic():
    model = nn.deserialize_params([1, 1], "sigmoid", np.array([1.0, 0.0]))
    grads = nn.deserialize_gradients([1, 1], np.array([2.0, 0.0]), 1)
    stepped = nn.sgd_step(model, grads, 0.1)
    assert stepped.weights[0][0, 0] == pytest.approx(0.8, abs=1e-15)
    assert model.weights[0][0, 0] == 1.0  # input model untouched


def test_sgd_step_identity_cases():
    model = nn.init_model([3, 2], "sigmoid", seed=1)
    zero = nn.deserialize_gradients(model.layer_sizes, np.zeros(model.param_count), 1)
    same = nn.sgd_step(model, zero, 0.5)
    assert np.array_equal(nn.serialize_params(same), nn.serialize_params(model))
    batch = random_batch(np.random.default_rng(0), 3, 2)
    grads = nn.gradient(model, *batch)
    frozen = nn.sgd_step(model, grads, 0.0)
    assert np.array_equal(nn.serialize_params(frozen), nn.serialize_params(model))
    with pytest.raises(ValueError):
        nn.sgd_step(model, grads, -0.1)


def test_sgd_step_shape_mismatch():
    model = nn.init_model([3, 2], "sigmoid", seed=1)
    other = nn.gradient(
        nn.init_model([4, 2], "sigmoid", seed=1), *random_batch(np.random.default_rng(1), 4, 2)
    )
    with pytest.raises(ValueError):
        nn.sgd_step(model, other, 0.1)
    # 17 parameters each, so a check of the vector length alone would pass them
    model = nn.init_model((2, 3, 2), "sigmoid", seed=1)
    grads = nn.deserialize_gradients((3, 2, 3), np.zeros(17), 1)
    with pytest.raises(ValueError, match=r"gradient layers \(3, 2, 3\) do not match"):
        nn.sgd_step(model, grads, 0.1)


def test_evaluate_tie_breaks_to_lowest_class():
    model = zero_model([3, 4])
    features = np.random.default_rng(8).normal(size=(10, 3))
    all_zero = nn.evaluate(model, features, np.zeros(10, dtype=np.int64))
    assert all_zero.accuracy == 1.0  # uniform probabilities: argmax tie -> class 0
    uniform_labels = np.arange(400) % 4
    mixed = nn.evaluate(model, np.random.default_rng(9).normal(size=(400, 3)), uniform_labels)
    assert mixed.accuracy == 0.25
    assert mixed.mean_loss == pytest.approx(math.log(4), abs=1e-12)


def test_evaluate_rejects_empty():
    model = zero_model([3, 4])
    with pytest.raises(ValueError):
        nn.evaluate(model, np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


BAD_SAMPLES = {
    "label -1": (np.zeros((3, 3)), np.array([0, -1, 2])),
    "label == num_classes": (np.zeros((3, 3)), np.array([0, 4, 2])),
    "one label too many": (np.zeros((3, 3)), np.array([0, 1, 2, 3])),
    "zero rows": (np.zeros((0, 3)), np.zeros(0, dtype=np.int64)),
    "wrong feature width": (np.zeros((3, 2)), np.array([0, 1, 2])),
}


@pytest.mark.parametrize("entry", [nn.loss, nn.gradient, nn.evaluate], ids=lambda f: f.__name__)
@pytest.mark.parametrize("case", BAD_SAMPLES)
def test_entry_points_reject_bad_samples(entry, case):
    with pytest.raises(ValueError):
        entry(zero_model([3, 4]), *BAD_SAMPLES[case])


def test_serialization_round_trip_is_bitwise():
    model = nn.init_model([7, 5, 4, 3], "tanh", seed=13)
    vec = nn.serialize_params(model)
    back = nn.deserialize_params(model.layer_sizes, model.hidden_activation, vec)
    assert np.array_equal(nn.serialize_params(back), vec)
    for w1, w2 in zip(model.weights, back.weights):
        assert np.array_equal(w1, w2)
    rng = np.random.default_rng(13)
    grads = nn.gradient(model, rng.normal(size=(9, 7)), rng.integers(0, 3, size=9))
    flat = nn.serialize_gradients(grads)
    again = nn.deserialize_gradients(model.layer_sizes, flat, grads.sample_count)
    assert nn.serialize_gradients(again).tobytes() == flat.tobytes()
    assert again.sample_count == grads.sample_count == 9
    for g1, g2 in zip(grads.weights + grads.biases, again.weights + again.biases):
        assert g1.shape == g2.shape and g1.tobytes() == g2.tobytes()


def test_serialization_canonical_order():
    w0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b0 = np.array([5.0, 6.0])
    w1 = np.array([[7.0], [8.0]])
    b1 = np.array([9.0])
    expected = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0])
    model = nn.deserialize_params((2, 2, 1), "sigmoid", expected.copy())
    for layer, want in zip(model.weights + model.biases, (w0, w1, b0, b1)):
        assert np.array_equal(layer, want)
    assert np.array_equal(nn.serialize_params(model), expected)


def test_deserialize_rejects_wrong_length():
    with pytest.raises(ValueError):
        nn.deserialize_params([512, 32, 8], "sigmoid", np.zeros(16744))
    nn.deserialize_params([512, 32, 8], "sigmoid", np.zeros(16680))


def test_every_layer_is_a_view_into_its_vector():
    sizes = (7, 5, 4, 3)
    rng = np.random.default_rng(13)
    initial = nn.init_model(sizes, "tanh", seed=13)
    vec = nn.serialize_params(initial).copy()
    rebuilt = nn.deserialize_params(sizes, "tanh", vec)
    assert nn.serialize_params(rebuilt) is vec
    grads = nn.gradient(initial, rng.normal(size=(9, 7)), rng.integers(0, 3, size=9))
    for model in (initial, rebuilt, nn.sgd_step(initial, grads, 0.1)):
        flat = nn.serialize_params(model)
        assert all(np.shares_memory(arr, flat) for arr in model.weights + model.biases)
    for g in (grads, nn.deserialize_gradients(sizes, vec, 3)):
        flat = nn.serialize_gradients(g)
        assert all(np.shares_memory(arr, flat) for arr in g.weights + g.biases)


def built_by(source: str, sizes, activation: str, rng, features, labels) -> nn.MlpModel:
    """A model on a writable vector of its own, as `source` builds one."""
    if source == "init_model":
        return nn.init_model(sizes, activation, seed=5)
    model = nn.deserialize_params(
        sizes, activation, rng.normal(scale=0.3, size=nn.param_count(sizes))
    )
    if source == "sgd_step":
        return nn.sgd_step(model, nn.gradient(model, features, labels), 0.1)
    return model


@pytest.mark.parametrize("source", ["deserialize_params", "init_model", "sgd_step"])
@pytest.mark.parametrize("activation", nn.HIDDEN_ACTIVATIONS)
@pytest.mark.parametrize("sizes", [(7, 6, 5, 4), (512, 32, 8)])
def test_models_on_a_read_only_vector_match_models_on_copies(sizes, activation, source):
    rng = np.random.default_rng(5)
    features = rng.normal(size=(60, sizes[0]))
    labels = rng.integers(0, sizes[-1], size=60)
    copied = built_by(source, sizes, activation, rng, features, labels)
    vec = nn.serialize_params(copied).copy()
    vec.flags.writeable = False
    viewed = nn.deserialize_params(sizes, activation, vec)
    assert nn.forward(viewed, features).tobytes() == nn.forward(copied, features).tobytes()
    assert nn.evaluate(viewed, features, labels) == nn.evaluate(copied, features, labels)
    computed = nn.gradient(copied, features, labels)  # on the vector gradient allocated
    flat = nn.serialize_gradients(nn.gradient(viewed, features, labels))
    assert flat.tobytes() == nn.serialize_gradients(computed).tobytes()
    flat.flags.writeable = False
    grads = nn.deserialize_gradients(sizes, flat, 60)
    stepped = nn.serialize_params(nn.sgd_step(viewed, grads, 0.1))
    assert stepped.tobytes() == nn.serialize_params(nn.sgd_step(copied, computed, 0.1)).tobytes()


def test_weighted_mean_accumulates_in_ascending_id_order():
    rng = np.random.default_rng(7)
    vectors = [rng.normal(size=5) for _ in range(4)]
    counts = [3, 50, 1, 17]
    expected = np.zeros(5)
    for k in range(4):  # the contract: ascending id, weight count / total
        expected += (counts[k] / sum(counts)) * vectors[k]
    shuffled = [(k, vectors[k], counts[k]) for k in (2, 0, 3, 1)]
    assert nn.weighted_mean(shuffled).tobytes() == expected.tobytes()


def masked_sigmoid(z: np.ndarray) -> np.ndarray:
    """The gather/scatter sigmoid that nn._sigmoid replaced; its bitwise oracle."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_SPECIALS = (math.inf, -math.inf, 0.0, -0.0, math.nan, -math.nan,
                    710.5, -710.5, 745.2, -745.2, 1e308, -1e308, 5e-324, -5e-324)


@given(
    shape=st.sampled_from([(8, 8), (60, 32), (256, 256), (16000, 32)]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 40.0, 1000.0]),
    specials=st.lists(st.sampled_from(SIGMOID_SPECIALS) | st.floats(), max_size=64),
)
@settings(max_examples=40, deadline=None)
def test_sigmoid_is_bitwise_the_masked_formula(shape, seed, scale, specials):
    rng = np.random.default_rng(seed)
    z = rng.normal(scale=scale, size=shape)
    flat = z.reshape(-1)
    flat[rng.choice(flat.size, size=len(specials), replace=False)] = specials
    kept, expected = z.tobytes(), masked_sigmoid(z).tobytes()
    assert nn._sigmoid(z).tobytes() == expected
    assert z.tobytes() == kept  # without out=, the input is left as it was
    assert nn._sigmoid(z, out=z) is z and z.tobytes() == expected


def oracle_trace(model: nn.MlpModel, features: np.ndarray) -> list[np.ndarray]:
    """The out-of-place forward pass that nn's in-place layers replaced; their bitwise oracle."""
    activate = {"sigmoid": masked_sigmoid, "relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}
    acts = [features]
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w + b
        if l == last:
            shifted = z - z.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            acts.append(e / e.sum(axis=1, keepdims=True))
        else:
            acts.append(activate[model.hidden_activation](z))
    return acts


def oracle_flat(weights, biases) -> np.ndarray:
    """Per-layer arrays concatenated in the canonical order: W0 row-major, b0, W1, b1, ..."""
    return np.concatenate([part for w, b in zip(weights, biases) for part in (w.ravel(), b)])


def oracle_gradient(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Backprop with a fresh array per step, flattened in the canonical order."""
    activate_grad = {
        "sigmoid": lambda a: a * (1.0 - a),
        "relu": lambda a: (a > 0.0).astype(np.float64),
        "tanh": lambda a: 1.0 - a * a,
    }[model.hidden_activation]
    acts = oracle_trace(model, features)
    n = features.shape[0]
    delta = acts[-1].copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    grad_w, grad_b = [], []
    for l in range(len(model.weights) - 1, -1, -1):
        grad_w.insert(0, acts[l].T @ delta)
        grad_b.insert(0, delta.sum(axis=0))
        if l > 0:
            delta = (delta @ model.weights[l].T) * activate_grad(acts[l])
    return oracle_flat(grad_w, grad_b)


def snapshot(model: nn.MlpModel, features: np.ndarray, labels: np.ndarray) -> list[bytes]:
    return [arr.tobytes() for arr in (features, labels, *model.weights, *model.biases)]


@given(
    activation=st.sampled_from(nn.HIDDEN_ACTIVATIONS),
    layers=st.lists(st.integers(1, 256), min_size=2, max_size=4),
    rows=st.integers(1, 256),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0.1, 1.0, 40.0]),
    source=st.sampled_from(["deserialize_params", "init_model", "sgd_step"]),
)
@settings(max_examples=60, deadline=None)
def test_in_place_layers_are_bitwise_the_out_of_place_formulas(
    activation, layers, rows, seed, scale, source
):
    rng = np.random.default_rng(seed)
    features = rng.normal(scale=scale, size=(rows, layers[0]))
    labels = rng.integers(0, layers[-1], size=rows)
    if source == "init_model":
        model = nn.init_model(layers, activation, seed)
        limits = [np.sqrt(6.0 / (i + o)) for i, o in zip(layers, layers[1:])]
        draws = np.random.default_rng(seed)  # the draws init_model made before the flat vector
        glorot = [draws.uniform(-x, x, size=w.shape) for x, w in zip(limits, model.weights)]
        assert nn.serialize_params(model).tobytes() == oracle_flat(
            glorot, [np.zeros(o) for o in layers[1:]]).tobytes()
    else:
        model = nn.deserialize_params(
            layers, activation, rng.normal(scale=scale, size=nn.param_count(layers))
        )
    if source == "sgd_step":
        base = model
        model = nn.sgd_step(base, nn.gradient(base, features, labels), 0.5)
        expected = oracle_flat(base.weights, base.biases) - 0.5 * oracle_gradient(
            base, features, labels)
        assert nn.serialize_params(model).tobytes() == expected.tobytes()
    before = snapshot(model, features, labels)
    probs = oracle_trace(model, features)[-1]

    assert nn.forward(model, features).tobytes() == probs.tobytes()
    assert snapshot(model, features, labels) == before

    with np.errstate(divide="ignore"):  # a large scale can underflow a true-class probability
        result = nn.evaluate(model, features, labels)
        mean_loss = float(-np.mean(np.log(probs[np.arange(rows), labels])))
    assert result.accuracy == float(np.mean(np.argmax(probs, axis=1) == labels))
    assert result.mean_loss == mean_loss
    assert snapshot(model, features, labels) == before

    grads = nn.serialize_gradients(nn.gradient(model, features, labels))
    assert grads.tobytes() == oracle_gradient(model, features, labels).tobytes()
    assert snapshot(model, features, labels) == before


layer_sizes_strategy = st.lists(st.integers(1, 6), min_size=2, max_size=4)


@given(layers=layer_sizes_strategy, seed=st.integers(0, 2**31), data=st.data())
@settings(max_examples=60, deadline=None)
def test_softmax_rows_sum_to_one(layers, seed, data):
    model = nn.init_model(layers, "sigmoid", seed=seed)
    n = data.draw(st.integers(1, 5))
    features = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(-50, 50), min_size=layers[0], max_size=layers[0]),
                min_size=n,
                max_size=n,
            )
        )
    )
    probs = nn.forward(model, features)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs >= 0).all() and (probs <= 1).all()


def test_batch_invariant_where_no_matmul_has_a_sum():
    """A fan-in of 1 leaves every output one product: the same bits in any kernel."""
    groups = [np.array([3]), np.array([0, 4, 1]), np.array([2])]
    assert nn.batch_invariant((1, 5), 5, groups)


@given(n=st.integers(1, 60), parts=st.integers(1, 7), seed=st.integers(0, 2**31),
       activation=st.sampled_from(nn.HIDDEN_ACTIVATIONS),
       sizes=st.lists(st.integers(1, 40), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_forward_on_each_group_equals_those_rows_wherever_batch_invariant(
    n, parts, seed, activation, sizes
):
    """Where this BLAS sums a group's rows in another order than the full batch's
    (one-row groups, some fan-outs), batch_invariant must say so."""
    rng = np.random.default_rng(seed)
    groups = np.array_split(rng.permutation(n), min(parts, n))
    model = nn.init_model(sizes, activation, seed)
    features = rng.normal(size=(n, sizes[0]))
    whole = nn.forward(model, features)
    if nn.batch_invariant(tuple(sizes), n, groups):
        for rows in groups:
            assert nn.forward(model, features[rows]).tobytes() == whole[rows].tobytes()


@given(seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_gradient_matches_finite_differences_random_models(seed):
    rng = np.random.default_rng(seed)
    layers = [int(rng.integers(2, 7)) for _ in range(int(rng.integers(2, 4)))]
    activation = ("sigmoid", "relu", "tanh")[int(rng.integers(0, 3))]
    model = nn.init_model(layers, activation, seed=seed)
    batch = random_batch(rng, layers[0], layers[-1], n=int(rng.integers(1, 7)))
    analytic = nn.serialize_gradients(nn.gradient(model, *batch))
    numeric = numerical_gradient(model, *batch)
    assert max_relative_error(analytic, numeric) < 1e-5


def test_small_step_does_not_increase_loss_smoke():
    # statistical smoke property on unit-scale problems, not a theorem
    for seed in range(20):
        rng = np.random.default_rng(seed)
        model = nn.init_model([6, 5, 4], "sigmoid", seed=seed)
        batch = random_batch(rng, 6, 4, n=12)
        before = nn.loss(model, *batch)
        stepped = nn.sgd_step(model, nn.gradient(model, *batch), 1e-4)
        assert nn.loss(stepped, *batch) <= before + 1e-12
