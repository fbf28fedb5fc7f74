"""Dense feedforward classifier: softmax output, mean cross-entropy, exact backprop.

Everything here is a pure function of its inputs; models are immutable and
updates return new models. All math is float64. Every model and every gradient
holds one flat vector in the frozen wire order (layer 0 weights row-major,
layer 0 biases, layer 1 weights, ...), and its per-layer weights and biases
are views into it: serializing returns the vector, an SGD step is one vector
expression, and reordering the layout breaks every serialized model in flight.
Each layer allocates one array, its matmul output, and adds the bias and
applies the activation or the softmax in place on it; backprop likewise
overwrites only arrays it allocated, and `gradient` writes each layer's
gradient through the views of a vector it allocated. Nothing here writes to
the caller's features or labels, or to a vector it did not allocate, so a
model or gradient may sit on a read-only vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HIDDEN_ACTIVATIONS = ("sigmoid", "relu", "tanh")


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(min(z, 0)) / (1 + exp(-|z|)): exp never overflows, and no per-element select.

    Bit for bit 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below. `out` may be z.
    """
    # min(z, -z) is -|z|, but keeps the sign of a NaN z (np.minimum returns the first NaN).
    denom = np.negative(z)
    np.minimum(z, denom, out=denom)
    np.exp(denom, out=denom)
    denom += 1.0
    out = np.minimum(z, 0.0, out=out)
    np.exp(out, out=out)
    out /= denom
    return out


def _activate_in_place(name: str, z: np.ndarray) -> None:
    if name == "sigmoid":
        _sigmoid(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    elif name == "tanh":
        np.tanh(z, out=z)
    else:
        raise ValueError(f"unknown activation {name!r}; expected one of {HIDDEN_ACTIVATIONS}")


def _activate_grad_in_place(name: str, a: np.ndarray) -> np.ndarray:
    """f'(z) written over the activation a = f(z), which backprop no longer needs."""
    if name == "sigmoid":
        a *= 1.0 - a
    elif name == "relu":
        np.greater(a, 0.0, out=a)  # a > 0 exactly when z > 0; stored as 1.0 or 0.0
    elif name == "tanh":
        a *= a
        np.subtract(1.0, a, out=a)
    else:
        raise ValueError(f"unknown activation {name!r}")
    return a


def _softmax_rows_in_place(z: np.ndarray) -> None:
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)


@dataclass(frozen=True)
class MlpModel:
    """Layered dense network; the output layer always feeds a softmax."""

    layer_sizes: tuple[int, ...]
    hidden_activation: str
    vector: np.ndarray  # every parameter, in the wire order
    # views into vector, set by _unflatten; layer l: (layer_sizes[l], layer_sizes[l+1])
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)  # layer l: (layer_sizes[l+1],)

    def __post_init__(self) -> None:
        _unflatten(self)

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def param_count(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class Gradients:
    """A flat vector and per-layer views laid out exactly like the model's, plus the batch size.

    `gradient` also keeps its forward pass's class probabilities in `probs`, so
    `eval_terms` can score the model the gradient was taken at without a second
    forward pass; gradients rebuilt from the wire or summed have none.
    """

    layer_sizes: tuple[int, ...]
    vector: np.ndarray
    sample_count: int
    probs: np.ndarray | None = None
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _unflatten(self)


def param_count(layer_sizes: tuple[int, ...] | list[int]) -> int:
    return sum(
        fan_in * fan_out + fan_out for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:])
    )


def init_model(
    layer_sizes: list[int] | tuple[int, ...],
    hidden_activation: str = "sigmoid",
    seed: int = 0,
) -> MlpModel:
    """Glorot-uniform weights, zero biases; identical arguments give identical bits."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise ValueError("layer_sizes needs at least an input and an output layer")
    if any(s < 1 for s in sizes):
        raise ValueError("every layer size must be >= 1")
    if hidden_activation not in HIDDEN_ACTIVATIONS:
        raise ValueError(f"unknown activation {hidden_activation!r}")
    rng = np.random.default_rng(seed)
    model = MlpModel(sizes, hidden_activation, np.zeros(param_count(sizes)))
    for w in model.weights:
        limit = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-limit, limit, size=w.shape)
    return model


def check_output_layer(layer_sizes: tuple[int, ...], num_classes: int) -> None:
    """A classifier's output layer has one unit per class of the data it learns."""
    if layer_sizes[-1] != num_classes:
        raise ValueError(
            f"layers end in {layer_sizes[-1]} output units but the dataset has "
            f"{num_classes} classes"
        )


def _check_features(model: MlpModel, features: np.ndarray) -> None:
    if features.ndim != 2 or features.shape[1] != model.layer_sizes[0]:
        raise ValueError(
            f"features have shape {features.shape}; expected (n, {model.layer_sizes[0]})"
        )


def _layer(model: MlpModel, l: int, a: np.ndarray) -> np.ndarray:
    """Layer l's output for input a: the matmul allocates it, every later step writes into it."""
    z = a @ model.weights[l]
    z += model.biases[l]
    if l == len(model.weights) - 1:
        _softmax_rows_in_place(z)
    else:
        _activate_in_place(model.hidden_activation, z)
    return z


def _forward_trace(model: MlpModel, features: np.ndarray) -> list[np.ndarray]:
    """Forward pass keeping every layer's activations (the input first) for backprop."""
    acts = [np.asarray(features, dtype=np.float64)]
    for l in range(len(model.weights)):
        acts.append(_layer(model, l, acts[-1]))
    return acts


def forward(model: MlpModel, features: np.ndarray) -> np.ndarray:
    """Class probabilities, one row per sample; rows sum to 1."""
    _check_features(model, features)
    a = np.asarray(features, dtype=np.float64)
    for l in range(len(model.weights)):
        a = _layer(model, l, a)
    return a


# Random draws per layer shape in batch_invariant. With OpenBLAS 0.3.31, where a one-row
# batch's matrix-vector product sums in another order than the full batch's matmul, about
# half the draws showed it at 7 inputs and 2 outputs, the smallest such shape tried; 16 draws
# all miss it about once in 10^5 (0.46^16).
_INVARIANCE_DRAWS = 16


def batch_invariant(
    layer_sizes: tuple[int, ...], num_rows: int, groups: list[np.ndarray]
) -> bool:
    """Whether every layer's matmul gives each group of rows, as a batch of its own, the bits
    those rows get in one batch of `num_rows` rows.

    Then `forward` on each group equals those rows of `forward` on the whole batch, as the
    bias, activation and softmax act on each row alone. The BLAS may pick its kernel, and
    with it the order of a matmul's sums, by the shape of the batch (a one-row batch is a
    matrix-vector product) but not by the values, so random inputs of each layer's shape are
    compared: any one can round alike in two summation orders, 16 of them seldom all do.
    """
    rng = np.random.default_rng(0)
    for fan_in, fan_out in sorted(set(zip(layer_sizes[:-1], layer_sizes[1:]))):
        a = rng.random((num_rows, fan_in))
        a -= 0.5
        parts = [a[rows] for rows in groups]  # each a copy, as a worker's shard is
        for _ in range(_INVARIANCE_DRAWS):
            w = rng.random((fan_in, fan_out))
            w -= 0.5
            z = a @ w
            if not all(np.array_equal(p @ w, z[rows]) for p, rows in zip(parts, groups)):
                return False
    return True


def _check_samples(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> None:
    """Shapes and label range; finiteness is checked once, when a data.Dataset is built."""
    _check_features(model, features)
    if features.shape[0] < 1:
        raise ValueError("features must have at least one row")
    if labels.shape != (features.shape[0],):
        raise ValueError(f"labels have shape {labels.shape}; expected ({features.shape[0]},)")
    if labels.min() < 0 or labels.max() >= model.num_classes:
        raise ValueError(f"labels must lie in [0, {model.num_classes})")


def loss(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy: average over samples of -ln p(true class)."""
    return evaluate(model, features, labels).mean_loss


def gradient(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> Gradients:
    """Exact analytic gradient of `loss` with respect to every parameter."""
    _check_samples(model, features, labels)
    acts = _forward_trace(model, features)
    n = features.shape[0]
    probs = acts[-1]  # kept on the result for eval_terms, so delta is a new array
    delta = probs / n
    rows = np.arange(n)
    delta[rows, labels] = (probs[rows, labels] - 1.0) / n
    grads = Gradients(model.layer_sizes, np.empty(model.param_count), n, probs)
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[l].T, delta, out=grads.weights[l])
        np.add.reduce(delta, axis=0, out=grads.biases[l])  # what delta.sum(axis=0) runs
        if l > 0:
            delta = delta @ model.weights[l].T
            delta *= _activate_grad_in_place(model.hidden_activation, acts[l])
    return grads


def sgd_step(model: MlpModel, grads: Gradients, learning_rate: float) -> MlpModel:
    """params - lr * grads as a new model; lr = 0 is the identity, negative lr rejected."""
    if learning_rate < 0:
        raise ValueError("learning_rate must be >= 0")
    if grads.layer_sizes != model.layer_sizes:  # equal sizes imply equal vector lengths
        raise ValueError(
            f"gradient layers {grads.layer_sizes} do not match the model's {model.layer_sizes}"
        )
    vector = model.vector - learning_rate * grads.vector
    if not np.isfinite(vector).all():
        raise ValueError("sgd_step produced non-finite parameters")
    return MlpModel(model.layer_sizes, model.hidden_activation, vector)


def weighted_mean(contributions: list[tuple[int, np.ndarray, int]]) -> np.ndarray:
    """Sample-count-weighted mean of (id, flat_vector, sample_count), summed in ascending id order.

    The one weighted sum behind both dist-train gradients and FedAvg parameters.
    """
    if not contributions:
        raise ValueError("weighted_mean needs at least one contribution")
    length = contributions[0][1].shape[0]
    if any(vector.shape != (length,) for _, vector, _ in contributions):
        raise ValueError("all contributions must be vectors of equal length")
    total = sum(count for _, _, count in contributions)
    if total <= 0:
        raise ValueError("total sample count must be positive")
    combined = np.zeros(length)
    for _, vector, count in sorted(contributions, key=lambda c: c[0]):
        combined += (count / total) * vector
    return combined


@dataclass(frozen=True)
class EvalResult:
    accuracy: float
    mean_loss: float

    @classmethod
    def from_terms(cls, picked: np.ndarray, correct: int) -> EvalResult:
        """correct / n and the mean of -ln p(true class) over the n rows of `picked`.

        The one loss and accuracy formula. np.mean sums in a fixed pairwise order,
        so rows gathered from several batches must be in the order evaluate would see.
        """
        return cls(correct / picked.shape[0], float(-np.mean(np.log(picked))))


def eval_terms(probs: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Per-row p(true class), and how many rows the argmax classifies correctly.

    Ties go to the lowest class index, as np.argmax returns the first maximum.
    """
    picked = probs[np.arange(labels.shape[0]), labels]
    correct = int(np.count_nonzero(np.argmax(probs, axis=1) == labels))
    return picked, correct


def evaluate(model: MlpModel, features: np.ndarray, labels: np.ndarray) -> EvalResult:
    """Argmax accuracy and mean cross-entropy of the model on these samples."""
    _check_samples(model, features, labels)
    return EvalResult.from_terms(*eval_terms(forward(model, features), labels))


def _unflatten(holder: MlpModel | Gradients) -> None:
    """Check a model's or gradient's flat vector against its layer sizes, hold it as float64
    and set its per-layer weights and biases as views into it."""
    vec = np.asarray(holder.vector, dtype=np.float64)
    expected = param_count(holder.layer_sizes)
    if vec.ndim != 1 or vec.shape[0] != expected:
        raise ValueError(f"parameter vector has length {vec.size}; expected {expected}")
    weights = []
    biases = []
    offset = 0
    for fan_in, fan_out in zip(holder.layer_sizes[:-1], holder.layer_sizes[1:]):
        weights.append(vec[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(vec[offset : offset + fan_out])
        offset += fan_out
    object.__setattr__(holder, "vector", vec)
    object.__setattr__(holder, "weights", tuple(weights))
    object.__setattr__(holder, "biases", tuple(biases))


def serialize_params(model: MlpModel) -> np.ndarray:
    """The model's own flat vector, not a copy: W0 row-major, b0, W1, b1, ..."""
    return model.vector


def deserialize_params(
    layer_sizes: list[int] | tuple[int, ...],
    hidden_activation: str,
    vector: np.ndarray,
) -> MlpModel:
    """Rebuild a model from a canonical flat vector; exact inverse of serialize_params.

    The model holds `vector` itself (a float64 copy only if it is of another dtype), which
    must not change while the model is used.
    """
    return MlpModel(tuple(int(s) for s in layer_sizes), hidden_activation, vector)


def serialize_gradients(grads: Gradients) -> np.ndarray:
    """The gradients' own flat vector, not a copy, in the same order as serialize_params."""
    return grads.vector


def deserialize_gradients(
    layer_sizes: list[int] | tuple[int, ...],
    vector: np.ndarray,
    sample_count: int,
) -> Gradients:
    """Rebuild gradients from a canonical flat vector; exact inverse of serialize_gradients.

    The gradients hold `vector` itself, as deserialize_params' model does.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    return Gradients(tuple(int(s) for s in layer_sizes), vector, int(sample_count))
