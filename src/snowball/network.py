"""Dense feed-forward classifier with hand-assembled reverse-mode gradients.

Everything runs in double precision numpy. Parameters live in a flat value
container that supports element-wise arithmetic, which is what makes weight
averaging (and therefore the whole teacher/master machinery) a one-liner.
The forward pass exposes the activations entering the final linear layer as
the sample's feature vector; gradients are exact and are checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericsError

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_MAGIC = "SNOWBALL-CKPT v1"
EPS_LOG = 1e-12  # clamp inside every log() so cross-entropies stay finite
_DTYPE = np.dtype("<f8")  # little-endian float64, also the on-disk layout


@dataclass(frozen=True)
class ModelParams:
    """Parameters of a dense net, treated as an immutable value.

    ``weights[i]`` has shape ``(fan_in, fan_out)`` and ``biases[i]`` shape
    ``(fan_out,)``. Addition, subtraction and scalar multiplication act
    element-wise on every array, so expressions like
    ``0.99 * teacher + 0.01 * student`` build exponential moving averages
    directly on models.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        if not self.weights or len(self.weights) != len(self.biases):
            raise ConfigError("weights and biases must be non-empty and of equal length")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ConfigError(f"layer {i} has incompatible shapes {w.shape} / {b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ConfigError(f"layer {i - 1} output does not match layer {i} input")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[0],) + tuple(w.shape[1] for w in self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def class_count(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> ModelParams:
        return ModelParams(tuple(w.copy() for w in self.weights),
                           tuple(b.copy() for b in self.biases), self.activation)

    def _zip(self, other: ModelParams, op) -> ModelParams:
        if self.layer_dims != other.layer_dims:
            raise ConfigError(f"parameter shapes differ: {self.layer_dims} vs {other.layer_dims}")
        return ModelParams(tuple(op(a, b) for a, b in zip(self.weights, other.weights)),
                           tuple(op(a, b) for a, b in zip(self.biases, other.biases)),
                           self.activation)

    def __add__(self, other: ModelParams) -> ModelParams:
        return self._zip(other, np.add)

    def __sub__(self, other: ModelParams) -> ModelParams:
        return self._zip(other, np.subtract)

    def __mul__(self, scalar: float) -> ModelParams:
        s = float(scalar)
        return ModelParams(tuple(s * w for w in self.weights),
                           tuple(s * b for b in self.biases), self.activation)

    __rmul__ = __mul__

    def all_finite(self) -> bool:
        return all(np.all(np.isfinite(w)) for w in self.weights) and \
            all(np.all(np.isfinite(b)) for b in self.biases)

    def num_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


@dataclass(frozen=True)
class ForwardOutput:
    """Result of a single-sample forward pass."""

    features: np.ndarray  # activations entering the final linear layer
    logits: np.ndarray
    probs: np.ndarray


@dataclass(frozen=True)
class BatchForward:
    """Batched forward pass: rows are samples."""

    features: np.ndarray  # (n, feature_dim)
    logits: np.ndarray    # (n, classes)
    probs: np.ndarray     # (n, classes)


def init_params(layer_dims, activation: str = "relu", seed=0) -> ModelParams:
    """Build a network with uniform(-s, s) weights, s = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. ``seed`` may be an int, a SeedSequence or a
    Generator; the same seed always yields bit-identical parameters.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"layer_dims must list at least input and output sizes, got {dims}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return ModelParams(tuple(weights), tuple(biases), activation)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.sum(e, axis=-1, keepdims=True)


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    return np.tanh(z)


def _activation_grad(z: np.ndarray, a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return (z > 0.0).astype(z.dtype)
    return 1.0 - a * a


def _forward_trace(params: ModelParams, x: np.ndarray):
    """Run the forward pass keeping every intermediate needed for backprop.

    Returns (activations, pre_activations) where activations[0] is the input
    and activations[-1] the logits. Raises NumericsError on the first layer
    that produces a non-finite value.
    """
    a = x
    acts = [a]
    pres = []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = a @ w + b
        if not np.all(np.isfinite(z)):
            raise NumericsError(f"non-finite values in forward pass at layer {i}", layer=i)
        pres.append(z)
        a = z if i == last else _apply_activation(z, params.activation)
        acts.append(a)
    return acts, pres


def _as_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ConfigError(f"input of shape {x.shape} does not match network input dim {params.input_dim}")
    return x


def forward(params: ModelParams, x: np.ndarray) -> ForwardOutput:
    """Evaluate one sample: features, logits and softmax probabilities."""
    batch = forward_batch(params, _as_batch(params, x))
    return ForwardOutput(batch.features[0], batch.logits[0], batch.probs[0])


def forward_batch(params: ModelParams, x: np.ndarray) -> BatchForward:
    acts, _ = _forward_trace(params, _as_batch(params, x))
    logits = acts[-1]
    return BatchForward(acts[-2], logits, softmax(logits))


def predict_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Argmax class per sample; ties resolve to the lowest class index."""
    return np.argmax(forward_batch(params, x).logits, axis=1)


def error_rate(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction disagrees with y."""
    if len(np.asarray(y)) == 0:
        raise DataError("cannot compute an error rate on an empty set")
    return float(np.mean(predict_labels(params, x) != np.asarray(y)))


def batch_loss(params: ModelParams, x: np.ndarray, targets: np.ndarray,
               weights: np.ndarray | None = None) -> float:
    """Mean weighted cross-entropy of softmax outputs against target distributions.

    loss = (1/n) * sum_i w_i * CE(targets[i], softmax(f(x[i]))); the value
    function that `grad` differentiates.
    """
    probs = forward_batch(params, x).probs
    ce = -np.sum(targets * np.log(np.maximum(probs, EPS_LOG)), axis=1)
    if weights is not None:
        ce = ce * weights
    return float(np.mean(ce))


def grad_from_dlogits(params: ModelParams, x: np.ndarray, dlogits: np.ndarray) -> ModelParams:
    """Backpropagate a given gradient w.r.t. the logits down to every parameter.

    This is the workhorse the training losses share: each loss term reduces
    to a per-sample gradient at the logits, and the rest of the chain rule is
    identical. Returns a gradient with ModelParams shape.
    """
    x = _as_batch(params, x)
    acts, pres = _forward_trace(params, x)
    delta = np.asarray(dlogits, dtype=float)
    if delta.shape != acts[-1].shape:
        raise ConfigError(f"dlogits shape {delta.shape} does not match logits {acts[-1].shape}")
    gw: list[np.ndarray] = [None] * len(params.weights)  # type: ignore[list-item]
    gb: list[np.ndarray] = [None] * len(params.biases)  # type: ignore[list-item]
    for i in range(len(params.weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i].T) * \
                _activation_grad(pres[i - 1], acts[i], params.activation)
    return ModelParams(tuple(gw), tuple(gb), params.activation)


def grad(params: ModelParams, x: np.ndarray, targets: np.ndarray,
         weights: np.ndarray | None = None) -> ModelParams:
    """Gradient of `batch_loss` w.r.t. every parameter.

    ``targets`` holds one probability distribution per row (a one-hot row for
    hard labels, a guide model's softmax for consistency terms). dCE/dlogits
    for a fixed target distribution is (probs - target), which the mean and
    per-sample weights scale.
    """
    x = _as_batch(params, x)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (x.shape[0], params.class_count):
        raise ConfigError(f"targets of shape {targets.shape} do not match batch {x.shape[0]} x {params.class_count}")
    probs = forward_batch(params, x).probs
    dlogits = (probs - targets) / x.shape[0]
    if weights is not None:
        dlogits = dlogits * np.asarray(weights, dtype=float)[:, None]
    return grad_from_dlogits(params, x, dlogits)


@dataclass(frozen=True)
class MomentumState:
    """Classical momentum: v <- mu*v + g, p <- p - lr*v."""

    momentum: float
    velocity: ModelParams | None = None

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")


def sgd_step(params: ModelParams, gradient: ModelParams, lr: float,
             state: MomentumState, l2: float = 0.0) -> tuple[ModelParams, MomentumState]:
    """One momentum SGD update; returns the new parameters and state. l2 > 0
    adds l2 * w to each weight gradient (biases are not decayed)."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if params.layer_dims != gradient.layer_dims:
        raise ConfigError("gradient shape does not match parameters")
    if l2 > 0.0:
        gradient = ModelParams(
            tuple(g + l2 * w for g, w in zip(gradient.weights, params.weights)),
            gradient.biases, gradient.activation)
    velocity = gradient if state.velocity is None else state.momentum * state.velocity + gradient
    return params - lr * velocity, MomentumState(state.momentum, velocity)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact value equality of two parameter sets (shapes, activation, entries)."""
    return a.activation == b.activation and a.layer_dims == b.layer_dims and \
        all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights)) and \
        all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a checkpoint: magic line, layer dims, activation, then raw
    little-endian float64 parameter bytes in layer order (weights row-major,
    then bias, per layer). The round-trip is bit-exact.
    """
    buf = io.BytesIO()
    header = f"{CHECKPOINT_MAGIC}\n{' '.join(str(d) for d in params.layer_dims)}\n{params.activation}\n"
    buf.write(header.encode("ascii"))
    for w, b in zip(params.weights, params.biases):
        buf.write(np.ascontiguousarray(w, dtype=_DTYPE).tobytes())
        buf.write(np.ascontiguousarray(b, dtype=_DTYPE).tobytes())
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by `save_checkpoint`."""
    raw = Path(path).read_bytes()
    try:
        magic, dims_line, act_line, rest = raw.split(b"\n", 3)
    except ValueError:
        raise DataError(f"{path}: truncated checkpoint header") from None
    if magic.decode("ascii", errors="replace") != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: bad checkpoint magic {magic!r}")
    try:
        dims = tuple(int(tok) for tok in dims_line.split())
    except ValueError:
        raise DataError(f"{path}: malformed layer dims {dims_line!r}") from None
    activation = act_line.decode("ascii", errors="replace")
    if activation not in ACTIVATIONS:
        raise DataError(f"{path}: unknown activation {activation!r}")
    if len(dims) < 2:
        raise DataError(f"{path}: need at least two layer dims, got {dims}")
    expect = sum(fi * fo + fo for fi, fo in zip(dims[:-1], dims[1:]))
    flat = np.frombuffer(rest, dtype=_DTYPE)
    if flat.size != expect:
        raise DataError(f"{path}: expected {expect} parameters, found {flat.size}")
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(flat[at:at + fan_in * fan_out].reshape(fan_in, fan_out).copy())
        at += fan_in * fan_out
        biases.append(flat[at:at + fan_out].copy())
        at += fan_out
    return ModelParams(tuple(weights), tuple(biases), activation)
