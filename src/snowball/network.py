"""Dense feed-forward classifier with hand-assembled reverse-mode gradients.

Everything runs in double precision numpy. Parameters live in one flat
float64 buffer laid out exactly like a checkpoint's payload: for each layer
in order, its weights row-major, then its bias. `ModelParams` is a frozen
dataclass over that buffer, which it takes as given and checks against the
layer dims, and a checkpoint is the buffer's bytes behind a short header.
The training loops update weights in place, by `sgd_step` and
`training.ema_update` on the buffers of models they own; the value forms the
tests compare them with live in tests/reference.py.

The forward pass exposes the activations entering the final linear layer as
the sample's feature vector. One layer loop runs either one model's layer
views on a batch or a (k, P) stack's on k batches, keeping the trace
backpropagation reads for `forward_batch` and only features and logits for
`forward`. Class-axis reductions run column by column. softmax and the
backward pass write in place only into arrays they made themselves or that a
caller owns and hands them as output, never into the logits, trace or
dlogits a caller passed: `train_iteration` and `build_master` own a stack of
their models, a velocity that starts at zero and a gradient buffer, which
`_backward` and `sgd_step` update, and copy models out. `_backward` reduces a
bias gradient with ``einsum("ij->j")`` when the gradient at that layer is
C-contiguous and wider than one column: like ``sum(axis=0)`` it adds the rows
in order, but in one pass down the columns, not one inner loop per row. A
width-1 or non-C-contiguous gradient keeps ``sum(axis=0)``, which adds a
contiguous column pairwise, so the einsum would change its bits. Gradients
are exact and are checked against central finite differences in the test
suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, NumericsError, reading

ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_MAGIC = "SNOWBALL-CKPT v1"
EPS_LOG = 1e-12  # clamp inside every log() so cross-entropies stay finite
_DTYPE = np.dtype("<f8")  # little-endian float64, the on-disk layout


@functools.lru_cache(maxsize=64)
def _layout(dims: tuple[int, ...]) -> tuple[tuple[slice, slice, tuple[int, int]], ...]:
    """(weight slice, bias slice, weight shape) of each layer in the buffer."""
    if len(dims) < 2 or any(d <= 0 for d in dims):
        raise ConfigError(f"layer_dims must list at least two sizes, all positive, got {dims}")
    layers, at = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        w = slice(at, at + fan_in * fan_out)
        b = slice(w.stop, w.stop + fan_out)
        layers.append((w, b, (fan_in, fan_out)))
        at = b.stop
    return tuple(layers)


def _buffer_size(dims: tuple[int, ...]) -> int:
    return _layout(dims)[-1][1].stop


def _layer_views(buffers: np.ndarray, dims: tuple[int, ...]) -> tuple:
    """Each layer's (weights, bias) views of a buffer, or of a (k, P) stack with a model axis."""
    lead = buffers.shape[:-1]
    return tuple((buffers[..., ws].reshape(*lead, *shape), buffers[..., bs])
                 for ws, bs, shape in _layout(dims))


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Parameters of a dense net, treated as an immutable value.

    ``buffer`` is taken as given, not copied, and must be the float64 vector
    ``layer_dims`` needs; ``dataclasses.replace(model, buffer=...)`` is a
    model over another buffer. Equality and hashing are by identity: two
    models hold the same value when their ``buffer``, ``layer_dims`` and
    ``activation`` are equal. tests/reference.py builds models from per-layer
    arrays and reads each layer's weights and bias back.
    """

    buffer: np.ndarray
    layer_dims: tuple[int, ...]
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        # checked before the cached _layout hashes it: a list is unhashable
        if not (isinstance(self.layer_dims, tuple)
                and all(isinstance(d, (int, np.integer)) for d in self.layer_dims)):
            raise ConfigError(f"layer_dims must be a tuple of integers, got {self.layer_dims!r}")
        size = _buffer_size(self.layer_dims)
        if self.buffer.dtype != np.float64 or self.buffer.shape != (size,):
            raise ConfigError(f"layers {self.layer_dims} need {size} float64 parameters, "
                              f"got a {self.buffer.dtype} buffer of shape {self.buffer.shape}")

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def class_count(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> ModelParams:
        return replace(self, buffer=self.buffer.copy())

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.buffer).all())


@dataclass(frozen=True, eq=False)
class BatchForward:
    """A forward pass over a batch (rows are samples).

    ``activations`` ends with the logits. `forward_batch` keeps every layer's,
    from the input on: the trace that `grad_from_dlogits` backpropagates
    through; `forward` keeps features and logits. The softmax is only
    computed when ``probs`` is read. Equality and hashing are by identity.
    """

    activations: tuple[np.ndarray, ...]

    @property
    def features(self) -> np.ndarray:  # (n, feature_dim)
        return self.activations[-2]

    @property
    def logits(self) -> np.ndarray:    # (n, classes)
        return self.activations[-1]

    @functools.cached_property
    def probs(self) -> np.ndarray:     # (n, classes)
        return softmax(self.logits)


def init_params(layer_dims, activation: str = "relu", seed=0) -> ModelParams:
    """Build a network with uniform(-s, s) weights, s = sqrt(6/(fan_in+fan_out)).

    Biases start at zero. ``seed`` may be an int, a SeedSequence or a
    Generator; the same seed always yields bit-identical parameters.
    """
    dims = tuple(int(d) for d in layer_dims)
    params = ModelParams(np.zeros(_buffer_size(dims)), dims, activation)
    rng = np.random.default_rng(seed)
    for w, _ in _layer_views(params.buffer, dims):
        bound = np.sqrt(6.0 / sum(w.shape))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


# numpy sums a row of up to this many entries in sequence from +0.0, a longer one pairwise
_SEQUENTIAL_SUM_WIDTH = 7


def row_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1)`` bit for bit, one elementwise maximum per column: numpy
    reduces each row in its own inner loop, slow on a short class axis."""
    out = a[..., 0]
    for j in range(1, a.shape[-1]):
        out = np.maximum(out, a[..., j])
    return out


def row_sum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=-1)`` bit for bit, signed zeros too; by column up to _SEQUENTIAL_SUM_WIDTH."""
    if a.shape[-1] > _SEQUENTIAL_SUM_WIDTH:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis, in place on the shifted copy."""
    e = logits - row_max(logits)[..., None]
    np.exp(e, out=e)
    e /= row_sum(e)[..., None]
    return e


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of z, written over z."""
    return np.maximum(z, 0.0, out=z) if kind == "relu" else np.tanh(z, out=z)


def _activation_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # read off the output a; relu's bool mask a > 0 is z > 0 for every finite z
    return a > 0.0 if kind == "relu" else 1.0 - a * a


def _run_layers(layers, activation: str, xs: np.ndarray,
                keep_trace: bool) -> tuple[np.ndarray, ...]:
    """The one layer loop, over one model's `_layer_views` with inputs (n, d),
    or a (k, P) stack's with inputs (k, n, d). On a stack matmul runs one gemm
    per model on that model's own operands, so its floats are the single
    model's. Without keep_trace only the last two activations are kept.
    NumericsError at the first layer any model overflows."""
    acts = [xs]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b[..., None, :]  # in place: no pass keeps z once the activation is applied
        if not np.isfinite(z).all():
            raise NumericsError(f"non-finite values in forward pass at layer {i}")
        if not keep_trace:
            del acts[:-1]
        acts.append(z if i == last else _apply_activation(z, activation))
    return tuple(acts)


def _as_batch(params: ModelParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ConfigError(f"input of shape {x.shape} does not match network input dim {params.input_dim}")
    return x


def _run_one(params: ModelParams, x: np.ndarray, keep_trace: bool) -> BatchForward:
    return BatchForward(_run_layers(_layer_views(params.buffer, params.layer_dims),
                                    params.activation, _as_batch(params, x), keep_trace))


def forward(params: ModelParams, x: np.ndarray) -> BatchForward:
    """Features, logits and probs of a batch (or of one sample, as one row),
    without the trace: for callers that run no backward pass."""
    return _run_one(params, x, keep_trace=False)


def forward_batch(params: ModelParams, x: np.ndarray) -> BatchForward:
    """Forward pass keeping the trace `grad_from_dlogits` needs."""
    return _run_one(params, x, keep_trace=True)


def stack_params(models) -> np.ndarray:
    """A new (k, P) array whose rows are the buffers of k same-shape models."""
    if len({(m.layer_dims, m.activation) for m in models}) > 1:
        raise ConfigError("stacked models must share layer_dims and activation")
    return np.array([m.buffer for m in models])


def predict_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Argmax class per sample; ties resolve to the lowest class index."""
    return forward(params, x).logits.argmax(axis=1)


def class_labels(y, class_count: int) -> np.ndarray:
    """y as an int array; ConfigError naming a label that is not a class."""
    y = np.asarray(y, dtype=int)
    if np.any(outside := (y < 0) | (y >= class_count)):
        raise ConfigError(f"label {y[outside][0]} is not a class of a {class_count}-class net")
    return y


def error_rate(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction disagrees with y, which
    holds one class of the net per row of x (a ConfigError otherwise)."""
    y = class_labels(y, params.class_count)
    if y.size == 0:
        raise DataError("cannot compute an error rate on an empty set")
    predicted = predict_labels(params, x)
    if y.shape != predicted.shape:
        raise ConfigError(f"labels of shape {y.shape} for {len(predicted)} rows")
    wrong = predicted != y
    return float(wrong.sum() / wrong.size)  # np.mean's sum and division


def grad_from_dlogits(params: ModelParams, trace: BatchForward,
                      dlogits: np.ndarray) -> ModelParams:
    """Backpropagate a given gradient w.r.t. the logits down to every parameter.

    ``trace`` must be ``forward_batch(params, x)`` for the batch the gradient
    belongs to; it is reused, not recomputed. Returns a gradient with ModelParams shape.
    """
    acts = trace.activations
    if len(acts) != len(params.layer_dims):
        raise ConfigError("backpropagation needs the trace of forward_batch")
    delta = np.asarray(dlogits, dtype=float)
    if delta.shape != acts[-1].shape:
        raise ConfigError(f"dlogits shape {delta.shape} does not match logits {acts[-1].shape}")
    out = np.empty_like(params.buffer)
    weights = tuple(w for w, _ in _layer_views(params.buffer, params.layer_dims))
    _backward(weights, acts, delta, _layer_views(out, params.layer_dims), params.activation)
    return replace(params, buffer=out)


def _backward(weights, acts, delta: np.ndarray, grads, activation: str) -> None:
    """The one backward loop: delta, at the logits of the model with these layer
    weights, through its trace acts into the (weights, bias) gradient views grads."""
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads[i][0])
        # sum(axis=0) adds a C-contiguous delta row by row, and so does this einsum in
        # one pass; sum adds a lone or non-contiguous column pairwise, which it would not
        if delta.shape[1] > 1 and delta.flags.c_contiguous:
            np.einsum("ij->j", delta, out=grads[i][1])
        else:
            delta.sum(axis=0, out=grads[i][1])
        if i > 0:
            # in place on the fresh product only: delta starts as the caller's dlogits
            delta = delta @ weights[i].T
            delta *= _activation_grad(acts[i], activation)


def grad(params: ModelParams, x: np.ndarray, targets: np.ndarray) -> ModelParams:
    """Gradient w.r.t. every parameter of the mean cross-entropy of the
    softmax outputs on x against targets.

    ``targets`` holds one probability distribution per row (a one-hot row for
    hard labels, a guide model's softmax for consistency terms). dCE/dlogits
    for a fixed target distribution is (probs - target), which the mean
    scales.
    """
    x = _as_batch(params, x)
    targets = np.asarray(targets, dtype=float)
    if targets.shape != (x.shape[0], params.class_count):
        raise ConfigError(f"targets of shape {targets.shape} do not match batch {x.shape[0]} x {params.class_count}")
    out = forward_batch(params, x)
    dlogits = out.probs - targets
    dlogits /= x.shape[0]
    return grad_from_dlogits(params, out, dlogits)


def sgd_step(params: ModelParams, gradient: np.ndarray, velocity: np.ndarray, lr: float,
             momentum: float, l2: float = 0.0) -> None:
    """One classical momentum SGD update in place, v <- mu*v + g, p <- p - lr*v,
    of params.buffer and velocity from the gradient buffer g; velocity starts
    at zero, so the first step descends g. l2 > 0 adds l2 * w to each weight
    gradient (biases are not decayed)."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
    if gradient.shape != params.buffer.shape:
        raise ConfigError("gradient shape does not match parameters")
    if l2 > 0.0:
        gradient = gradient.copy()
        for ws, _, _ in _layout(params.layer_dims):
            gradient[ws] += l2 * params.buffer[ws]
    velocity *= momentum
    velocity += gradient
    np.subtract(params.buffer, lr * velocity, out=params.buffer)


def save_checkpoint(params: ModelParams, path) -> None:
    """Write a checkpoint: magic line, layer dims, activation, then the
    parameter buffer as raw little-endian float64 bytes (per layer, weights
    row-major, then bias). The round-trip is bit-exact.
    """
    header = f"{CHECKPOINT_MAGIC}\n{' '.join(str(d) for d in params.layer_dims)}\n{params.activation}\n"
    payload = params.buffer.astype(_DTYPE, copy=False).tobytes()
    Path(path).write_bytes(header.encode("ascii") + payload)


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by `save_checkpoint`."""
    with reading(path):
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
    try:  # the dims and activation are ModelParams' to check
        expect = _buffer_size(dims)
        if len(rest) == expect * _DTYPE.itemsize:
            # astype copies into an aligned, writable, native-order buffer
            return ModelParams(np.frombuffer(rest, dtype=_DTYPE).astype(np.float64), dims,
                               act_line.decode("ascii", errors="replace"))
    except ConfigError as e:
        raise DataError(f"{path}: {e}") from None
    raise DataError(f"{path}: expected {expect} parameters ({expect * _DTYPE.itemsize} bytes), "
                    f"found {len(rest)} bytes")
