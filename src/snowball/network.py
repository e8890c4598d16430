"""Dense feed-forward classifier with hand-assembled reverse-mode gradients.

Everything runs in double precision numpy. Parameters live in one flat
float64 buffer laid out exactly like a checkpoint's payload: for each layer
in order, its weights row-major, then its bias. ``ModelParams.weights`` and
``.biases`` are views into that buffer, so element-wise arithmetic on models
is one array operation on the buffer, which is what makes weight averaging
(and therefore the whole teacher/master machinery) a one-liner, and a
checkpoint is the buffer's bytes behind a short header.
The forward pass exposes the activations entering the final linear layer as
the sample's feature vector. One layer loop runs a stack of same-shape models
(a single model is the stack of one), keeping the trace backpropagation reads
for `forward_batch` and `forward_many` and only features and logits for
`forward`. Class-axis reductions run column by column. softmax and the
backward pass write in place only into arrays they made themselves or that a
caller owns and hands them as output, never into the logits, trace or
dlogits a caller passed: `train_iteration` and `build_master` own a stack of
their models, a velocity and a gradient buffer, which `_backward` and
`sgd_step(out=...)` update, and copy models out. Gradients are exact and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
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


class ModelParams:
    """Parameters of a dense net, treated as an immutable value.

    ``weights[i]`` has shape ``(fan_in, fan_out)`` and ``biases[i]`` shape
    ``(fan_out,)``; both are views into ``buffer``. The constructor validates
    the shapes and copies the given arrays, so later changes to them do not
    reach the parameters. Addition, subtraction and scalar multiplication act
    element-wise on the buffer and return new parameters, so expressions like
    ``0.99 * teacher + 0.01 * student`` build exponential moving averages
    directly on models.
    """

    __slots__ = ("buffer", "layer_dims", "activation", "_given")

    def __init__(self, weights: tuple[np.ndarray, ...], biases: tuple[np.ndarray, ...],
                 activation: str = "relu"):
        # the given arrays wait in _given until __post_init__ copies them
        object.__setattr__(self, "_given", (tuple(weights), tuple(biases)))
        object.__setattr__(self, "activation", activation)
        self.__post_init__()

    def __post_init__(self):
        weights, biases = self._given
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}, expected one of {ACTIVATIONS}")
        if not weights or len(weights) != len(biases):
            raise ConfigError("weights and biases must be non-empty and of equal length")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.ndim != 1 or w.shape[1] != b.shape[0]:
                raise ConfigError(f"layer {i} has incompatible shapes {w.shape} / {b.shape}")
            if i > 0 and weights[i - 1].shape[1] != w.shape[0]:
                raise ConfigError(f"layer {i - 1} output does not match layer {i} input")
        dims = (weights[0].shape[0],) + tuple(w.shape[1] for w in weights)
        buffer = np.empty(_buffer_size(dims))
        for (ws, bs, _), w, b in zip(_layout(dims), weights, biases):
            buffer[ws] = w.ravel()
            buffer[bs] = b
        self._bind(buffer, dims, self.activation)

    def _bind(self, buffer: np.ndarray, dims: tuple[int, ...], activation: str) -> None:
        object.__setattr__(self, "buffer", buffer)
        object.__setattr__(self, "layer_dims", dims)
        object.__setattr__(self, "activation", activation)
        object.__setattr__(self, "_given", None)

    @classmethod
    def _wrap(cls, buffer: np.ndarray, dims: tuple[int, ...], activation: str) -> ModelParams:
        """Parameters over ``buffer`` as is, without validation: the caller
        guarantees a float64 vector of the size ``dims`` needs."""
        params = object.__new__(cls)
        params._bind(buffer, dims, activation)
        return params

    def _derive(self, buffer: np.ndarray) -> ModelParams:
        return ModelParams._wrap(buffer, self.layer_dims, self.activation)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelParams is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModelParams is immutable; cannot delete {name!r}")

    def __reduce__(self):  # pickle and copy.deepcopy
        return ModelParams._wrap, (self.buffer, self.layer_dims, self.activation)

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        return tuple(w for w, _ in _layer_views(self.buffer, self.layer_dims))

    @property
    def biases(self) -> tuple[np.ndarray, ...]:
        return tuple(b for _, b in _layer_views(self.buffer, self.layer_dims))

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def class_count(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> ModelParams:
        return self._derive(self.buffer.copy())

    def _other_buffer(self, other: ModelParams) -> np.ndarray:
        if self.layer_dims != other.layer_dims:
            raise ConfigError(f"parameter shapes differ: {self.layer_dims} vs {other.layer_dims}")
        return other.buffer

    def __add__(self, other: ModelParams) -> ModelParams:
        return self._derive(self.buffer + self._other_buffer(other))

    def __sub__(self, other: ModelParams) -> ModelParams:
        return self._derive(self.buffer - self._other_buffer(other))

    def __mul__(self, scalar: float) -> ModelParams:
        return self._derive(float(scalar) * self.buffer)

    __rmul__ = __mul__

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.buffer).all())


@dataclass(frozen=True)
class BatchForward:
    """A forward pass over a batch (rows are samples).

    ``activations`` ends with the logits. `forward_batch` keeps every layer's,
    from the input on: the trace that `grad_from_dlogits` backpropagates
    through; `forward` keeps features and logits; `forward_many`'s carry a
    leading model axis. The softmax is only computed when ``probs`` is read.
    """

    activations: tuple[np.ndarray, ...]

    @property
    def features(self) -> np.ndarray:  # ([k,] n, feature_dim)
        return self.activations[-2]

    @property
    def logits(self) -> np.ndarray:    # ([k,] n, classes)
        return self.activations[-1]

    @functools.cached_property
    def probs(self) -> np.ndarray:     # ([k,] n, classes)
        return softmax(self.logits)


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
    """The one layer loop, over the `_layer_views` of k same-shape models' (k, P)
    stack, inputs (k, n, d). matmul runs one gemm per model on that model's own
    operands, so its floats do not depend on the stack. Without keep_trace only
    the last two activations are kept. NumericsError at the first layer any model overflows."""
    acts = [xs]
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        z = acts[-1] @ w
        z += b[:, None]  # in place: no pass keeps z once the activation is applied
        if not np.isfinite(z).all():
            raise NumericsError(f"non-finite values in forward pass at layer {i}", layer=i)
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
    # the stack of one: buffer[None] and x[None] are views, so nothing is copied
    acts = _run_layers(_layer_views(params.buffer[None], params.layer_dims), params.activation,
                       _as_batch(params, x)[None], keep_trace)
    return BatchForward(tuple(a[0] for a in acts))


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


def forward_many(models, xs) -> BatchForward:
    """Traced passes of k same-shape models, model i on batch xs[i], in one
    layer loop. Every activation gains a leading model axis, and its [i] is
    model i's `forward_batch` trace, byte for byte."""
    first, buffers, xs = models[0], stack_params(models), np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[0] != len(models) or xs.shape[2] != first.input_dim:
        raise ConfigError(f"inputs of shape {xs.shape} do not match {len(models)} models")
    return BatchForward(_run_layers(_layer_views(buffers, first.layer_dims), first.activation,
                                    xs, keep_trace=True))


def predict_labels(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Argmax class per sample; ties resolve to the lowest class index."""
    return forward(params, x).logits.argmax(axis=1)


def error_rate(params: ModelParams, x: np.ndarray, y: np.ndarray) -> float:
    """Fraction of samples whose argmax prediction disagrees with y."""
    y = np.asarray(y)
    if len(y) == 0:
        raise DataError("cannot compute an error rate on an empty set")
    wrong = predict_labels(params, x) != y
    return float(wrong.sum() / wrong.size)  # np.mean's sum and division


def batch_loss(params: ModelParams, x: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of softmax outputs against target distributions.

    loss = (1/n) * sum_i CE(targets[i], softmax(f(x[i]))); the value
    function that `grad` differentiates.
    """
    return mean_ce(targets, np.log(np.maximum(forward(params, x).probs, EPS_LOG)))


def mean_ce(targets: np.ndarray, log_probs: np.ndarray) -> float:
    """Mean over rows of -sum(targets * log_probs), by np.mean's reduction and division."""
    ce = -row_sum(targets * log_probs)
    return float(ce.sum() / len(ce))


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
    _backward(params.weights, acts, delta, _layer_views(out, params.layer_dims), params.activation)
    return params._derive(out)


def _backward(weights, acts, delta: np.ndarray, grads, activation: str) -> None:
    """The one backward loop: delta, at the logits of the model with these layer
    weights, through its trace acts into the (weights, bias) gradient views grads."""
    for i in range(len(weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=grads[i][0])
        delta.sum(axis=0, out=grads[i][1])
        if i > 0:
            # in place on the fresh product only: delta starts as the caller's dlogits
            delta = delta @ weights[i].T
            delta *= _activation_grad(acts[i], activation)


def grad(params: ModelParams, x: np.ndarray, targets: np.ndarray) -> ModelParams:
    """Gradient of `batch_loss` w.r.t. every parameter.

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


def sgd_step(params: ModelParams, gradient: ModelParams, lr: float, momentum: float,
             velocity: np.ndarray | None = None, l2: float = 0.0,
             out: tuple[np.ndarray, np.ndarray] | None = None):
    """One classical momentum SGD update, v <- mu*v + g, p <- p - lr*v;
    returns the new parameters and velocity (None: the first step, v = g).
    l2 > 0 adds l2 * w to each weight gradient (biases are not decayed). out=(p, v)
    writes the same bytes into p and v, which may be params.buffer and velocity."""
    if lr <= 0.0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must lie in [0, 1), got {momentum}")
    if params.layer_dims != gradient.layer_dims:
        raise ConfigError("gradient shape does not match parameters")
    g = gradient.buffer
    if l2 > 0.0:
        g = g.copy()
        for ws, _, _ in _layout(params.layer_dims):
            g[ws] += l2 * params.buffer[ws]
    p, v = (np.empty_like(g), np.empty_like(g)) if out is None else out
    if velocity is None:
        np.copyto(v, g)  # a copy keeps g's -0.0, which 0 * mu + g would not
    else:
        np.multiply(momentum, velocity, out=v)
        v += g
    np.subtract(params.buffer, lr * v, out=p)
    return (params._derive(p), v) if out is None else out


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact value equality of two parameter sets (shapes, activation, entries)."""
    return a.activation == b.activation and a.layer_dims == b.layer_dims and \
        np.array_equal(a.buffer, b.buffer)


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
    activation = act_line.decode("ascii", errors="replace")
    if activation not in ACTIVATIONS:
        raise DataError(f"{path}: unknown activation {activation!r}")
    if len(dims) < 2:
        raise DataError(f"{path}: need at least two layer dims, got {dims}")
    if any(d <= 0 for d in dims):
        raise DataError(f"{path}: layer dims must be positive, got {dims}")
    expect = _buffer_size(dims)
    if len(rest) != expect * _DTYPE.itemsize:
        raise DataError(f"{path}: expected {expect} parameters ({expect * _DTYPE.itemsize} bytes), "
                        f"found {len(rest)} bytes")
    # astype copies into an aligned, writable, native-order buffer
    return ModelParams._wrap(np.frombuffer(rest, dtype=_DTYPE).astype(np.float64), dims, activation)
