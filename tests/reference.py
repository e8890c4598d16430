"""Value forms of the model operations, written in plain numpy for the tests.

The package keeps a model as one checked float64 buffer and updates it in
place (`network.sgd_step`, `training.ema_update`). This module builds models
from per-layer arrays, reads each layer's weights and bias back out of the
buffer, compares models by value, evaluates the mean cross-entropy that
`network.grad` differentiates and the central differences of a loss, and
computes the momentum SGD step and the EMA as new buffers, with the same
operations in the same order as the package, so their bytes are the
in-place updates' bytes. One step differs: the reference's first takes
v = g, where the package steps from a zero velocity, so a first velocity
may differ in the sign of a zero; no parameter that is not -0.0 does. The
buffer layout is written out here from its definition (per layer, weights
row-major, then bias) rather than read from the package.
"""

from dataclasses import replace

import numpy as np

from snowball.network import EPS_LOG, ModelParams, forward


def layers(params: ModelParams) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (weights, bias), as views into the model's buffer."""
    out, at = [], 0
    for fan_in, fan_out in zip(params.layer_dims[:-1], params.layer_dims[1:]):
        w = params.buffer[at:at + fan_in * fan_out].reshape(fan_in, fan_out)
        at += fan_in * fan_out
        out.append((w, params.buffer[at:at + fan_out]))
        at += fan_out
    return out


def weights(params: ModelParams) -> list[np.ndarray]:
    return [w for w, _ in layers(params)]


def biases(params: ModelParams) -> list[np.ndarray]:
    return [b for _, b in layers(params)]


def from_layers(weights, biases, activation: str = "relu") -> ModelParams:
    """A model holding a copy of the given layer arrays; ModelParams rejects
    arrays whose sizes do not fit the dims their weights give."""
    dims = (np.shape(weights[0])[0],) + tuple(np.shape(w)[1] for w in weights)
    buffer = np.concatenate([np.ravel(a) for w, b in zip(weights, biases) for a in (w, b)])
    return ModelParams(buffer.astype(np.float64), dims, activation)


def scaled(params: ModelParams, factor: float) -> ModelParams:
    """The model with every parameter multiplied by factor."""
    return replace(params, buffer=float(factor) * params.buffer)


def params_equal(a: ModelParams, b: ModelParams) -> bool:
    """Exact value equality of two models: dims, activation and every entry."""
    return (a.layer_dims, a.activation) == (b.layer_dims, b.activation) and \
        np.array_equal(a.buffer, b.buffer)


def mean_ce(targets: np.ndarray, log_probs: np.ndarray) -> float:
    """Mean over rows of -sum(targets * log_probs), by np.mean's reduction and division."""
    ce = -(targets * log_probs).sum(axis=-1)
    return float(ce.sum() / len(ce))


def batch_loss(params: ModelParams, x: np.ndarray, targets: np.ndarray) -> float:
    """Mean cross-entropy of the softmax outputs on x against target
    distributions, log clamped at EPS_LOG: the value `network.grad` differentiates."""
    return mean_ce(targets, np.log(np.maximum(forward(params, x).probs, EPS_LOG)))


def central_differences(loss, params: ModelParams, h: float = 1e-5) -> np.ndarray:
    """(loss(p + h e_j) - loss(p - h e_j)) / 2h for every entry j of the buffer."""
    out = np.zeros_like(params.buffer)
    for j in range(len(out)):
        up, down = params.copy(), params.copy()
        up.buffer[j] += h
        down.buffer[j] -= h
        out[j] = (loss(up) - loss(down)) / (2 * h)
    return out


def sgd_step(params: ModelParams, gradient: ModelParams, lr: float, momentum: float,
             velocity=None, l2: float = 0.0) -> tuple[ModelParams, np.ndarray]:
    """One momentum SGD step as new arrays: v = mu * v + g (v = g on the first
    step), p - lr * v, where g adds l2 * w to each layer's weight gradient."""
    g = gradient.buffer.copy()
    if l2 > 0.0:
        for gw, pw in zip(weights(replace(gradient, buffer=g)), weights(params)):
            gw += l2 * pw
    v = g if velocity is None else momentum * velocity + g
    return replace(params, buffer=params.buffer - lr * v), v


def ema(averaged: ModelParams, source: ModelParams, decay: float) -> ModelParams:
    """decay * averaged + (1 - decay) * source, as a new model."""
    return replace(averaged, buffer=decay * averaged.buffer + (1.0 - decay) * source.buffer)


def generation_final_errors(record) -> list[float]:
    """test_err of the last iteration of each generation of a RunRecord, in order."""
    last = {row.generation: row.test_err for row in record.rows}
    return [last[g] for g in sorted(last)]
