"""The run configuration, losses, exponential moving averages and the inner
training loop.

The student is the only network touched by gradient descent. The teacher is
an exponential moving average of student snapshots, refreshed every step; a
master network (when present) contributes a second consistency target. The
student objective is

    total = lambda1 * classification + lambda2 * (teacher + master consistency)

where classification is averaged over the labelled rows of a minibatch only
and the consistency terms cover every row. `objective_terms` gives its terms
and `objective_dlogits` its gradient at the student's logits. lambda2 follows
a normalised sigmoid ramp so early, unreliable guidance carries little weight.
`train_iteration` returns one StepMetrics row per step; records.py defines it.
Its master is fixed and its terms are only written out, so the iteration runs
in windows of EVAL_EVERY steps: one master pass over a window's guide views,
one pass for its terms, in buffers of about EVAL_EVERY x batch rows x widest
layer floats, whatever the number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import network as net
from .data import augment
from .discovery import FUSIONS, STRATEGIES
from .errors import ConfigError, DivergenceError, NumericsError
from .network import ACTIVATIONS, EPS_LOG, ModelParams
from .records import StepMetrics

CONSISTENCY_KINDS = ("ce", "mse")
EVAL_EVERY = 25  # train_iteration measures error rates every EVAL_EVERY-th step


def ema_update(averaged: ModelParams, source: ModelParams, decay: float, out=None):
    """decay * averaged + (1 - decay) * source, on the buffers; out, which may be
    averaged.buffer, gets the same bytes and is returned."""
    source_buffer = averaged._other_buffer(source)
    buffer = np.multiply(decay, averaged.buffer, out=out)
    buffer += (1.0 - decay) * source_buffer
    return averaged._derive(buffer) if out is None else out


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    """The one-hot rows of labels y; ConfigError naming a label that is not a class."""
    y = np.asarray(y, dtype=int)
    if np.any(outside := (y < 0) | (y >= class_count)):
        raise ConfigError(f"label {y[outside][0]} is not a class of a {class_count}-class net")
    return np.eye(class_count)[y]


# np.mean's sum and division over the last axis, each step's bits in a window; no rows, 0.0
def _mean(rows: np.ndarray) -> np.ndarray:
    return rows.sum(axis=-1) / max(rows.shape[-1], 1)


def _ce_rows(targets: np.ndarray, log_probs: np.ndarray) -> np.ndarray:
    return -net.row_sum(targets * log_probs)


def _mse_rows(targets: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return net.row_sum((probs - targets) ** 2) / probs.shape[-1]


def _mse_dlogits(p_s: np.ndarray, p_g: np.ndarray) -> np.ndarray:
    # d/dz of (1/C)*||softmax(z) - p_g||^2 through the softmax Jacobian
    d = 2.0 * (p_s - p_g) / p_s.shape[-1]
    return p_s * (d - net.row_sum(d * p_s)[..., None])


def _check_kind(kind: str) -> None:
    if kind not in CONSISTENCY_KINDS:
        raise ConfigError(f"unknown consistency kind {kind!r}")


def objective_terms(probs: np.ndarray, targets: np.ndarray, lambda1: float, lambda2,
                    kind: str, master_weight: float) -> tuple[np.ndarray, ...]:
    """The classification, teacher and master consistency terms of the student
    objective and their weighted total, from the stacked softmax rows of the
    student on its view and the teacher and master (if any) on the guides'.
    The labelled rows come first and alone enter classification, against
    their one-hot targets. A leading step axis on all, lambda2 too, gives each
    step's own bits."""
    _check_kind(kind)
    p_s, p_t, *p_m = np.moveaxis(probs, -3, 0)  # p_m: [the master's rows] or []
    log_p_s = np.log(np.maximum(p_s, EPS_LOG))
    loss, student_side = (_ce_rows, log_p_s) if kind == "ce" else (_mse_rows, p_s)
    j_class = _mean(_ce_rows(targets, log_p_s[..., :targets.shape[-2], :]))
    j_teacher = _mean(loss(p_t, student_side))
    j_master = (master_weight * _mean(loss(p_m[0], student_side)) if p_m
                else np.zeros_like(j_teacher))
    return j_class, j_teacher, j_master, lambda1 * j_class + lambda2 * (j_teacher + j_master)


def objective_dlogits(probs: np.ndarray, targets: np.ndarray, lambda1: float, lambda2: float,
                      kind: str, master_weight: float) -> np.ndarray:
    """The gradient of one step's `objective_terms` total at the student's
    logits; the guides are constants to it. All terms share those logits, so
    one backpropagation carries the whole objective to the parameters."""
    _check_kind(kind)
    p_s, p_t, *p_m = probs
    n, n_lab = len(p_s), len(targets)
    # for cross-entropy against a fixed target the per-row gradient is p_s - p_g
    dloss = {"ce": np.subtract, "mse": _mse_dlogits}[kind]
    dlogits = np.zeros(p_s.shape)
    dlogits[:n_lab] += lambda1 * (p_s[:n_lab] - targets) / n_lab
    dlogits += lambda2 * dloss(p_s, p_t) / n
    if p_m:
        dlogits += lambda2 * master_weight * dloss(p_s, p_m[0]) / n
    return dlogits


def lambda2_schedule(step: int, ramp_len: int, lambda2_max: float) -> float:
    """Sigmoid ramp exp(-5*(1-tau)^2), rescaled to hit 0 at step 0 and
    lambda2_max at step >= ramp_len exactly."""
    tau = 1.0 if ramp_len <= 0 else min(1.0, step / ramp_len)
    floor = np.exp(-5.0)
    return lambda2_max * float((np.exp(-5.0 * (1.0 - tau) ** 2) - floor) / (1.0 - floor))


def require_finite(config) -> None:
    """ConfigError naming the first float field of a config that is nan or infinite."""
    for key, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"config key {key!r} must be finite, got {value}")


def require_int64(config) -> None:
    """ConfigError naming the first integer field of a config, or integer entry
    of a tuple field, that does not fit a signed 64-bit integer: numpy sizes
    arrays and counts by them."""
    limits = np.iinfo(np.int64)
    for key, value in vars(config).items():
        for entry in value if isinstance(value, tuple) else (value,):
            if isinstance(entry, int) and not limits.min <= entry <= limits.max:
                raise ConfigError(f"config key {key!r} must fit a signed 64-bit integer, "
                                  f"got {entry}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved hyperparameters of a full run, training iterations included.

    Construction raises ConfigError on an invalid field, so every instance
    (dataclasses.replace results too) is valid. discovery_schedule lists how
    many samples to discover at iteration k of every generation; empty means
    "double the cumulative labelled count each iteration" resolved against
    the actual labelled-set size. master_refine_steps < 0 resolves to
    steps // 4.
    """

    generations: int = 3
    iterations: int = 3
    discovery_schedule: tuple[int, ...] = ()
    steps: int = 300
    labeled_batch: int = 8
    unlabeled_batch: int = 56
    learning_rate: float = 0.05
    momentum: float = 0.9
    l2: float = 0.0
    alpha: float = 0.99          # teacher EMA decay
    beta: float = 0.99           # master EMA decay
    lambda1: float = 1.0
    lambda2_max: float = 1.0
    ramp_len: int = 150
    sigma_aug: float = 0.1
    consistency: str = "ce"
    master_weight: float = 1.0
    master_extra_fraction: float = 0.5
    master_refine_steps: int = -1
    hidden_dims: tuple[int, ...] = (32, 32)
    activation: str = "relu"
    strategy: str = "min"
    fusion: str = "single"
    balance_classes: bool = False
    use_true_labels: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        require_finite(self)
        require_int64(self)
        if self.generations < 1 or self.iterations < 1:
            raise ConfigError("generations and iterations must be >= 1")
        if self.discovery_schedule:
            if len(self.discovery_schedule) < self.iterations:
                raise ConfigError(
                    f"discovery_schedule has {len(self.discovery_schedule)} entries "
                    f"but {self.iterations} iterations are configured")
            if any(n < 0 for n in self.discovery_schedule):
                raise ConfigError("discovery_schedule entries must be >= 0")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.labeled_batch < 1:
            raise ConfigError(f"labeled_batch must be >= 1, got {self.labeled_batch}")
        if self.unlabeled_batch < 0:
            raise ConfigError(f"unlabeled_batch must be >= 0, got {self.unlabeled_batch}")
        if self.learning_rate <= 0.0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if self.l2 < 0.0:
            raise ConfigError(f"l2 must be non-negative, got {self.l2}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must lie in [0, 1], got {self.alpha}")
        if not 0.0 <= self.beta <= 1.0:
            raise ConfigError(f"beta must lie in [0, 1], got {self.beta}")
        if self.lambda1 < 0.0 or self.lambda2_max < 0.0:
            raise ConfigError("loss weights must be non-negative")
        if self.ramp_len < 0:
            raise ConfigError(f"ramp_len must be >= 0, got {self.ramp_len}")
        if self.sigma_aug < 0.0:
            raise ConfigError(f"sigma_aug must be non-negative, got {self.sigma_aug}")
        _check_kind(self.consistency)
        if self.master_weight < 0.0:
            raise ConfigError(f"master_weight must be non-negative, got {self.master_weight}")
        if self.master_extra_fraction < 0.0:
            raise ConfigError(f"master_extra_fraction must be >= 0, got {self.master_extra_fraction}")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden layer widths must be >= 1, got {self.hidden_dims}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown selection strategy {self.strategy!r}")
        if self.fusion not in FUSIONS:
            raise ConfigError(f"unknown fusion {self.fusion!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def resolved_schedule(self, labeled_size: int) -> tuple[int, ...]:
        if self.discovery_schedule:
            return tuple(self.discovery_schedule[: self.iterations])
        return tuple(labeled_size * 2 ** k for k in range(self.iterations))

    def resolved_refine_steps(self) -> int:
        return self.master_refine_steps if self.master_refine_steps >= 0 else self.steps // 4


def train_iteration(student_init: ModelParams, train_x: np.ndarray, train_y: np.ndarray,
                    pool_x: np.ndarray, master: ModelParams | None, cfg: ExperimentConfig,
                    rng: np.random.Generator, *, eval_x: np.ndarray | None = None,
                    eval_y: np.ndarray | None = None
                    ) -> tuple[ModelParams, ModelParams, list[StepMetrics]]:
    """Run one training iteration and return (student, teacher, step metrics).

    Each step samples a minibatch with replacement: labeled_batch rows from
    the labelled set, first, then unlabeled_batch rows from the pool (none
    when the pool is empty). Per step the rng is consumed in a fixed order -
    one index draw (labelled rows, then pool rows), then student noise, then
    guide noise - so runs are exactly reproducible from the seed. The teacher
    EMA starts at student_init and absorbs the student after every step; with
    steps=0 both are copies of student_init. Only the training fields of cfg
    are read; cfg was checked when it was built. A training label that is not
    a class of the net, a label count other than the training set's row count,
    and a training set or pool whose width is not the net's input are
    ConfigErrors before any step, as are an eval_x or eval_y without the other
    and an eval set with more or fewer labels than rows. Steps write in place
    only into buffers the iteration owns: a (k, P) stack of the student,
    teacher and master (a master of another shape is a ConfigError), velocity,
    gradient and the window buffers; the student and teacher leave as copies.

    Steps run in windows that end at each evaluated step: a window draws its
    minibatches and runs the master over all its guide views first, and its
    terms in one pass last. Its buffers hold about EVAL_EVERY x batch rows x
    widest layer floats, never more as steps grow.

    train_err is the student's error on the labelled set, test_err its error
    on the eval set (nan when no eval set is given), both measured after the
    step's update on every EVAL_EVERY-th step (steps EVAL_EVERY - 1,
    2 * EVAL_EVERY - 1, ...) and on the last step; on the other steps both
    are None. Evaluation reads no randomness, so the cadence leaves the
    parameters and loss columns unchanged.

    Divergence raises DivergenceError at the first failing step, as one step
    at a time: a non-finite loss or parameters after step t's update, or an
    error-rate forward pass that overflows on an evaluated step t, name step
    t. A forward pass that overflows inside step t's objective names the
    update that made its weights, max(t - 1, 0): the student's and teacher's
    pass, or the master's, which runs over the window's guide views first
    and, if that overflows, on each step's own view.
    """
    train_x, pool_x = np.asarray(train_x, dtype=float), np.asarray(pool_x, dtype=float)
    train_y = np.asarray(train_y, dtype=int)
    if len(train_x) == 0:
        raise ConfigError("training set is empty")
    if len(train_y) != len(train_x):
        raise ConfigError(f"{len(train_y)} training labels for {len(train_x)} training rows")
    if (eval_x is None) != (eval_y is None):
        raise ConfigError("eval_x and eval_y must be given together")
    if eval_x is not None and len(eval_y) != len(eval_x):
        raise ConfigError(f"{len(eval_y)} eval labels for {len(eval_x)} eval rows")
    n_pool = len(pool_x)
    dims, activation = student_init.layer_dims, student_init.activation
    for name, x in (("training set", train_x), ("pool", pool_x)):
        if x.shape[1:] != dims[:1]:
            raise ConfigError(f"{name} of shape {x.shape} does not match {dims[0]} inputs")
    labels = one_hot(train_y, dims[-1])

    state = net.stack_params((student_init, student_init) + (() if master is None else (master,)))
    # one stacked pass of the student and teacher per step; the master's
    # layers keep a model axis of one, which broadcasts over a window's views
    layers, master_layers = net._layer_views(state[:2], dims), net._layer_views(state[2:], dims)
    student_weights = tuple(w[0] for w, _ in layers)
    gradient, velocity = np.empty(state.shape[1]), np.empty(state.shape[1])
    gradient_layers = net._layer_views(gradient, dims)
    # models over the owned buffers for the update and evaluation calls; they change in place
    student, teacher, gradient_params = (ModelParams(buffer, dims, activation)
                                         for buffer in (state[0], state[1], gradient))
    n_lab, n = cfg.labeled_batch, cfg.labeled_batch + (cfg.unlabeled_batch if n_pool else 0)
    # a step draws its rows of the labelled set and pool stacked, labelled in [0, T) and pool
    # in [T, T + P), on per-row bounds: numpy gives the values and end state of a draw of
    # labelled indices and then one of pool indices, both per element
    source, n_train = np.concatenate([train_x, pool_x]), len(train_x)
    lows = np.repeat([0, n_train], [n_lab, n - n_lab])
    highs = np.repeat([n_train, n_train + n_pool], [n_lab, n - n_lab])
    window = min(EVAL_EVERY, cfg.steps)
    # per step of a window: student and guide views, labelled targets, stacked softmax rows
    views, targets = np.empty((window, 2, n, dims[0])), np.empty((window, n_lab, dims[-1]))
    probs = np.empty((window, len(state), n, dims[-1]))
    metrics: list[StepMetrics] = []

    for start in range(0, cfg.steps, EVAL_EVERY):
        steps = range(start, min(start + EVAL_EVERY, cfg.steps))
        lam2 = [lambda2_schedule(step, cfg.ramp_len, cfg.lambda2_max) for step in steps]
        for i in range(len(steps)):
            rows = rng.integers(lows, highs)
            bx = source.take(rows, axis=0)
            views[i, 0] = augment(bx, cfg.sigma_aug, rng)
            views[i, 1] = augment(bx, cfg.sigma_aug, rng)
            labels.take(rows[:n_lab], axis=0, out=targets[i])
        per_view = False  # set when the master's pass over the whole window overflows
        try:
            if master is not None:
                _guidance(master_layers, activation, views[:len(steps), 1], probs[:len(steps), 2])
        except NumericsError:
            per_view = True

        def terms(ran: int) -> tuple[np.ndarray, ...]:  # of the window's first ran steps
            return objective_terms(probs[:ran], targets[:ran], cfg.lambda1, np.array(lam2[:ran]),
                                   cfg.consistency, cfg.master_weight)

        def diverged(step: int, ran: int) -> DivergenceError:
            # one step at a time, a total that is not finite stops the run first
            bad = np.flatnonzero(~np.isfinite(terms(ran)[3]))
            step = start + int(bad[0]) if len(bad) else step
            return DivergenceError(f"training diverged at step {step}", step=step)

        for i, step in enumerate(steps):
            # finite weights can still overflow; divergence of the update that made them
            try:
                if per_view:
                    _guidance(master_layers, activation, views[i:i + 1, 1], probs[i:i + 1, 2])
                acts = net._run_layers(layers, activation, views[i], keep_trace=True)
            except NumericsError:
                raise diverged(max(step - 1, 0), i) from None
            probs[i, :2] = net.softmax(acts[-1])
            dlogits = objective_dlogits(probs[i], targets[i], cfg.lambda1, lam2[i],
                                        cfg.consistency, cfg.master_weight)
            net._backward(student_weights, tuple(a[0] for a in acts), dlogits,
                          gradient_layers, activation)
            net.sgd_step(student, gradient_params, cfg.learning_rate, cfg.momentum,
                         velocity if step else None, l2=cfg.l2, out=(state[0], velocity))
            if not student.all_finite():
                raise diverged(step, i + 1)
            ema_update(teacher, student, cfg.alpha, out=state[1])

        values = [a.tolist() for a in terms(len(steps))]
        if not all(map(math.isfinite, values[3])):
            raise diverged(steps[-1], len(steps))
        try:
            train_err = net.error_rate(student, train_x, train_y)
            test_err = (net.error_rate(student, eval_x, eval_y)
                        if eval_x is not None else float("nan"))
        except NumericsError:
            raise diverged(steps[-1], len(steps)) from None
        metrics += [StepMetrics(*row, None, None) for row in zip(steps, *values, lam2)]
        metrics[-1] = metrics[-1]._replace(train_err=train_err, test_err=test_err)
    return student.copy(), teacher.copy(), metrics


def _guidance(layers, activation: str, views: np.ndarray, out: np.ndarray) -> None:
    """Write the master's softmax rows on guide views into out, in one pass."""
    out[...] = net.softmax(net._run_layers(layers, activation, views, keep_trace=False)[-1])
