"""The run configuration, losses, exponential moving averages and the inner
training loop.

The student is the only network touched by gradient descent. The teacher is
an exponential moving average of student snapshots, refreshed every step; a
master network (when present) contributes a second consistency target. The
student objective is

    total = lambda1 * classification + lambda2 * (teacher + master consistency)

where classification is averaged over the labelled rows of a minibatch only
and the consistency terms cover every row. `student_loss` is its one
implementation: it takes the stacked pass of the student and its guides over
a minibatch whose labelled rows come first, and returns the per-term values
with the gradient at the student's logits. lambda2 follows a normalised
sigmoid ramp so early, unreliable guidance carries little weight.
`train_iteration` returns one StepMetrics row per step; records.py defines it.
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


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the student objective for one batch."""

    classification: float
    consistency_teacher: float
    consistency_master: float
    total: float


def ema_update(averaged: ModelParams, source: ModelParams, decay: float, out=None):
    """decay * averaged + (1 - decay) * source, on the buffers; out, which may be
    averaged.buffer, gets the same bytes and is returned."""
    source_buffer = averaged._other_buffer(source)
    buffer = np.multiply(decay, averaged.buffer, out=out)
    buffer += (1.0 - decay) * source_buffer
    return averaged._derive(buffer) if out is None else out


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    return np.eye(class_count)[np.asarray(y, dtype=int)]


# a row mean is x.sum() / len(x), as in net.mean_ce
def _mean_mse(targets: np.ndarray, probs: np.ndarray) -> float:
    se = net.row_sum((probs - targets) ** 2) / probs.shape[-1]
    return float(se.sum() / len(se))


def student_loss(out: net.BatchForward, targets: np.ndarray, lambda1: float, lambda2: float,
                 kind: str, master_weight: float) -> tuple[LossBreakdown, np.ndarray]:
    """The student objective over one minibatch and its gradient at the student's logits.

    out is the stacked pass (`forward_many`) of the student on its view, then
    the teacher and master (if any) on the guide view, with one softmax. The
    labelled rows come first, targets holds their one-hot rows, and they alone
    enter the classification term; every row enters the consistency terms.
    All terms share the student's logits, so one backpropagation of the
    returned sum carries the gradient to the parameters, and every
    cross-entropy term reads one log of the student's probabilities. Guides
    are constants to the gradient.
    """
    if kind not in CONSISTENCY_KINDS:
        raise ConfigError(f"unknown consistency kind {kind!r}")
    p_s, p_t = out.probs[0], out.probs[1]
    p_m = out.probs[2] if len(out.probs) > 2 else None
    n, n_lab = len(p_s), len(targets)
    log_p_s = np.log(np.maximum(p_s, EPS_LOG))

    if n_lab:
        j_class = net.mean_ce(targets, log_p_s[:n_lab])
    else:
        j_class = 0.0
    # each kind's mean loss, what it reads of the student, and its per-row
    # gradient at the student's logits (for cross-entropy against a fixed
    # target that is p_s - p_g)
    loss, student_side, dloss = ((net.mean_ce, log_p_s, np.subtract) if kind == "ce"
                                 else (_mean_mse, p_s, _mse_dlogits))
    j_teacher = loss(p_t, student_side)
    j_master = master_weight * loss(p_m, student_side) if p_m is not None else 0.0
    total = lambda1 * j_class + lambda2 * (j_teacher + j_master)

    dlogits = np.zeros_like(p_s)
    if n_lab:
        dlogits[:n_lab] += lambda1 * (p_s[:n_lab] - targets) / n_lab
    dlogits += lambda2 * dloss(p_s, p_t) / n
    if p_m is not None:
        dlogits += lambda2 * master_weight * dloss(p_s, p_m) / n
    return LossBreakdown(j_class, j_teacher, j_master, total), dlogits


def _mse_dlogits(p_s: np.ndarray, p_g: np.ndarray) -> np.ndarray:
    # d/dz of (1/C)*||softmax(z) - p_g||^2 through the softmax Jacobian
    d = 2.0 * (p_s - p_g) / p_s.shape[-1]
    return p_s * (d - net.row_sum(d * p_s)[..., None])


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
        if self.consistency not in CONSISTENCY_KINDS:
            raise ConfigError(f"unknown consistency kind {self.consistency!r}")
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
    labelled indices, pool indices, student noise, guide noise - so runs are
    exactly reproducible from the seed. The teacher EMA starts at student_init and
    absorbs the student after every step; with steps=0 both are copies of
    student_init. Only the training fields of cfg are read; cfg was checked
    when it was built. Steps write in place only into buffers the iteration
    owns: a (k, P) stack of the student, teacher and master (a master of
    another shape is a ConfigError), velocity, gradient and the (k, n, d)
    input; the student and teacher leave as copies.

    train_err is the student's error on the labelled set, test_err its error
    on the eval set (nan when no eval set is given), both measured after the
    step's update on every EVAL_EVERY-th step (steps EVAL_EVERY - 1,
    2 * EVAL_EVERY - 1, ...) and on the last step; on the other steps both
    are None. Evaluation reads no randomness, so the cadence leaves the
    parameters and loss columns unchanged.

    Divergence raises DivergenceError carrying the step index: a non-finite
    loss or parameters after step t's update, or an error-rate forward pass
    that overflows on an evaluated step t, name step t. A forward pass that
    overflows inside step t's objective (student, teacher or master) names
    the update that produced those parameters, step max(t - 1, 0).
    """
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=int)
    if len(train_x) == 0:
        raise ConfigError("training set is empty")
    if np.any(train_y < 0):
        raise ConfigError("training set rows must all carry labels")
    n_pool = len(pool_x)
    dims, activation = student_init.layer_dims, student_init.activation
    if train_x.shape[1:] != dims[:1]:
        raise ConfigError(f"training set of shape {train_x.shape} does not match {dims[0]} inputs")

    state = net.stack_params((student_init, student_init) + (() if master is None else (master,)))
    layers = net._layer_views(state, dims)
    student_weights = tuple(w[0] for w, _ in layers)
    gradient, velocity = np.empty(state.shape[1]), np.empty(state.shape[1])
    gradient_layers = net._layer_views(gradient, dims)
    # models over the owned buffers for the update and evaluation calls; they change in place
    student, teacher, gradient_params = (ModelParams._wrap(buffer, dims, activation)
                                         for buffer in (state[0], state[1], gradient))
    xs = np.empty((len(state), cfg.labeled_batch + (cfg.unlabeled_batch if n_pool else 0),
                   dims[0]))
    eye = np.eye(dims[-1])
    metrics: list[StepMetrics] = []

    for step in range(cfg.steps):
        lam2 = lambda2_schedule(step, cfg.ramp_len, cfg.lambda2_max)
        li = rng.integers(0, len(train_x), size=cfg.labeled_batch)
        ui = rng.integers(0, n_pool, size=cfg.unlabeled_batch if n_pool else 0)
        bx = np.concatenate([train_x[li], pool_x[ui]])
        xs[0] = augment(bx, cfg.sigma_aug, rng)   # the student's view
        xs[1:] = augment(bx, cfg.sigma_aug, rng)  # the guides' view

        # Finite weights can still overflow the forward pass once they get
        # large enough; that is divergence too, of the update that made them.
        try:
            out = net.BatchForward(net._run_layers(layers, activation, xs, keep_trace=True))
        except NumericsError:
            raise _diverged(max(step - 1, 0)) from None
        breakdown, dlogits = student_loss(out, eye[train_y[li]], cfg.lambda1, lam2,
                                          cfg.consistency, cfg.master_weight)
        net._backward(student_weights, tuple(a[0] for a in out.activations), dlogits,
                      gradient_layers, activation)
        net.sgd_step(student, gradient_params, cfg.learning_rate, cfg.momentum,
                     velocity if step else None, l2=cfg.l2, out=(state[0], velocity))

        if not math.isfinite(breakdown.total) or not student.all_finite():
            raise _diverged(step)
        train_err = test_err = None
        if (step + 1) % EVAL_EVERY == 0 or step == cfg.steps - 1:
            try:
                train_err = net.error_rate(student, train_x, train_y)
                test_err = (net.error_rate(student, eval_x, eval_y)
                            if eval_x is not None else float("nan"))
            except NumericsError:
                raise _diverged(step) from None
        ema_update(teacher, student, cfg.alpha, out=state[1])

        metrics.append(StepMetrics(step, breakdown.classification,
                                   breakdown.consistency_teacher, breakdown.consistency_master,
                                   breakdown.total, lam2, train_err, test_err))
    return student.copy(), teacher.copy(), metrics


def _diverged(step: int) -> DivergenceError:
    return DivergenceError(f"training diverged at step {step}", step=step)
