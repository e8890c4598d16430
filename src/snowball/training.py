"""The run configuration, losses, exponential moving averages and the inner
training loop.

The student is the only network touched by gradient descent. The teacher is
an exponential moving average of student snapshots, refreshed every step; a
master network (when present) contributes a second consistency target. The
student objective is

    total = lambda1 * classification + lambda2 * (teacher + master consistency)

where classification is averaged over the labelled rows of a minibatch only
and the consistency terms cover every row. lambda2 follows a normalised
sigmoid ramp so early, unreliable guidance carries little weight.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import network as net
from .data import augment
from .discovery import FUSIONS, STRATEGIES
from .errors import ConfigError, DataError, DivergenceError, NumericsError
from .network import ACTIVATIONS, EPS_LOG, ModelParams, MomentumState

CONSISTENCY_KINDS = ("ce", "mse")
UNLABELED = -1  # label marker for pool rows inside a mixed minibatch
EVAL_EVERY = 25  # train_iteration measures error rates every EVAL_EVERY-th step


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the student objective for one batch."""

    classification: float
    consistency_teacher: float
    consistency_master: float
    lambda1: float
    lambda2: float
    total: float

    @classmethod
    def combine(cls, classification: float, consistency_teacher: float,
                consistency_master: float, lambda1: float, lambda2: float) -> LossBreakdown:
        total = lambda1 * classification + lambda2 * (consistency_teacher + consistency_master)
        return cls(classification, consistency_teacher, consistency_master,
                   lambda1, lambda2, total)


@dataclass(frozen=True)
class EmaState:
    """Exponential moving average over a stream of parameter snapshots."""

    decay: float
    averaged: ModelParams

    def __post_init__(self):
        if not 0.0 <= self.decay <= 1.0:
            raise ConfigError(f"EMA decay must lie in [0, 1], got {self.decay}")


def ema_update(state: EmaState, source: ModelParams) -> EmaState:
    """averaged <- decay * averaged + (1 - decay) * source."""
    averaged = state.decay * state.averaged + (1.0 - state.decay) * source
    return EmaState(state.decay, averaged)


def one_hot(y: np.ndarray, class_count: int) -> np.ndarray:
    y = np.asarray(y, dtype=int)
    out = np.zeros((len(y), class_count))
    out[np.arange(len(y)), y] = 1.0
    return out


def cross_entropy(target: np.ndarray, pred: np.ndarray) -> float:
    """-sum target_i * log(max(pred_i, 1e-12)) for two probability vectors."""
    target = np.asarray(target, dtype=float)
    pred = np.asarray(pred, dtype=float)
    if target.shape != pred.shape:
        raise ConfigError(f"distribution shapes differ: {target.shape} vs {pred.shape}")
    return float(-np.sum(target * np.log(np.maximum(pred, EPS_LOG))))


def _mean_ce(targets: np.ndarray, probs: np.ndarray) -> float:
    return float(np.mean(-np.sum(targets * np.log(np.maximum(probs, EPS_LOG)), axis=1)))


def _mean_mse(targets: np.ndarray, probs: np.ndarray) -> float:
    return float(np.mean(np.sum((probs - targets) ** 2, axis=1) / probs.shape[1]))


def student_loss(student: ModelParams, teacher: ModelParams,
                 master: ModelParams | None, x: np.ndarray, y: np.ndarray,
                 lambda1: float, lambda2: float, *, sigma_aug: float = 0.0,
                 perturb_seed: int = 0, kind: str = "ce",
                 master_weight: float = 1.0) -> LossBreakdown:
    """Full objective over one minibatch.

    Rows with y == -1 are unlabelled and only enter the consistency terms.
    Teacher and master share one perturbed guide view (so identical guides
    yield identical terms); the student sees its own perturbed view, used for
    both the classification and the consistency terms.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(perturb_seed)]))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=int)
    student_view = augment(x, sigma_aug, rng)
    guide_view = augment(x, sigma_aug, rng)
    breakdown, _ = _objective(student, teacher, master, student_view, guide_view, y,
                              lambda1, lambda2, kind, master_weight, want_grad=False)
    return breakdown


def _objective(student: ModelParams, teacher: ModelParams, master: ModelParams | None,
               student_view: np.ndarray, guide_view: np.ndarray, y: np.ndarray,
               lambda1: float, lambda2: float, kind: str, master_weight: float,
               want_grad: bool) -> tuple[LossBreakdown, ModelParams | None]:
    """Loss breakdown and (optionally) its gradient in one backward pass.

    All loss terms share the student's forward pass on student_view, so the
    combined gradient is a single backpropagation of the summed per-logit
    gradients through that pass's trace. Guides are evaluated on guide_view
    and treated as constants.
    """
    if kind not in CONSISTENCY_KINDS:
        raise ConfigError(f"unknown consistency kind {kind!r}")
    n, class_count = len(y), student.class_count
    out = net.forward_batch(student, student_view)
    p_s = out.probs
    labeled = y >= 0
    n_lab = int(labeled.sum())

    if n_lab:
        targets = one_hot(y[labeled], class_count)
        j_class = _mean_ce(targets, p_s[labeled])
    else:
        j_class = 0.0
    p_t = net.forward_batch(teacher, guide_view).probs
    p_m = net.forward_batch(master, guide_view).probs if master is not None else None
    # each kind's mean loss and its per-row gradient at the student's logits
    # (for cross-entropy against a fixed target that is p_s - p_g)
    loss, dloss = (_mean_ce, np.subtract) if kind == "ce" else (_mean_mse, _mse_dlogits)
    j_teacher = loss(p_t, p_s)
    j_master = master_weight * loss(p_m, p_s) if p_m is not None else 0.0
    breakdown = LossBreakdown.combine(j_class, j_teacher, j_master, lambda1, lambda2)
    if not want_grad:
        return breakdown, None

    dlogits = np.zeros_like(p_s)
    if n_lab:
        dlogits[labeled] += lambda1 * (p_s[labeled] - targets) / n_lab
    dlogits += lambda2 * dloss(p_s, p_t) / n
    if p_m is not None:
        dlogits += lambda2 * master_weight * dloss(p_s, p_m) / n
    return breakdown, net.grad_from_dlogits(student, out, dlogits)


def _mse_dlogits(p_s: np.ndarray, p_g: np.ndarray) -> np.ndarray:
    # d/dz of (1/C)*||softmax(z) - p_g||^2 through the softmax Jacobian
    d = 2.0 * (p_s - p_g) / p_s.shape[1]
    return p_s * (d - np.sum(d * p_s, axis=1, keepdims=True))


def lambda2_schedule(step: int, ramp_len: int, lambda2_max: float) -> float:
    """Sigmoid ramp exp(-5*(1-tau)^2), rescaled to hit 0 at step 0 and
    lambda2_max at step >= ramp_len exactly."""
    tau = 1.0 if ramp_len <= 0 else min(1.0, step / ramp_len)
    floor = np.exp(-5.0)
    return lambda2_max * float((np.exp(-5.0 * (1.0 - tau) ** 2) - floor) / (1.0 - floor))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved hyperparameters of a full run, training iterations included.

    discovery_schedule lists how many samples to discover at iteration k of
    every generation; empty means "double the cumulative labelled count each
    iteration" resolved against the actual labelled-set size.
    master_refine_steps < 0 resolves to steps // 4.
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

    def validate(self) -> None:
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

    def to_dict(self) -> dict[str, object]:
        return asdict(self)


@dataclass(frozen=True)
class StepMetrics:
    """One row of the per-step metrics CSV.

    train_err and test_err are None on steps that were not evaluated (an
    empty CSV cell); test_err is nan when no eval set was given.
    """

    step: int
    j_c: float
    j_theta_teacher: float
    j_theta_master: float
    j_s: float
    lambda2: float
    train_err: float | None
    test_err: float | None


STEP_CSV_HEADER = ("step", "J_C", "J_theta_teacher", "J_theta_master",
                   "J_S", "lambda2", "train_err", "test_err")


def write_step_metrics(path, rows: list[StepMetrics]) -> None:
    """Write a per-step metrics CSV; floats use repr so the file parses back
    bit-identically."""
    with Path(path).open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(STEP_CSV_HEADER)
        for r in rows:
            writer.writerow([r.step, repr(r.j_c), repr(r.j_theta_teacher),
                             repr(r.j_theta_master), repr(r.j_s), repr(r.lambda2),
                             _cell(r.train_err), _cell(r.test_err)])


def _cell(value: float | None) -> str:
    return "" if value is None else repr(value)


def read_step_metrics(path) -> list[StepMetrics]:
    """Parse a per-step metrics CSV; an empty error cell reads back as None.
    A short or unparsable row raises DataError naming the file and line."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader, ()))
        if header != STEP_CSV_HEADER:
            raise ConfigError(f"{path}: unexpected step metrics header {header}")
        rows = []
        for r in reader:
            try:
                if len(r) != len(STEP_CSV_HEADER):
                    raise ValueError(f"expected {len(STEP_CSV_HEADER)} values, got {len(r)}")
                rows.append(StepMetrics(int(r[0]), *(float(v) for v in r[1:6]),
                                        *(None if v == "" else float(v) for v in r[6:])))
            except ValueError as err:
                raise DataError(f"{path}: line {reader.line_num}: {err}") from None
        return rows


def train_iteration(student_init: ModelParams, train_x: np.ndarray, train_y: np.ndarray,
                    pool_x: np.ndarray, master: ModelParams | None, cfg: ExperimentConfig,
                    rng: np.random.Generator, *, eval_x: np.ndarray | None = None,
                    eval_y: np.ndarray | None = None
                    ) -> tuple[ModelParams, ModelParams, list[StepMetrics]]:
    """Run one training iteration and return (student, teacher, step metrics).

    Each step samples a minibatch with replacement: labeled_batch rows from
    the labelled set and unlabeled_batch rows from the pool (fewer when the
    pool is empty). Per step the rng is consumed in a fixed order - labelled
    indices, pool indices, student noise, guide noise - so runs are exactly
    reproducible from the seed. The teacher EMA starts at student_init and
    absorbs the student after every step; with steps=0 the inputs come back
    unchanged and the teacher equals student_init. Only the training fields
    of cfg are read.

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
    cfg.validate()
    train_x = np.asarray(train_x, dtype=float)
    train_y = np.asarray(train_y, dtype=int)
    if len(train_x) == 0:
        raise ConfigError("training set is empty")
    if np.any(train_y < 0):
        raise ConfigError("training set rows must all carry labels")
    n_pool = len(pool_x)

    student = student_init
    teacher_ema = EmaState(cfg.alpha, student_init)
    momentum = MomentumState(cfg.momentum)
    metrics: list[StepMetrics] = []

    for step in range(cfg.steps):
        lam2 = lambda2_schedule(step, cfg.ramp_len, cfg.lambda2_max)
        li = rng.integers(0, len(train_x), size=cfg.labeled_batch)
        if n_pool > 0 and cfg.unlabeled_batch > 0:
            ui = rng.integers(0, n_pool, size=cfg.unlabeled_batch)
            bx = np.concatenate([train_x[li], pool_x[ui]])
            by = np.concatenate([train_y[li], np.full(len(ui), UNLABELED)])
        else:
            bx = train_x[li]
            by = train_y[li]
        student_view = augment(bx, cfg.sigma_aug, rng)
        guide_view = augment(bx, cfg.sigma_aug, rng)

        # Finite weights can still overflow the forward pass once they get
        # large enough; that is divergence too, of the update that made them.
        try:
            breakdown, gradient = _objective(
                student, teacher_ema.averaged, master, student_view, guide_view, by,
                cfg.lambda1, lam2, cfg.consistency, cfg.master_weight, want_grad=True)
        except NumericsError:
            raise _diverged(max(step - 1, 0)) from None
        assert gradient is not None
        student, momentum = net.sgd_step(student, gradient, cfg.learning_rate, momentum,
                                         l2=cfg.l2)

        if not np.isfinite(breakdown.total) or not student.all_finite():
            raise _diverged(step)
        train_err = test_err = None
        if (step + 1) % EVAL_EVERY == 0 or step == cfg.steps - 1:
            try:
                train_err = net.error_rate(student, train_x, train_y)
                test_err = (net.error_rate(student, eval_x, eval_y)
                            if eval_x is not None else float("nan"))
            except NumericsError:
                raise _diverged(step) from None
        teacher_ema = ema_update(teacher_ema, student)

        metrics.append(StepMetrics(step, breakdown.classification,
                                   breakdown.consistency_teacher, breakdown.consistency_master,
                                   breakdown.total, lam2, train_err, test_err))
    return student, teacher_ema.averaged, metrics


def _diverged(step: int) -> DivergenceError:
    return DivergenceError(f"training diverged at step {step}", step=step)
