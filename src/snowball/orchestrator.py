"""Generation/iteration pipelines: snowball, mean-teacher, self-learning.

One engine drives all pipelines so their degenerate equivalences are exact:
a snowball run with one generation, one iteration and nothing to discover
walks the same code path (and consumes randomness identically) as a
mean-teacher run, which with lambda2 = 0 is the supervised baseline.

The snowball loop per generation m: reset the labelled training set to the
original labels, then for each iteration k train the student (teacher = EMA
of the student, master guiding the consistency loss once it exists),
discover the most confident pool samples by nearest class center (using the
master, or the teacher before the first master exists), move them into the
training set under their pseudo-labels, and rebuild the master as an EMA
over snapshots of a teacher copy refined on the enlarged set. Models carry
across iterations and generations; discovered labels do not survive a
generation boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import network as net
from .data import DatasetSplit
from .discovery import (DiscoveryReport, assign_pseudo_labels, fuse_distances,
                        noise_rate, select_balanced, select_samples)
from .errors import ConfigError, DivergenceError, NumericsError, OrchestrationError
from .network import ModelParams
from .records import IterationRow, RunRecord
from .training import EmaState, ExperimentConfig, ema_update, one_hot, train_iteration

ALGOS = ("snowball", "mean-teacher", "self-learning", "supervised")


@dataclass(frozen=True)
class TrainingSet:
    """The labelled set a training iteration sees: originals plus discoveries.

    Provenance is (generation, iteration) of discovery, (0, 0) for original
    labels. Sample ids stay unique; a sample can be discovered at most once
    per generation because discovery always draws from the shrinking pool.
    """

    ids: np.ndarray
    x: np.ndarray
    y: np.ndarray
    prov_generation: np.ndarray
    prov_iteration: np.ndarray
    generation: int
    iteration: int

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_split(cls, data: DatasetSplit, generation: int = 1) -> TrainingSet:
        n = len(data.labeled_ids)
        return cls(data.labeled_ids.copy(), data.labeled_x.copy(), data.labeled_y.copy(),
                   np.zeros(n, dtype=int), np.zeros(n, dtype=int), generation, 0)

    def with_discovered(self, ids: np.ndarray, x: np.ndarray, y: np.ndarray,
                        generation: int, iteration: int) -> TrainingSet:
        if np.intersect1d(self.ids, ids).size:
            raise OrchestrationError("discovered samples overlap the training set")
        n = len(ids)
        return TrainingSet(
            np.concatenate([self.ids, ids]), np.concatenate([self.x, x]),
            np.concatenate([self.y, y]),
            np.concatenate([self.prov_generation, np.full(n, generation)]),
            np.concatenate([self.prov_iteration, np.full(n, iteration)]),
            generation, iteration)

    def original_count(self) -> int:
        return int(np.sum(self.prov_generation == 0))

    def discovered_count(self) -> int:
        return len(self) - self.original_count()


def _effective(config: ExperimentConfig, algo: str) -> ExperimentConfig:
    """Coerce a config to the loop an algorithm actually runs (idempotent)."""
    if algo == "snowball":
        return config
    if algo == "mean-teacher":
        return replace(config, generations=1, iterations=1, discovery_schedule=(0,))
    if algo == "supervised":
        return replace(config, generations=1, iterations=1, discovery_schedule=(0,),
                       lambda2_max=0.0)
    if algo == "self-learning":
        return replace(config, lambda2_max=0.0)
    raise ConfigError(f"unknown algorithm {algo!r}, expected one of {ALGOS}")


def output_role(algo: str) -> str:
    """The model whose test error a pipeline's rows report: the teacher for
    teacher-driven pipelines, the student for label-only ones."""
    return "teacher" if algo in ("snowball", "mean-teacher") else "student"


def build_master(teacher: ModelParams, training_set: TrainingSet,
                 report: DiscoveryReport, config: ExperimentConfig,
                 prev_master: ModelParams | None = None,
                 label_override: dict[int, int] | None = None) -> ModelParams:
    """Build (or evolve) the master from a refined copy of the teacher.

    The refinement set is the current training set plus the next
    ceil(master_extra_fraction * N) unselected report rows in rank order,
    labelled from the report (or from label_override when the run trains on
    ground-truth labels). A copy of the teacher takes classification-only
    full-batch SGD steps on that set; the master is an EMA with decay beta
    over the per-step snapshots, continuing from prev_master when given and
    starting at the first snapshot otherwise. Non-finite parameters raise
    DivergenceError with their refine step; a forward pass that overflows at
    step t names the update that made its weights, max(t - 1, 0).
    """
    n_selected = int(report.selected.sum())
    if len(report) == 0 or n_selected == 0:
        raise OrchestrationError("cannot build a master from an empty discovery report")
    n_extra = int(np.ceil(config.master_extra_fraction * n_selected))
    unselected = np.flatnonzero(~report.selected)  # already in rank order
    extra_rows = unselected[:n_extra]
    extra_x = report.inputs[extra_rows]
    if label_override is not None:
        extra_y = np.array([label_override[int(i)] for i in report.sample_ids[extra_rows]],
                           dtype=int)
    else:
        extra_y = report.labels[extra_rows]
    refine_x = np.concatenate([training_set.x, extra_x]) if len(extra_rows) else training_set.x
    refine_y = np.concatenate([training_set.y, extra_y]) if len(extra_rows) else training_set.y

    steps = config.resolved_refine_steps()
    if steps == 0:
        return prev_master if prev_master is not None else teacher.copy()
    refined = teacher
    momentum = net.MomentumState(config.momentum)
    targets = one_hot(refine_y, teacher.class_count)
    ema: EmaState | None = None if prev_master is None else EmaState(config.beta, prev_master)
    for step in range(steps):
        # finite weights can still overflow the forward pass; both are divergence
        try:
            gradient = net.grad(refined, refine_x, targets)
        except NumericsError:
            culprit = max(step - 1, 0)
            raise DivergenceError(f"master refinement diverged at refine step {culprit}",
                                  step=culprit) from None
        refined, momentum = net.sgd_step(refined, gradient, config.learning_rate, momentum,
                                         l2=config.l2)
        if not refined.all_finite():
            raise DivergenceError(f"master refinement diverged at refine step {step}",
                                  step=step)
        ema = EmaState(config.beta, refined) if ema is None else ema_update(ema, refined)
    assert ema is not None
    return ema.averaged


def run_algorithm(algo: str, data: DatasetSplit, config: ExperimentConfig) -> RunRecord:
    """Run one of the ALGOS pipelines on a split and return its record.

    snowball: the full master-teacher-student evolution with discovery;
    mean-teacher: one training iteration, no discovery; self-learning: the
    discovery loop without guidance, the plain student discovering;
    supervised: the mean-teacher loop with lambda2 forced to 0.
    """
    cfg = _effective(config, algo)
    cfg.validate()
    if len(data.labeled_ids) == 0:
        raise OrchestrationError("run needs at least one labelled sample")
    schedule = cfg.resolved_schedule(len(data.labeled_ids))
    cfg = replace(cfg, discovery_schedule=schedule)
    truth = data.true_label_of()

    dims = (data.input_dim, *cfg.hidden_dims, data.class_count)
    student = net.init_params(dims, cfg.activation, np.random.SeedSequence([cfg.seed, 0]))
    teacher = student
    master: ModelParams | None = None
    past_masters: list[ModelParams] = []
    rows: list[IterationRow] = []
    step_metrics: dict[tuple[int, int], list] = {}
    reports: dict[tuple[int, int], DiscoveryReport] = {}
    teacher_is_output = output_role(algo) == "teacher"
    discovers = algo in ("snowball", "self-learning")

    for m in range(1, cfg.generations + 1):
        training_set = TrainingSet.from_split(data, generation=m)
        pool_ids = data.unlabeled_ids.copy()
        pool_x = data.unlabeled_x.copy()
        for k in range(1, cfg.iterations + 1):
            t0 = time.perf_counter()
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, m, k]))
            guide = master if algo == "snowball" else None
            try:
                student, teacher, steps = train_iteration(
                    student, training_set.x, training_set.y, pool_x, guide,
                    cfg, rng, eval_x=data.test_x, eval_y=data.test_y)
            except DivergenceError as err:
                raise DivergenceError(
                    f"training diverged at generation {m}, iteration {k}, step {err.step}",
                    step=err.step, generation=m, iteration=k) from None
            step_metrics[(m, k)] = steps
            trained_on = training_set

            noise = 0.0
            n_discover = schedule[k - 1]
            if discovers and n_discover > 0 and len(pool_ids) > 0:
                report = _discover(algo, cfg, data, student, teacher, master,
                                   past_masters, pool_x, pool_ids, training_set)
                report = _select(report, n_discover, cfg, data.class_count,
                                 np.random.SeedSequence([cfg.seed, m, k, 7]))
                reports[(m, k)] = report
                noise = noise_rate(report, truth)
                sel_ids = report.sample_ids[report.selected]
                if cfg.use_true_labels:
                    sel_y = np.array([truth[int(i)] for i in sel_ids], dtype=int)
                else:
                    sel_y = report.labels[report.selected]
                training_set = training_set.with_discovered(
                    sel_ids, report.inputs[report.selected], sel_y, m, k)
                keep = np.isin(pool_ids, sel_ids, invert=True)
                pool_ids, pool_x = pool_ids[keep], pool_x[keep]
                if algo == "snowball":
                    try:
                        master = build_master(teacher, training_set, report, cfg, master,
                                              truth if cfg.use_true_labels else None)
                    except DivergenceError as err:
                        raise DivergenceError(
                            f"master refinement diverged at generation {m}, iteration {k}, "
                            f"refine step {err.step}",
                            step=err.step, generation=m, iteration=k) from None
                    past_masters.append(master)

            student_test = net.error_rate(student, data.test_x, data.test_y)
            teacher_test = net.error_rate(teacher, data.test_x, data.test_y)
            rows.append(IterationRow(
                generation=m, iteration=k,
                train_err=net.error_rate(student, trained_on.x, trained_on.y),
                test_err=teacher_test if teacher_is_output else student_test,
                noise_rate=noise, labeled_size=len(training_set),
                wall_time=time.perf_counter() - t0,
                student_test_err=student_test, teacher_test_err=teacher_test))

    models = {"student": student, "teacher": teacher}
    if master is not None:
        models["master"] = master
    return RunRecord(algo=algo, config=cfg.to_dict(), rows=rows,
                     models=models, step_metrics=step_metrics, reports=reports)


def _discover(algo, cfg, data, student, teacher, master, past_masters,
              pool_x, pool_ids, training_set) -> DiscoveryReport:
    if algo == "self-learning":
        model = student
    else:
        model = master if master is not None else teacher
    if algo == "snowball" and cfg.fusion != "single" and past_masters:
        return fuse_distances(past_masters[-3:], pool_x, pool_ids,
                              training_set.x, training_set.y, cfg.fusion,
                              data.class_count)
    return assign_pseudo_labels(model, pool_x, pool_ids,
                                training_set.x, training_set.y, data.class_count)


def _select(report, n, cfg, class_count, seed_seq) -> DiscoveryReport:
    if cfg.balance_classes:
        return select_balanced(report, n, class_count, cfg.strategy, seed_seq)
    return select_samples(report, n, cfg.strategy, seed_seq)
