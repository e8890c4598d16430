"""Generation/iteration pipelines: one engine, one PIPELINES row per pipeline.

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
over snapshots of a teacher copy refined on the enlarged set. Training and
refinement both step in place on buffers they own and copy models out.
Models carry across iterations and generations; discovered labels do not
survive a generation boundary.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import network as net
from .data import DatasetSplit
from .discovery import (DiscoveryReport, assign_pseudo_labels, fuse_distances,
                        noise_rate, select_balanced, select_samples)
from .errors import ConfigError, DataError, DivergenceError, NumericsError
from .network import ModelParams
from .records import IterationRow, RunRecord
from .training import ExperimentConfig, ema_update, one_hot, train_iteration

# name: (config overrides, guided). A guided pipeline reports its teacher,
# ranks the pool with the master (the teacher until the first master exists)
# and builds a master after each discovery; an unguided one reports and ranks
# with its student. The (0,) schedule keeps a pipeline from discovering, so
# mean-teacher never builds a master.
_ONE_ROUND = {"generations": 1, "iterations": 1, "discovery_schedule": (0,)}
PIPELINES = {
    "snowball": ({}, True),
    "mean-teacher": (_ONE_ROUND, True),
    "self-learning": ({"lambda2_max": 0.0}, False),
    "supervised": ({**_ONE_ROUND, "lambda2_max": 0.0}, False),
}
ALGOS = tuple(PIPELINES)


@dataclass(frozen=True, eq=False)
class TrainingSet:
    """The labelled set a training iteration sees: originals plus discoveries.

    Sample ids and their labels; the input rows are DatasetSplit.x at
    ``ids``. Sample ids stay unique; a sample can be discovered at most once
    per generation because discovery always draws from the shrinking pool.
    Equality and hashing are by identity.
    """

    ids: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def from_split(cls, data: DatasetSplit) -> TrainingSet:
        return cls(data.labeled_ids.copy(), data.true_y[data.labeled_ids])

    def with_discovered(self, ids: np.ndarray, y: np.ndarray) -> TrainingSet:
        if np.intersect1d(self.ids, ids).size:
            raise ConfigError("discovered samples overlap the training set")
        return TrainingSet(np.concatenate([self.ids, ids]), np.concatenate([self.y, y]))


def build_master(teacher: ModelParams, x: np.ndarray, training_set: TrainingSet,
                 report: DiscoveryReport, config: ExperimentConfig,
                 prev_master: ModelParams | None = None) -> ModelParams:
    """Build (or evolve) the master from a refined copy of the teacher.

    The refinement set is the current training set plus the next
    ceil(master_extra_fraction * N) unselected report rows in rank order,
    labelled from the report; x holds every sample's input row, indexed by
    sample id (DatasetSplit.x). A copy of the teacher takes classification-only
    full-batch SGD steps on that set; the master is an EMA with decay beta
    over the per-step snapshots, continuing from prev_master when given and
    starting at the first snapshot otherwise. The steps write in place only
    into buffers this call owns: a (2, P) stack of the refined copy and the
    master, velocity and gradient, with one forward trace alive at a time;
    the master leaves as a copy, so teacher and prev_master are never
    written. A prev_master of another shape or activation, a refinement set
    of another input width or a label that is not a class is a ConfigError
    before any step. Non-finite parameters raise DivergenceError with their
    refine step; a forward pass that overflows at step t names the update
    that made its weights, max(t - 1, 0).
    """
    n_selected = int(report.selected.sum())
    if len(report) == 0 or n_selected == 0:
        raise ConfigError("cannot build a master from an empty discovery report")
    unselected = np.flatnonzero(~report.selected)  # already in rank order
    # clamped before int(): the slice caps there anyway, and a huge product overflows
    n_extra = int(min(np.ceil(config.master_extra_fraction * n_selected), len(unselected)))
    extra_rows = unselected[:n_extra]
    refine_x = x[np.concatenate([training_set.ids, report.sample_ids[extra_rows]])]
    refine_y = np.concatenate([training_set.y, report.labels[extra_rows]])

    dims, activation = teacher.layer_dims, teacher.activation
    if refine_x.shape[1:] != dims[:1]:
        raise ConfigError(f"refinement set of shape {refine_x.shape} does not match "
                          f"{dims[0]} inputs")
    # row 0 is the refined copy, row 1 the master; stack_params rejects a
    # prev_master of another shape or activation before any step
    state = net.stack_params((teacher, teacher if prev_master is None else prev_master))
    refined_layers = net._layer_views(state[0], dims)
    refined_weights = tuple(w for w, _ in refined_layers)
    gradient, velocity = np.empty(state.shape[1]), np.zeros(state.shape[1])
    gradient_layers = net._layer_views(gradient, dims)
    refined, master = (ModelParams(buffer, dims, activation) for buffer in state)
    targets = one_hot(refine_y, dims[-1])
    for step in range(config.resolved_refine_steps()):
        # finite weights can still overflow the forward pass; both are divergence
        try:
            acts = net._run_layers(refined_layers, activation, refine_x, keep_trace=True)
        except NumericsError:
            culprit = max(step - 1, 0)
            raise DivergenceError(f"master refinement diverged at refine step {culprit}",
                                  step=culprit) from None
        dlogits = net.softmax(acts[-1])
        dlogits -= targets
        dlogits /= len(refine_x)
        net._backward(refined_weights, acts, dlogits, gradient_layers, activation)
        del acts  # the next forward pass builds its trace without this one alive
        net.sgd_step(refined, gradient, velocity, config.learning_rate, config.momentum,
                     config.l2)
        if not refined.all_finite():
            raise DivergenceError(f"master refinement diverged at refine step {step}",
                                  step=step)
        if step == 0 and prev_master is None:
            np.copyto(state[1], state[0])  # the master starts at the first snapshot
        else:
            ema_update(master, refined, config.beta)
    return master.copy()


def run_algorithm(algo: str, data: DatasetSplit, config: ExperimentConfig) -> RunRecord:
    """Run the PIPELINES row named algo on a split and return its record.

    use_true_labels adopts rows under their truth; kept reports and noise
    rates read pseudo-labels. When the output model ends up predicting one
    class for every row of a test set that holds several, record.collapse
    says so.
    """
    if algo not in PIPELINES:
        raise ConfigError(f"unknown algorithm {algo!r}, expected one of {ALGOS}")
    overrides, guided = PIPELINES[algo]
    cfg = replace(config, **overrides)
    if len(data.labeled_ids) == 0:
        raise ConfigError("run needs at least one labelled sample")
    test_x, test_y = data.x[data.test_ids], data.true_y[data.test_ids]
    if len(test_y) == 0:
        raise DataError("the test set is empty: raise test_fraction to hold out at least one row")
    schedule = cfg.resolved_schedule(len(data.labeled_ids))
    cfg = replace(cfg, discovery_schedule=schedule)

    dims = (data.x.shape[1], *cfg.hidden_dims, data.class_count)
    student = net.init_params(dims, cfg.activation, np.random.SeedSequence([cfg.seed, 0]))
    teacher = student
    master: ModelParams | None = None
    past_masters: list[ModelParams] = []
    rows: list[IterationRow] = []
    step_metrics: dict[tuple[int, int], list] = {}
    reports: dict[tuple[int, int], DiscoveryReport] = {}

    for m in range(1, cfg.generations + 1):
        training_set = TrainingSet.from_split(data)
        pool_ids = data.unlabeled_ids  # masking makes new arrays
        for k in range(1, cfg.iterations + 1):
            t0 = time.perf_counter()
            train_x, pool_x = data.x[training_set.ids], data.x[pool_ids]
            rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, m, k]))
            try:
                student, teacher, steps = train_iteration(
                    student, train_x, training_set.y, pool_x, master,
                    cfg, rng, eval_x=test_x, eval_y=test_y)
            except DivergenceError as err:
                raise DivergenceError(
                    f"training diverged at generation {m}, iteration {k}, step {err.step}",
                    step=err.step) from None
            step_metrics[(m, k)] = steps
            # the last step is always evaluated, on this student and these rows
            train_err = (steps[-1].train_err if steps else
                         net.error_rate(student, train_x, training_set.y))

            noise = 0.0
            n_discover = schedule[k - 1]
            if n_discover > 0 and len(pool_ids) > 0:
                if cfg.fusion != "single" and past_masters:
                    report = fuse_distances(past_masters[-3:], pool_x, pool_ids,
                                            train_x, training_set.y, cfg.fusion)
                else:
                    model = (master if master is not None else teacher) if guided else student
                    report = assign_pseudo_labels(model, pool_x, pool_ids, train_x,
                                                  training_set.y)
                seed_seq = np.random.SeedSequence([cfg.seed, m, k, 7])
                if cfg.balance_classes:
                    report = select_balanced(report, n_discover, data.class_count,
                                             cfg.strategy, seed_seq)
                else:
                    report = select_samples(report, n_discover, cfg.strategy, seed_seq)
                reports[(m, k)] = report
                noise = noise_rate(report, data.true_y)
                if cfg.use_true_labels:  # adopted rows, selected or extra, carry their truth
                    report = replace(report, labels=data.true_y[report.sample_ids])
                sel_ids = report.sample_ids[report.selected]
                training_set = training_set.with_discovered(
                    sel_ids, report.labels[report.selected])
                pool_ids = pool_ids[np.isin(pool_ids, sel_ids, invert=True)]
                if guided:
                    try:
                        master = build_master(teacher, data.x, training_set, report, cfg, master)
                    except DivergenceError as err:
                        raise DivergenceError(
                            f"master refinement diverged at generation {m}, iteration {k}, "
                            f"refine step {err.step}", step=err.step) from None
                    past_masters.append(master)

            rows.append(IterationRow(
                generation=m, iteration=k, train_err=train_err,
                test_err=net.error_rate(teacher if guided else student, test_x, test_y),
                noise_rate=noise, labeled_size=len(training_set),
                wall_time=time.perf_counter() - t0))

    models = {"student": student, "teacher": teacher}
    if master is not None:
        models["master"] = master
    role = "teacher" if guided else "student"
    predicted = np.unique(net.predict_labels(models[role], test_x))
    collapse = None
    if len(predicted) == 1 and len(np.unique(test_y)) > 1:
        collapse = f"the {role} predicts class {predicted[0]} for all {len(test_y)} test rows"
    return RunRecord(algo=algo, config=asdict(cfg), rows=rows, models=models,
                     step_metrics=step_metrics, reports=reports, collapse=collapse)
