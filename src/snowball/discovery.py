"""Confident-sample discovery by nearest class center in feature space.

Class centers are the per-class means of penultimate-layer features over the
current labelled training set. Each pool sample is pseudo-labelled by its
nearest center (Euclidean, on raw features); the candidates closest to their
center are presumed most reliable. Reports keep every candidate in rank
order so selection, the master's extra candidates and noise measurement all
read off the same structure.

When several model snapshots are available their distances can be fused:
averaged directly, computed in a concatenated feature space, or averaged as
per-model sorting ranks. Pseudo-labels under fusion are majority votes with
ties going to the most recent model.

Distances are computed NEAREST_BLOCK pool rows at a time in one reused block
buffer, feature_cascade fills one preallocated feature matrix model by model,
and reports keep no features, so discovery's memory is linear in the pool.
records.write_report_csv dumps a report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import network as net
from .errors import ConfigError, DiscoveryError
from .network import ModelParams

STRATEGIES = ("min", "random", "max")
FUSIONS = ("single", "average_distance", "feature_cascade", "average_sorting_score")

NEAREST_BLOCK = 1024  # pool rows per (rows, classes, features) difference array


@dataclass(frozen=True, eq=False)
class DiscoveryReport:
    """Ranked pseudo-labelling of an unlabelled pool.

    Rows are sorted by ascending score (distance, or fused score) with ties
    broken by ascending sample id; a row's index is its rank. ``distances``
    holds plain Euclidean distances for single-model and feature_cascade
    reports, mean distances for average_distance and mean 0-based ranks for
    average_sorting_score. ``selected`` is all-False until `select_samples`.
    The raw input rows ride along so downstream consumers (the enlarged
    training set, the master's extra candidates) need no access to the
    original pool; features are not kept, so a report is linear in n.
    Equality and hashing are by identity.
    """

    sample_ids: np.ndarray   # (n,) int
    inputs: np.ndarray       # (n, d) raw input rows, in rank order
    labels: np.ndarray       # (n,) assigned pseudo-labels
    distances: np.ndarray    # (n,) score used for ranking
    selected: np.ndarray     # (n,) bool
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.sample_ids)


def compute_class_centers(model: ModelParams, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-class mean feature vectors over a labelled set, one per model class."""
    y = np.asarray(y, dtype=int)
    feats = net.forward(model, x).features
    centers = np.empty((model.class_count, feats.shape[1]))
    for c in range(model.class_count):
        mask = y == c
        if not np.any(mask):
            raise DiscoveryError(f"class {c} has no labelled samples, cannot place its center")
        centers[c] = feats[mask].mean(axis=0)
    return centers


def _nearest_center(feats: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-center label (ties to the lowest class index) and distance,
    NEAREST_BLOCK rows at a time in one reused (rows, classes, features)
    buffer. Each distance is np.linalg.norm's sqrt of the summed squared
    differences, element for element, without its per-block copies."""
    dists = np.empty((len(feats), len(centers)))
    diff = np.empty((min(len(feats), NEAREST_BLOCK), *centers.shape))
    for start in range(0, len(feats), NEAREST_BLOCK):
        rows = slice(start, start + NEAREST_BLOCK)
        block = diff[:len(feats[rows])]
        np.subtract(feats[rows, None, :], centers[None, :, :], out=block)
        np.multiply(block, block, out=block)
        np.sqrt(block.sum(axis=2), out=dists[rows])
    labels = np.argmin(dists, axis=1)
    return labels, dists[np.arange(len(feats)), labels]


def _model_nearest(model, pool_x, train_x, train_y):
    """Labels and distances of a pool by one model's nearest class center."""
    centers = compute_class_centers(model, train_x, train_y)
    return _nearest_center(net.forward(model, pool_x).features, centers)


def _rank_order(scores: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Sort by ascending score, ties by ascending sample id."""
    return np.lexsort((ids, scores))


def _build_report(ids, inputs, labels, scores) -> DiscoveryReport:
    order = _rank_order(scores, ids)
    return DiscoveryReport(
        sample_ids=np.asarray(ids)[order], inputs=np.asarray(inputs)[order],
        labels=np.asarray(labels)[order], distances=np.asarray(scores)[order],
        selected=np.zeros(len(order), dtype=bool))


def assign_pseudo_labels(model: ModelParams, pool_x: np.ndarray, pool_ids: np.ndarray,
                         train_x: np.ndarray, train_y: np.ndarray) -> DiscoveryReport:
    """Pseudo-label a pool by nearest class center of a single model."""
    if len(pool_x) == 0:
        raise DiscoveryError("unlabelled pool is empty")
    labels, dists = _model_nearest(model, pool_x, train_x, train_y)
    return _build_report(pool_ids, pool_x, labels, dists)


def _majority_vote(per_model_labels: tuple[np.ndarray, ...], class_count: int) -> np.ndarray:
    """Majority label per sample; ties take the most recent model's label."""
    stacked = np.stack(per_model_labels, axis=1)  # (n, models)
    counts = np.stack([np.sum(stacked == c, axis=1) for c in range(class_count)], axis=1)
    top = counts.max(axis=1)
    tied = np.sum(counts == top[:, None], axis=1) > 1
    winners = np.argmax(counts, axis=1)
    return np.where(tied, stacked[:, -1], winners)


def fuse_distances(models: list[ModelParams], pool_x: np.ndarray, pool_ids: np.ndarray,
                   train_x: np.ndarray, train_y: np.ndarray, fusion: str) -> DiscoveryReport:
    """Pseudo-label a pool using 1-3 model snapshots, oldest first.

    single demands exactly one model and matches `assign_pseudo_labels`;
    the other fusions accept 1-3 and degrade to single-model behaviour when
    given one model (or three identical ones).
    """
    if fusion not in FUSIONS:
        raise ConfigError(f"unknown fusion {fusion!r}, expected one of {FUSIONS}")
    if not 1 <= len(models) <= 3:
        raise ConfigError(f"fusion takes 1-3 models, got {len(models)}")
    if fusion == "single":
        if len(models) != 1:
            raise ConfigError(f"fusion 'single' takes exactly 1 model, got {len(models)}")
        return assign_pseudo_labels(models[0], pool_x, pool_ids, train_x, train_y)
    if len(pool_x) == 0:
        raise DiscoveryError("unlabelled pool is empty")
    if fusion == "feature_cascade":
        # the center of concatenated features is the concatenation of centers
        centers = np.concatenate([compute_class_centers(m, train_x, train_y) for m in models],
                                 axis=1)
        feats = np.empty((len(pool_x), centers.shape[1]))
        at = 0
        for m in models:
            feats[:, at:at + m.layer_dims[-2]] = net.forward(m, pool_x).features
            at += m.layer_dims[-2]
        labels, dists = _nearest_center(feats, centers)
        return _build_report(pool_ids, pool_x, labels, dists)
    per_labels, per_dists = zip(*(_model_nearest(m, pool_x, train_x, train_y) for m in models))
    labels = _majority_vote(per_labels, models[0].class_count)
    if fusion == "average_distance":
        scores = np.mean(per_dists, axis=0)
    else:  # average_sorting_score: mean of per-model 0-based ranks
        pool_ids = np.asarray(pool_ids)
        rank_sum = np.zeros(len(pool_ids))
        for dists in per_dists:
            order = _rank_order(dists, pool_ids)
            ranks = np.empty(len(pool_ids))
            ranks[order] = np.arange(len(pool_ids))
            rank_sum += ranks
        scores = rank_sum / len(models)
    return _build_report(pool_ids, pool_x, labels, scores)


def select_samples(report: DiscoveryReport, n: int, strategy: str = "min",
                   rng_seed=0) -> DiscoveryReport:
    """Flag n report rows as selected.

    min takes the n smallest scores (the confident choice), max the n
    largest, random a uniform draw without replacement seeded by rng_seed.
    All ties break by ascending sample id. Asking for more rows than exist
    selects everything and sets the truncated flag.
    """
    _check_selection(n, strategy)
    size = len(report)
    take = min(n, size)
    if strategy == "min":
        picks = np.arange(take)
    elif strategy == "max":
        picks = _rank_order(-report.distances, report.sample_ids)[:take]
    else:
        rng = np.random.default_rng(rng_seed)
        picks = rng.choice(size, size=take, replace=False)
    selected = np.zeros(size, dtype=bool)
    selected[picks] = True
    return replace(report, selected=selected, truncated=n > size)


def select_balanced(report: DiscoveryReport, n: int, class_count: int,
                    strategy: str = "min", rng_seed=0) -> DiscoveryReport:
    """Class-balanced variant of `select_samples`.

    Each class gets a quota of n // class_count (remainder spread over the
    lowest class indices) filled in strategy order from rows pseudo-labelled
    with that class; unfillable quota falls back to the global strategy
    order over the remaining rows.
    """
    _check_selection(n, strategy)
    if class_count < 1:
        raise ConfigError(f"class_count must be >= 1, got {class_count}")
    size = len(report)
    take = min(n, size)
    if strategy == "max":
        order = _rank_order(-report.distances, report.sample_ids)
    elif strategy == "random":
        order = np.random.default_rng(rng_seed).permutation(size)
    else:
        order = np.arange(size)
    quota = np.full(class_count, take // class_count)
    quota[: take % class_count] += 1
    selected = np.zeros(size, dtype=bool)
    for c in range(class_count):
        rows = order[report.labels[order] == c][: quota[c]]
        selected[rows] = True
    shortfall = take - int(selected.sum())
    if shortfall > 0:
        rest = order[~selected[order]][:shortfall]
        selected[rest] = True
    return replace(report, selected=selected, truncated=n > size)


def _check_selection(n: int, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ConfigError(f"unknown selection strategy {strategy!r}, expected one of {STRATEGIES}")
    if n <= 0:
        raise ConfigError(f"selection size must be positive, got {n}")


def noise_rate(report: DiscoveryReport, true_y: np.ndarray) -> float:
    """Fraction of selected rows whose pseudo-label disagrees with the truth,
    true_y[i] being sample i's label (DatasetSplit.true_y).

    Evaluation-only: ground truth never feeds back into training. An empty
    selection counts as 0.
    """
    ids = report.sample_ids[report.selected]
    if len(ids) == 0:
        return 0.0
    return float(np.mean(report.labels[report.selected] != true_y[ids]))
