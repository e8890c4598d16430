"""Synthetic dataset generators, labelled/unlabelled splitting, CSV loading.

All generators are pure functions of their seed. Splitting draws the test
set first so it never shifts when labels_per_class changes, then picks a
class-balanced labelled set; features are normalised to zero mean and unit
variance using statistics of the labelled and unlabelled portions only.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, reading


@dataclass(frozen=True, eq=False)
class RawDataset:
    """Features, integer labels in [0, class_count), one row per sample.
    Equality and hashing are by identity."""

    x: np.ndarray
    y: np.ndarray
    class_count: int

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.ndim != 1 or len(self.x) != len(self.y):
            raise DataError(f"inconsistent dataset shapes {self.x.shape} / {self.y.shape}")
        if len(self.y) and (self.y.min() < 0 or self.y.max() >= self.class_count):
            raise DataError(f"labels must lie in [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.y)


@dataclass(frozen=True, eq=False)
class DatasetSplit:
    """Labelled / unlabelled / test partition of a dataset.

    Sample ids index the originating RawDataset; the three id sets are
    disjoint. ``true_y[i]`` is sample i's ground-truth label, for
    evaluation only (pseudo-label noise rates, discovery dumps, the
    use_true_labels ablation), never for training. Equality and hashing
    are by identity.
    """

    labeled_x: np.ndarray
    labeled_y: np.ndarray
    labeled_ids: np.ndarray
    unlabeled_x: np.ndarray
    unlabeled_ids: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    test_ids: np.ndarray
    true_y: np.ndarray
    class_count: int

    @property
    def input_dim(self) -> int:
        return self.labeled_x.shape[1]


def gen_two_moons(n: int, noise: float, seed=0) -> RawDataset:
    """Two interleaved unit half-circles with isotropic Gaussian noise.

    Class 0 sits on the upper half-circle centred at the origin, class 1 on
    the lower half-circle centred at (1, 0.5); with noise=0 every point lies
    exactly on its half-circle.
    """
    if n < 2:
        raise DataError(f"two moons need at least 2 samples, got {n}")
    _check_noise(noise)
    n0 = n - n // 2
    n1 = n // 2
    t0 = np.linspace(0.0, np.pi, n0)
    t1 = np.linspace(0.0, np.pi, n1)
    x = np.concatenate([
        np.column_stack([np.cos(t0), np.sin(t0)]),
        np.column_stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)]),
    ])
    y = np.concatenate([np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
    rng = np.random.default_rng(seed)
    x = x + rng.normal(0.0, noise, size=x.shape)
    return RawDataset(x, y, 2)


def gen_gaussian_blobs(classes: int, n_per_class: int, noise: float,
                       separation: float, seed=0) -> RawDataset:
    """Isotropic Gaussian blobs with centres equally spaced on a circle.

    Centre c sits at separation * (cos, sin)(2*pi*c/classes); samples are the
    centre plus N(0, noise^2 I) in two dimensions.
    """
    if classes < 2 or n_per_class < 1:
        raise DataError(f"need >= 2 classes and >= 1 sample per class, got {classes}/{n_per_class}")
    _check_noise(noise)
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = separation * np.column_stack([np.cos(angles), np.sin(angles)])
    y = np.repeat(np.arange(classes), n_per_class)
    rng = np.random.default_rng(seed)
    x = centers[y] + rng.normal(0.0, noise, size=(len(y), 2))
    return RawDataset(x, y, classes)


def gen_rings(classes: int, n_per_class: int, noise: float, seed=0) -> RawDataset:
    """Concentric circles of radius 1, 2, ..., classes plus Gaussian noise."""
    if classes < 2 or n_per_class < 1:
        raise DataError(f"need >= 2 classes and >= 1 sample per class, got {classes}/{n_per_class}")
    _check_noise(noise)
    theta = np.linspace(0.0, 2.0 * np.pi, n_per_class, endpoint=False)
    parts = []
    for c in range(classes):
        r = float(c + 1)
        parts.append(np.column_stack([r * np.cos(theta), r * np.sin(theta)]))
    x = np.concatenate(parts)
    y = np.repeat(np.arange(classes), n_per_class)
    rng = np.random.default_rng(seed)
    x = x + rng.normal(0.0, noise, size=x.shape)
    return RawDataset(x, y, classes)


def _check_noise(noise: float) -> None:
    if noise < 0.0:
        raise DataError(f"noise must be non-negative, got {noise}")


def split(raw: RawDataset, labels_per_class: int, test_fraction: float, seed=0) -> DatasetSplit:
    """Partition into test / labelled / unlabelled and normalise features.

    The test set is drawn first (uniformly, without replacement), then
    ``labels_per_class`` samples per class are drawn from the remainder to
    form the labelled set; everything else becomes the unlabelled pool.
    Normalisation statistics come from labelled + unlabelled rows; constant
    feature dimensions are left at their centred value (divisor 1).
    """
    if labels_per_class < 1:
        raise DataError(f"labels_per_class must be >= 1, got {labels_per_class}")
    if not 0.0 <= test_fraction < 1.0:
        raise DataError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    n = len(raw)
    rng = np.random.default_rng(seed)
    n_test = int(round(test_fraction * n))
    test_ids = np.sort(rng.choice(n, size=n_test, replace=False))
    in_test = np.zeros(n, dtype=bool)
    in_test[test_ids] = True
    train_ids = np.flatnonzero(~in_test)

    labeled: list[np.ndarray] = []
    for c in range(raw.class_count):
        candidates = train_ids[raw.y[train_ids] == c]
        if len(candidates) < labels_per_class:
            raise DataError(
                f"class {c} has only {len(candidates)} training samples, "
                f"cannot draw {labels_per_class} labels")
        labeled.append(rng.choice(candidates, size=labels_per_class, replace=False))
    labeled_ids = np.sort(np.concatenate(labeled))
    in_labeled = np.zeros(n, dtype=bool)
    in_labeled[labeled_ids] = True
    unlabeled_ids = train_ids[~in_labeled[train_ids]]

    fit = np.concatenate([labeled_ids, unlabeled_ids])
    mean = raw.x[fit].mean(axis=0)
    std = raw.x[fit].std(axis=0)
    scale = np.where(std == 0.0, 1.0, std)
    norm = (raw.x - mean) / scale

    return DatasetSplit(
        labeled_x=norm[labeled_ids], labeled_y=raw.y[labeled_ids].copy(),
        labeled_ids=labeled_ids, unlabeled_x=norm[unlabeled_ids], unlabeled_ids=unlabeled_ids,
        test_x=norm[test_ids], test_y=raw.y[test_ids].copy(), test_ids=test_ids,
        true_y=raw.y.copy(), class_count=raw.class_count)


def augment(x: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive isotropic Gaussian perturbation, drawn from ``rng``.

    sigma=0 returns the input unchanged but still consumes the same number
    of draws, so the random stream does not depend on sigma.
    """
    if sigma < 0.0:
        raise ConfigError(f"augmentation sigma must be non-negative, got {sigma}")
    x = np.asarray(x, dtype=float)
    return x + rng.normal(0.0, sigma, size=x.shape)


def load_csv(path) -> RawDataset:
    """Load samples from a CSV: real feature columns, last column the label.

    Labels must be non-negative integers; the class count is max label + 1.
    Every malformed row, including one holding a nan or infinite value,
    produces a DataError naming the line number.
    """
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    with reading(path), path.open(newline="") as handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or all(not cell.strip() for cell in row):
                raise DataError(f"{path}: line {lineno}: empty row")
            if width is None:
                width = len(row)
                if width < 2:
                    raise DataError(f"{path}: line {lineno}: need at least one feature and a label")
            elif len(row) != width:
                raise DataError(f"{path}: line {lineno}: expected {width} columns, found {len(row)}")
            try:
                values = [float(cell) for cell in row[:-1]]
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric feature value") from None
            if not all(math.isfinite(v) for v in values):
                raise DataError(f"{path}: line {lineno}: non-finite feature value")
            try:
                label_raw = float(row[-1])
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric label") from None
            if not math.isfinite(label_raw):
                raise DataError(f"{path}: line {lineno}: non-finite label {row[-1].strip()!r}")
            if label_raw != int(label_raw):
                raise DataError(f"{path}: line {lineno}: label {row[-1].strip()!r} is not an integer")
            label = int(label_raw)
            # the class count, max label + 1, must fit a 64-bit integer
            limit = np.iinfo(np.int64).max
            if not 0 <= label < limit:
                raise DataError(f"{path}: line {lineno}: label {label} outside [0, {limit})")
            rows.append(values)
            labels.append(label)
    if not rows:
        raise DataError(f"{path}: file contains no samples")
    y = np.asarray(labels, dtype=int)
    return RawDataset(np.asarray(rows, dtype=float), y, int(y.max()) + 1)
