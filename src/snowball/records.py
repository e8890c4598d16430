"""Run records and their on-disk manifest format.

A manifest is a structured text file with a magic line, a [config] section
of flat ``key = value`` pairs (the fully resolved configuration) and a
[metrics] section holding one CSV row per (generation, iteration). Floats
are serialised with repr so re-reading them is bit-exact; re-running a
manifest's config must reproduce every metric column except wall_time.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .discovery import DiscoveryReport
from .errors import DataError, decoding
from .network import ModelParams
from .training import StepMetrics

MANIFEST_MAGIC = "SNOWBALL-RUN v1"
METRIC_HEADER = ("generation", "iteration", "train_err", "test_err",
                 "pseudo_label_noise_rate", "labeled_set_size", "wall_time")


@dataclass(frozen=True)
class IterationRow:
    """Per-(generation, iteration) summary metrics, the manifest's columns.

    train_err is the student's error on the labelled set it trained on.
    test_err belongs to the model the pipeline treats as its output (teacher
    for guided runs, student otherwise); only that model is evaluated.
    """

    generation: int
    iteration: int
    train_err: float
    test_err: float
    noise_rate: float
    labeled_size: int
    wall_time: float

    def manifest_values(self) -> tuple:
        return (self.generation, self.iteration, self.train_err, self.test_err,
                self.noise_rate, self.labeled_size, self.wall_time)


@dataclass
class RunRecord:
    """Everything one pipeline run produced."""

    algo: str
    config: dict[str, object]
    rows: list[IterationRow]
    models: dict[str, ModelParams] = field(default_factory=dict)
    step_metrics: dict[tuple[int, int], list[StepMetrics]] = field(default_factory=dict)
    reports: dict[tuple[int, int], DiscoveryReport] = field(default_factory=dict)

    def final_test_err(self) -> float:
        return self.rows[-1].test_err

    def generation_final_errors(self) -> list[float]:
        """test_err of the last iteration of each generation, in order."""
        last: dict[int, float] = {}
        for row in self.rows:
            last[row.generation] = row.test_err
        return [last[g] for g in sorted(last)]


def rows_equal(a: list[IterationRow], b: list[IterationRow]) -> bool:
    """Bit-exact equality of metric rows, ignoring wall_time (a measurement,
    not a metric); nan equals nan."""
    return len(a) == len(b) and all(
        x == y or (isinstance(x, float) and isinstance(y, float) and np.isnan(x) and np.isnan(y))
        for ra, rb in zip(a, b) for x, y in zip(ra.manifest_values()[:6], rb.manifest_values()[:6]))


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def write_manifest(path, record: RunRecord) -> None:
    buf = io.StringIO()
    buf.write(f"{MANIFEST_MAGIC}\n[config]\n")
    buf.write(f"algo = {record.algo}\n")
    for key in sorted(record.config):
        buf.write(f"{key} = {_fmt(record.config[key])}\n")
    buf.write("[metrics]\n")
    writer = csv.writer(buf)
    writer.writerow(METRIC_HEADER)
    for row in record.rows:
        g, i, tr, te, nz, sz, wt = row.manifest_values()
        writer.writerow([g, i, repr(tr), repr(te), repr(nz), sz, repr(wt)])
    Path(path).write_text(buf.getvalue())


def read_manifest(path) -> tuple[dict[str, str], list[IterationRow]]:
    """Parse a manifest back into (raw config strings, metric rows)."""
    path = Path(path)
    try:
        with decoding(path):
            lines = path.read_text().splitlines()
    except OSError as err:
        raise DataError(f"{path}: {err.strerror or err}") from None
    if not lines or lines[0] != MANIFEST_MAGIC:
        raise DataError(f"{path}: not a run manifest (bad magic)")
    try:
        cfg_at = lines.index("[config]")
        met_at = lines.index("[metrics]")
    except ValueError:
        raise DataError(f"{path}: missing [config] or [metrics] section") from None
    config: dict[str, str] = {}
    for lineno, line in enumerate(lines[cfg_at + 1:met_at], start=cfg_at + 2):
        if not line.strip():
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    reader = csv.reader(lines[met_at + 1:])
    header = tuple(next(reader, ()))
    if header != METRIC_HEADER:
        raise DataError(f"{path}: unexpected metrics header {header}")
    rows = []
    for lineno, r in enumerate(reader, start=met_at + 3):
        if not r:
            continue
        if len(r) != len(METRIC_HEADER):
            raise DataError(f"{path}: line {lineno}: expected {len(METRIC_HEADER)} "
                            f"metric values, found {len(r)}")
        try:
            rows.append(IterationRow(int(r[0]), int(r[1]), float(r[2]), float(r[3]),
                                     float(r[4]), int(r[5]), float(r[6])))
        except ValueError:
            raise DataError(f"{path}: line {lineno}: unparsable metric values "
                            f"{','.join(r)!r}") from None
    return config, rows
