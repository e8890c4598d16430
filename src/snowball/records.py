"""Run records and every table the package writes.

Each table is a CSV written by one writer and read back by one reader. csv
writes a float by repr, so every float re-reads bit-exactly, and None as an
empty cell. The run directory holds:

- ``manifest.txt``: a magic line, a [config] section of flat ``key = value``
  pairs (the fully resolved configuration) and a [metrics] section holding
  one CSV row per (generation, iteration). Re-running a manifest's config
  must reproduce every metric column except wall_time.
- ``steps-g<m>-i<k>.csv``: one StepMetrics row per training step.
- ``discovery-g<m>-i<k>.csv`` (``train --dump-discovery``): a discovery
  report in rank order.

A sweep adds ``<name>-aggregate.csv`` next to its run directories. Each
reader ends a file it cannot open, decode or parse in one DataError naming
the file.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .discovery import DiscoveryReport
from .errors import DataError, reading
from .network import ModelParams

MANIFEST_MAGIC = "SNOWBALL-RUN v1"
METRIC_HEADER = ("generation", "iteration", "train_err", "test_err",
                 "pseudo_label_noise_rate", "labeled_set_size", "wall_time")
STEP_CSV_HEADER = ("step", "J_C", "J_theta_teacher", "J_theta_master",
                   "J_S", "lambda2", "train_err", "test_err")
REPORT_CSV_HEADER = ("sample_id", "assigned_label", "true_label", "distance", "rank", "selected")


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


class StepMetrics(NamedTuple):
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


@dataclass(eq=False)
class RunRecord:
    """Everything one pipeline run produced.

    collapse is None unless the output model predicts one class for every
    row of a test set that holds several; it then names the model and the
    class. No artifact holds it. Equality and hashing are by identity;
    `rows_equal` compares two runs' metric rows by value.
    """

    algo: str
    config: dict[str, object]
    rows: list[IterationRow]
    models: dict[str, ModelParams] = field(default_factory=dict)
    step_metrics: dict[tuple[int, int], list[StepMetrics]] = field(default_factory=dict)
    reports: dict[tuple[int, int], DiscoveryReport] = field(default_factory=dict)
    collapse: str | None = None

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


def _write_rows(path, header: tuple[str, ...], rows, head: str = "") -> None:
    """Write the text head, then a CSV table. Cells must be Python values:
    under numpy 2, csv would write an np.float64 as ``np.float64(...)``, so
    arrays arrive through ``.tolist()``."""
    with Path(path).open("w", newline="") as handle:
        handle.write(head)
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_rows(path, lines: list[str], first_line: int, header: tuple[str, ...], what: str,
               parsers) -> list[list]:
    """Parse a CSV table whose header is lines[0], line first_line of the file.

    Blank rows are skipped; each other row is parsed cell by cell with
    parsers. A wrong header, a row of the wrong width or a cell that does not
    parse raises one DataError naming the file and line."""
    reader = csv.reader(lines)
    found = tuple(next(reader, ()))
    if found != header:
        raise DataError(f"{path}: unexpected {what}s header {found}")
    rows = []
    for cells in reader:
        if not cells:
            continue
        where = f"{path}: line {first_line + reader.line_num - 1}"
        if len(cells) != len(header):
            raise DataError(f"{where}: expected {len(header)} {what} values, found {len(cells)}")
        try:
            rows.append([parse(cell) for parse, cell in zip(parsers, cells)])
        except ValueError:
            raise DataError(f"{where}: unparsable {what} values {','.join(cells)!r}") from None
    return rows


def write_manifest(path, record: RunRecord) -> None:
    head = [MANIFEST_MAGIC, "[config]", f"algo = {record.algo}"]
    for key, value in sorted(record.config.items()):
        if isinstance(value, (tuple, list)):
            value = ",".join(map(str, value))
        head.append(f"{key} = {value}")
    head.append("[metrics]\n")
    _write_rows(path, METRIC_HEADER, (row.manifest_values() for row in record.rows),
                "\n".join(head))


def read_manifest(path) -> tuple[dict[str, str], list[IterationRow]]:
    """Parse a manifest back into (raw config strings, metric rows)."""
    with reading(path):
        lines = Path(path).read_text().splitlines()
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
    rows = _read_rows(path, lines[met_at + 1:], met_at + 2, METRIC_HEADER, "metric",
                      (int, int, float, float, float, int, float))
    return config, [IterationRow(*values) for values in rows]


def write_step_metrics(path, rows: list[StepMetrics]) -> None:
    _write_rows(path, STEP_CSV_HEADER, rows)


def _float_or_none(cell: str) -> float | None:
    return float(cell) if cell else None


def read_step_metrics(path) -> list[StepMetrics]:
    """Parse a per-step metrics CSV; an empty error cell reads back as None."""
    with reading(path):
        lines = Path(path).read_text().splitlines()
    rows = _read_rows(path, lines, 1, STEP_CSV_HEADER, "step metric",
                      (int, *[float] * 5, _float_or_none, _float_or_none))
    return [StepMetrics(*values) for values in rows]


def write_report_csv(path, report: DiscoveryReport, true_y: np.ndarray) -> None:
    """Dump a report in rank order: sample_id, assigned_label, true_label,
    distance, rank, selected (1 or 0); true_y[i] is sample i's label
    (DatasetSplit.true_y)."""
    ids = report.sample_ids
    _write_rows(path, REPORT_CSV_HEADER,
                zip(ids.tolist(), report.labels.tolist(), true_y[ids].tolist(),
                    report.distances.tolist(), range(len(ids)),
                    report.selected.astype(int).tolist()))


def write_aggregate_csv(path, summary: list[dict[str, float]]) -> None:
    """A sweep's aggregate: one row per (generation, iteration), the columns
    named by the keys of its dicts."""
    _write_rows(path, tuple(summary[0]), (row.values() for row in summary))
