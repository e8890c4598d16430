"""Whole-run invariants on tiny drawn runs of every pipeline.

Hypothesis draws a dataset (two moons or blobs of up to 12 classes, at most
60 rows), a pipeline and a config of a few steps covering every fusion,
strategy, consistency kind, activation and depth up to three hidden layers,
with discovery schedules up to ones that empty the pool. Each run returns or
raises a SnowballError. The train command, given the same run's config as
--set pairs, reports a raised error with the exit code of its base class and
one stderr line. A run that returns counts its training set from its
own reports, adopts no sample twice in a generation nor one it was given,
recomputes each noise rate from its discovery dump, reloads every checkpoint
and step CSV bit for bit, and its manifest re-runs bit-exactly. On the same
data and config, the degenerate pipelines agree: snowball with one round
and nothing to discover trains mean-teacher's student and teacher, and with
lambda2_max = 0 snowball, mean-teacher and supervised train one student.
The examples are derandomized and keep no database, so they are
reproducible.
"""

import contextlib
import csv
import io
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
import reference

from snowball.cli import DataSpec, cli_run, make_dataset, run_one, verify_manifest
from snowball.discovery import FUSIONS, STRATEGIES
from snowball.errors import (ConfigError, DataError, DivergenceError, NumericsError,
                             SnowballError)
from snowball.network import load_checkpoint
from snowball.orchestrator import ALGOS, run_algorithm
from snowball.records import read_step_metrics
from snowball.training import ExperimentConfig

RUNS = settings(derandomize=True, max_examples=24, database=None, deadline=None)


@st.composite
def specs(draw):
    if draw(st.booleans()):
        return DataSpec(dataset="two-moons", n_samples=draw(st.integers(12, 60)),
                        data_noise=0.2, labels_per_class=draw(st.integers(1, 2)),
                        test_fraction=0.25)
    # past 7 classes the class-axis sums take numpy's pairwise path
    classes = draw(st.integers(2, 12))
    return DataSpec(dataset="blobs", classes=classes,
                    n_per_class=draw(st.integers(4, 60 // classes)), data_noise=1.0,
                    labels_per_class=draw(st.integers(1, 2)), test_fraction=0.25)


@st.composite
def configs(draw):
    iterations = draw(st.integers(1, 2))
    # 64 adoptions empty any pool here; () doubles the labelled set each iteration
    schedule = draw(st.one_of(st.just(()), st.tuples(*[st.integers(0, 64)] * iterations)))
    return ExperimentConfig(
        generations=draw(st.integers(1, 2)), iterations=iterations,
        discovery_schedule=schedule, steps=draw(st.integers(0, 4)),
        labeled_batch=4, unlabeled_batch=draw(st.sampled_from((0, 8))),
        consistency=draw(st.sampled_from(("ce", "mse"))),
        hidden_dims=draw(st.sampled_from(((), (4,), (4, 4), (4, 3, 4)))),
        activation=draw(st.sampled_from(("relu", "tanh"))),
        strategy=draw(st.sampled_from(STRATEGIES)), fusion=draw(st.sampled_from(FUSIONS)),
        balance_classes=draw(st.booleans()), use_true_labels=draw(st.booleans()),
        seed=draw(st.integers(0, 3)))


def dumped_noise_rate(path: Path) -> float:
    """The share of selected rows of a discovery dump whose assigned label is
    not their true label; 0.0 when nothing was discovered."""
    if not path.exists():
        return 0.0
    with path.open(newline="") as handle:
        chosen = [row for row in csv.DictReader(handle) if row["selected"] == "1"]
    return float(np.mean([row["assigned_label"] != row["true_label"] for row in chosen])) \
        if chosen else 0.0


def outcome(algo, data, config):
    """A pipeline's record, or the type and text of the SnowballError it raised."""
    try:
        return run_algorithm(algo, data, config)
    except SnowballError as err:
        return f"{type(err).__name__}: {err}"


# each base class of the package's errors: the exit code and stderr prefix of the command line
EXITS = ((ConfigError, 1, "error: "), (DataError, 2, "data error: "),
         ((DivergenceError, NumericsError), 3, "numerical error: "))


def train_reports(err: SnowballError, algo, spec, config, out) -> None:
    """The train command, given every field of both configs as --set pairs
    (tuples comma-joined, as a manifest writes them), exits with err's code
    and writes one stderr line: the prefix of err's base class, then err."""
    code, prefix = next((code, prefix) for base, code, prefix in EXITS if isinstance(err, base))
    sets = []
    for key, value in {**asdict(config), **asdict(spec)}.items():
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        sets += ["--set", f"{key}={text}"]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        exit_code = cli_run(["train", "--algo", algo, "--out-dir", out, "--dump-discovery", *sets])
    assert (exit_code, stderr.getvalue()) == (code, f"{prefix}{err}\n")


def same_models(records, roles) -> bool:
    """Every record is the same error, or every record holds equal models in roles."""
    errors = [r for r in records if isinstance(r, str)]
    if errors:
        return len(errors) == len(records) and len(set(errors)) == 1
    return all(reference.params_equal(records[0].models[role], r.models[role])
               for r in records[1:] for role in roles)


@RUNS
@given(algo=st.sampled_from(ALGOS), spec=specs(), config=configs())
def test_run_invariants(algo, spec, config):
    with tempfile.TemporaryDirectory() as out:
        try:
            record, run_dir = run_one(algo, config, spec, Path(out), dump_discovery=True)
        except SnowballError as err:
            train_reports(err, algo, spec, config, out)
            return
        labeled_ids = set(make_dataset(spec, config.seed).labeled_ids.tolist())
        adopted: dict[int, list] = {}
        for row in record.rows:
            report = record.reports.get((row.generation, row.iteration))
            ids = adopted.setdefault(row.generation, [])
            if report is not None:
                ids += report.sample_ids[report.selected].tolist()
            assert row.labeled_size == len(labeled_ids) + len(ids)
            dump = run_dir / f"discovery-g{row.generation}-i{row.iteration}.csv"
            assert dump.exists() == (report is not None)
            assert repr(row.noise_rate) == repr(dumped_noise_rate(dump))
        for ids in adopted.values():
            assert len(set(ids)) == len(ids) and not labeled_ids & set(ids)
        for role, model in record.models.items():
            loaded = load_checkpoint(run_dir / f"{role}.ckpt")
            assert loaded.buffer.tobytes() == model.buffer.tobytes()
            assert (loaded.layer_dims, loaded.activation) == (model.layer_dims, model.activation)
        for (m, k), steps in record.step_metrics.items():
            assert read_step_metrics(run_dir / f"steps-g{m}-i{k}.csv") == steps
        assert verify_manifest(run_dir / "manifest.txt")


@RUNS
@given(spec=specs(), config=configs())
def test_degenerate_pipelines_agree(spec, config):
    try:
        data = make_dataset(spec, config.seed)
    except SnowballError:
        return
    one_round = replace(config, generations=1, iterations=1, discovery_schedule=(0,))
    assert same_models([outcome("snowball", data, one_round),
                        outcome("mean-teacher", data, config)], ("student", "teacher"))
    unguided = replace(config, lambda2_max=0.0)
    assert same_models([outcome("snowball", data, replace(one_round, lambda2_max=0.0)),
                        outcome("mean-teacher", data, unguided),
                        outcome("supervised", data, unguided)], ("student",))
