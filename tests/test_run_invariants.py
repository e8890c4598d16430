"""Whole-run invariants on tiny drawn runs of every pipeline.

Hypothesis draws a dataset (two moons or blobs, at most 60 rows), a pipeline
and a config of a few steps covering every fusion, strategy, consistency
kind, activation and depth, with discovery schedules up to ones that empty
the pool. Each run returns or raises a SnowballError. A run that returns
counts its training set from its own reports, adopts no sample twice in a
generation, and its manifest re-runs bit-exactly. The examples are
derandomized and keep no database, so they are reproducible.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from snowball.cli import DataSpec, make_dataset, run_one, verify_manifest
from snowball.discovery import FUSIONS, STRATEGIES
from snowball.errors import SnowballError
from snowball.orchestrator import ALGOS
from snowball.training import ExperimentConfig

RUNS = settings(derandomize=True, max_examples=12, database=None, deadline=None)


@st.composite
def specs(draw):
    if draw(st.booleans()):
        return DataSpec(dataset="two-moons", n_samples=draw(st.integers(12, 60)),
                        data_noise=0.2, labels_per_class=draw(st.integers(1, 2)),
                        test_fraction=0.25)
    classes = draw(st.integers(2, 5))
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
        hidden_dims=draw(st.sampled_from(((), (4,), (4, 4)))),
        activation=draw(st.sampled_from(("relu", "tanh"))),
        strategy=draw(st.sampled_from(STRATEGIES)), fusion=draw(st.sampled_from(FUSIONS)),
        balance_classes=draw(st.booleans()), use_true_labels=draw(st.booleans()),
        seed=draw(st.integers(0, 3)))


@RUNS
@given(algo=st.sampled_from(ALGOS), spec=specs(), config=configs())
def test_run_invariants(algo, spec, config):
    with tempfile.TemporaryDirectory() as out:
        try:
            record, run_dir = run_one(algo, config, spec, Path(out))
        except SnowballError:
            return
        n_labels = len(make_dataset(spec, config.seed).labeled_ids)
        adopted: dict[int, list] = {}
        for row in record.rows:
            report = record.reports.get((row.generation, row.iteration))
            ids = adopted.setdefault(row.generation, [])
            if report is not None:
                ids += report.sample_ids[report.selected].tolist()
            assert row.labeled_size == n_labels + len(ids)
        for ids in adopted.values():
            assert len(set(ids)) == len(ids)
        assert verify_manifest(run_dir / "manifest.txt")
