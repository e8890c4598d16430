"""Mutation fuzzing of every file reader: malformed bytes end in a SnowballError.

Each reader gets a valid seed file, which hypothesis mutates by flipping,
deleting and inserting bytes and by truncating. Whatever comes out, the
reader either parses it or raises a SnowballError, which the CLI maps onto
its exit codes; any other exception would surface as a traceback. A mutated
manifest is also fed to ``snowball report`` through the CLI entry point. A
missing path and a directory raise a SnowballError naming the path too. The
runs are derandomized and keep no example database, so they are reproducible.
"""

import re
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from snowball.cli import build_configs, cli_run, parse_config_file
from snowball.data import load_csv
from snowball.errors import SnowballError
from snowball.network import init_params, load_checkpoint, save_checkpoint
from snowball.records import (IterationRow, RunRecord, StepMetrics, read_manifest,
                              read_step_metrics, write_manifest, write_step_metrics)
from snowball.training import ExperimentConfig

INSERTS = (b"nan", b"1e999", b",", b"\n", b"=", b"\xff")
FUZZ = settings(derandomize=True, max_examples=150, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def mutations(draw):
    """A list of (operation, position in [0, 1), argument) edits."""
    ops = st.one_of(
        st.tuples(st.just("flip"), st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
        st.tuples(st.just("delete"), st.floats(0, 1, exclude_max=True), st.integers(1, 8)),
        st.tuples(st.just("insert"), st.floats(0, 1, exclude_max=True), st.sampled_from(INSERTS)),
        st.tuples(st.just("truncate"), st.floats(0, 1, exclude_max=True), st.none()))
    return draw(st.lists(ops, min_size=1, max_size=4))


def mutate(seed: bytes, edits) -> bytes:
    data = bytearray(seed)
    for op, where, arg in edits:
        at = int(where * (len(data) + (op == "insert")))
        if op == "insert":
            data[at:at] = arg
        elif not data:
            continue
        elif op == "flip":
            data[at] ^= arg
        elif op == "delete":
            del data[at:at + arg]
        else:
            del data[at:]
    return bytes(data)


def seed_manifest(path):
    rows = [IterationRow(1, k, 0.25, 0.125 * k, 0.0, 8 * k, 0.5) for k in (1, 2)]
    write_manifest(path, RunRecord("snowball", asdict(ExperimentConfig()), rows))


def seed_checkpoint(path):
    save_checkpoint(init_params((2, 3, 2), seed=0), path)


def seed_step_metrics(path):
    write_step_metrics(path, [StepMetrics(0, 0.5, 0.25, 0.0, 0.75, 0.0, None, None),
                              StepMetrics(1, 0.5, 0.25, 0.125, 0.875, 0.5, 0.25, float("nan"))])


def seed_csv(path):
    rng = np.random.default_rng(0)
    path.write_text("".join(f"{a!r},{b!r},{i % 2}\n"
                            for i, (a, b) in enumerate(rng.normal(size=(6, 2)).tolist())))


def seed_config(path):
    path.write_text("# run\nsteps = 5\niterations = 2\nlearning_rate = 0.05\nhidden_dims = 4,4\n"
                    "discovery_schedule = 2,4\nbalance_classes = true\n"
                    "master_extra_fraction = 0.5\ndataset = two-moons\ndata_noise = 0.1\n")


def parse_config(path):
    return build_configs(parse_config_file(path))


READERS = {
    "manifest": (seed_manifest, read_manifest),
    "checkpoint": (seed_checkpoint, load_checkpoint),
    "step_metrics": (seed_step_metrics, read_step_metrics),
    "csv": (seed_csv, load_csv),
    "config": (seed_config, parse_config),
}


@pytest.mark.parametrize("kind", sorted(READERS))
def test_seed_file_parses(tmp_path, kind):
    write_seed, read = READERS[kind]
    path = tmp_path / kind
    write_seed(path)
    read(path)


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("unreadable", ["missing", "directory"])
def test_unreadable_path_raises_a_snowball_error(tmp_path, kind, unreadable):
    _, read = READERS[kind]
    path = tmp_path / kind
    if unreadable == "directory":
        path.mkdir()
    with pytest.raises(SnowballError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("kind", sorted(READERS))
@FUZZ
@given(edits=mutations())
def test_mutated_file_parses_or_raises_a_snowball_error(tmp_path, kind, edits):
    write_seed, read = READERS[kind]
    seed_path = tmp_path / f"{kind}.seed"
    if not seed_path.exists():
        write_seed(seed_path)
    path = tmp_path / kind
    path.write_bytes(mutate(seed_path.read_bytes(), edits))
    try:
        read(path)
    except SnowballError:
        pass


@FUZZ
@given(edits=mutations())
def test_report_of_a_mutated_manifest_exits_0_or_2_with_one_line(tmp_path, capsys, edits):
    seed_path = tmp_path / "manifest.seed"
    if not seed_path.exists():
        seed_manifest(seed_path)
    path = tmp_path / "manifest.txt"
    path.write_bytes(mutate(seed_path.read_bytes(), edits))
    code = cli_run(["report", str(path)])
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 2 and err.startswith("data error: ") and err.count("\n") == 1, err
