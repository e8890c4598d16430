"""Command-line harness: config plumbing, aggregation, exit codes."""

import dataclasses
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import snowball
import snowball.errors

from snowball.cli import (DataSpec, aggregate, build_configs, cli_run,
                          make_dataset, parse_config_file, parse_seeds, run_one,
                          verify_manifest)
from snowball.errors import (ConfigError, DataError, DivergenceError, NumericsError,
                             SnowballError)
from snowball.orchestrator import ExperimentConfig
from snowball.records import IterationRow, RunRecord, read_manifest, write_manifest

FAST = dict(steps=30, ramp_len=15, generations=1, iterations=1)


def fast_args(tmp_path, *extra, algo="supervised", dataset="two-moons"):
    """argv for a sub-minute training invocation writing under tmp_path."""
    argv = ["train", "--algo", algo, "--dataset", dataset,
            "--labels-per-class", "2", "--seed", "0",
            "--out-dir", str(tmp_path)]
    for key, value in FAST.items():
        argv += ["--set", f"{key}={value}"]
    argv.extend(extra)
    return argv


def fast_sweep_args(tmp_path, seeds):
    """fast_args as a sweep over seeds."""
    argv = fast_args(tmp_path)
    at = argv.index("--seed")
    return ["sweep", "--seeds", seeds] + argv[1:at] + argv[at + 2:]


class TestCoercion:
    def test_typed_round_trip(self):
        cfg, spec = build_configs({"steps": "40", "learning_rate": "0.01",
                                   "balance_classes": "true",
                                   "hidden_dims": "16,8",
                                   "data_noise": "0.2"})
        assert cfg.steps == 40
        assert cfg.learning_rate == 0.01
        assert cfg.balance_classes is True
        assert cfg.hidden_dims == (16, 8)
        assert spec.data_noise == 0.2

    def test_bool_spellings(self):
        for text, expect in (("1", True), ("on", True), ("Yes", True),
                             ("0", False), ("off", False), ("FALSE", False)):
            cfg, _ = build_configs({"balance_classes": text})
            assert cfg.balance_classes is expect

    def test_unparseable_value(self):
        with pytest.raises(ConfigError, match="steps"):
            build_configs({"steps": "abc"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            build_configs({"stepz": "40"})

    @pytest.mark.parametrize("key", ["data_noise", "separation", "test_fraction"])
    def test_non_finite_data_value(self, key):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be finite"):
            build_configs({key: "inf"})

    def test_non_string_values_pass_through(self):
        cfg, _ = build_configs({"steps": 40, "sigma_aug": 0.2})
        assert cfg.steps == 40
        assert cfg.sigma_aug == 0.2


# one bad value per check of ExperimentConfig and DataSpec, with its message
BAD_FIELDS = [
    (ExperimentConfig, {"learning_rate": float("nan")},
     "config key 'learning_rate' must be finite, got nan"),
    (ExperimentConfig, {"generations": 0}, "generations and iterations must be >= 1"),
    (ExperimentConfig, {"iterations": 0}, "generations and iterations must be >= 1"),
    (ExperimentConfig, {"discovery_schedule": (4, 8)},
     "discovery_schedule has 2 entries but 3 iterations are configured"),
    (ExperimentConfig, {"discovery_schedule": (4, -1, 8)},
     "discovery_schedule entries must be >= 0"),
    (ExperimentConfig, {"steps": -1}, "steps must be >= 0, got -1"),
    (ExperimentConfig, {"labeled_batch": 0}, "labeled_batch must be >= 1, got 0"),
    (ExperimentConfig, {"unlabeled_batch": -1}, "unlabeled_batch must be >= 0, got -1"),
    (ExperimentConfig, {"learning_rate": 0.0}, "learning_rate must be positive, got 0.0"),
    (ExperimentConfig, {"momentum": 1.0}, "momentum must lie in [0, 1), got 1.0"),
    (ExperimentConfig, {"l2": -0.5}, "l2 must be non-negative, got -0.5"),
    (ExperimentConfig, {"alpha": 1.5}, "alpha must lie in [0, 1], got 1.5"),
    (ExperimentConfig, {"beta": 3.0}, "beta must lie in [0, 1], got 3.0"),
    (ExperimentConfig, {"lambda1": -1.0}, "loss weights must be non-negative"),
    (ExperimentConfig, {"lambda2_max": -1.0}, "loss weights must be non-negative"),
    (ExperimentConfig, {"ramp_len": -1}, "ramp_len must be >= 0, got -1"),
    (ExperimentConfig, {"sigma_aug": -0.5}, "sigma_aug must be non-negative, got -0.5"),
    (ExperimentConfig, {"consistency": "kl"}, "unknown consistency kind 'kl'"),
    (ExperimentConfig, {"master_weight": -0.5}, "master_weight must be non-negative, got -0.5"),
    (ExperimentConfig, {"master_extra_fraction": -0.5},
     "master_extra_fraction must be >= 0, got -0.5"),
    (ExperimentConfig, {"hidden_dims": (32, 0)},
     "hidden layer widths must be >= 1, got (32, 0)"),
    (ExperimentConfig, {"activation": "swish"}, "unknown activation 'swish'"),
    (ExperimentConfig, {"strategy": "closest"}, "unknown selection strategy 'closest'"),
    (ExperimentConfig, {"fusion": "blend"}, "unknown fusion 'blend'"),
    (ExperimentConfig, {"seed": -1}, "seed must be non-negative, got -1"),
    (DataSpec, {"dataset": "mnist"},
     "unknown dataset 'mnist', expected one of ('two-moons', 'blobs', 'rings', 'csv')"),
    (DataSpec, {"dataset": "csv"}, "dataset 'csv' needs csv_path"),
    (DataSpec, {"data_seed": -2},
     "config key 'data_seed' must be >= 0, or -1 to follow the run seed, got -2"),
    (DataSpec, {"data_noise": float("inf")}, "config key 'data_noise' must be finite, got inf"),
    (DataSpec, {"n_samples": 1}, "n_samples must be >= 2, got 1"),
    (DataSpec, {"classes": 1}, "classes must be >= 2, got 1"),
    (DataSpec, {"n_per_class": 0}, "n_per_class must be >= 1, got 0"),
    (DataSpec, {"data_noise": -1.0}, "data_noise must be non-negative, got -1.0"),
    (DataSpec, {"labels_per_class": 0}, "labels_per_class must be >= 1, got 0"),
    (DataSpec, {"test_fraction": 1.5}, "test_fraction must lie in [0, 1), got 1.5"),
]


# every integer key of both configs, tuples of integers too; bool keys are not counts
INT_KEYS = [key for cls in (ExperimentConfig, DataSpec)
            for key, typ in typing.get_type_hints(cls).items() if typ in (int, tuple[int, ...])]


class TestConfigChecks:
    """A config is checked when it is built, and dataclasses.replace builds one."""

    def test_int_keys_are_every_count_and_seed(self):
        assert sorted(INT_KEYS) == sorted([
            "generations", "iterations", "discovery_schedule", "steps", "labeled_batch",
            "unlabeled_batch", "ramp_len", "master_refine_steps", "hidden_dims", "seed",
            "n_samples", "classes", "n_per_class", "labels_per_class", "data_seed"])

    # building a config allocates nothing, so these values never reach numpy
    @pytest.mark.parametrize("value", [2 ** 63, 2 ** 64 + 5, 10 ** 30])
    @pytest.mark.parametrize("key", INT_KEYS)
    def test_integer_beyond_int64_names_its_key(self, key, value):
        text = f"4,{value}" if key in ("discovery_schedule", "hidden_dims") else str(value)
        with pytest.raises(ConfigError) as err:
            build_configs({key: text})
        assert str(err.value) == f"config key {key!r} must fit a signed 64-bit integer, got {value}"

    @pytest.mark.parametrize("key", ["hidden_dims", "discovery_schedule", "steps"])
    def test_negative_integer_beyond_int64_names_its_key(self, key):
        value = -2 ** 63 - 1
        with pytest.raises(ConfigError, match=f"config key '{key}' must fit a signed 64-bit"):
            build_configs({key: str(value)})

    @pytest.mark.parametrize("key", ["seed", "data_seed", "steps", "hidden_dims"])
    def test_int64_max_builds(self, key):
        build_configs({key: str(2 ** 63 - 1)})

    def test_replace_checks_int64_too(self):
        with pytest.raises(ConfigError, match="'labeled_batch' must fit a signed 64-bit"):
            dataclasses.replace(ExperimentConfig(), labeled_batch=2 ** 63)
        with pytest.raises(ConfigError, match="'n_per_class' must fit a signed 64-bit"):
            dataclasses.replace(DataSpec(), n_per_class=2 ** 63)

    def test_defaults_build(self):
        ExperimentConfig()
        DataSpec()

    @pytest.mark.parametrize("build", ["direct", "replace"])
    @pytest.mark.parametrize("cls, bad, message", BAD_FIELDS, ids=[
        f"{c.__name__}-{k}={v}".replace(" ", "") for c, b, _ in BAD_FIELDS for k, v in b.items()])
    def test_bad_value_raises_its_message(self, cls, bad, message, build):
        with pytest.raises(ConfigError) as err:
            cls(**bad) if build == "direct" else dataclasses.replace(cls(), **bad)
        assert str(err.value) == message


class TestConfigFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# a comment\n\nsteps = 40  # trailing comment\n"
                        "dataset = blobs\n")
        flat = parse_config_file(path)
        assert flat == {"steps": "40", "dataset": "blobs"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config_file(tmp_path / "nope.conf")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("steps = 40\njust words\n")
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_file(path)

    def test_non_utf8_bytes_are_config_error(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"steps = 5\xff\n")
        with pytest.raises(ConfigError, match=r"bad\.conf: .*can't decode byte 0xff"):
            parse_config_file(path)


class TestParseSeeds:
    def test_range(self):
        assert parse_seeds("0..4") == [0, 1, 2, 3, 4]

    def test_list(self):
        assert parse_seeds("0,2,5") == [0, 2, 5]

    def test_single(self):
        assert parse_seeds("7") == [7]

    def test_backwards_range(self):
        with pytest.raises(ConfigError):
            parse_seeds("4..0")

    def test_garbage(self):
        with pytest.raises(ConfigError):
            parse_seeds("a..b")


def record_with(test_errs, config=None, algo="snowball", train_errs=None,
                noises=None):
    rows = [IterationRow(1, k + 1, 0.0 if train_errs is None else train_errs[k],
                         err, 0.0 if noises is None else noises[k], 4, 0.0)
            for k, err in enumerate(test_errs)]
    return RunRecord(algo, dict(config or {"seed": 0}), rows)


class TestAggregate:
    def test_hand_computed_mean_and_std(self):
        recs = [record_with([0.10], {"seed": 0}), record_with([0.20], {"seed": 1})]
        out = aggregate(recs)
        assert len(out) == 1
        assert out[0]["generation"] == 1 and out[0]["iteration"] == 1
        assert out[0]["test_err_mean"] == pytest.approx(0.15)
        # sample std of [0.1, 0.2]: |0.1 - 0.2| / sqrt(2)
        assert out[0]["test_err_std"] == pytest.approx(0.1 / np.sqrt(2))

    def test_single_record_std_zero(self):
        out = aggregate([record_with([0.10, 0.30])])
        assert [r["test_err_std"] for r in out] == [0.0, 0.0]
        assert [r["test_err_mean"] for r in out] == [0.10, 0.30]

    def test_seed_keys_exempt_from_config_match(self):
        recs = [record_with([0.1], {"seed": 0, "data_seed": 5, "steps": 30}),
                record_with([0.2], {"seed": 1, "data_seed": 6, "steps": 30})]
        assert aggregate(recs)[0]["test_err_mean"] == pytest.approx(0.15)

    def test_algo_mismatch(self):
        recs = [record_with([0.1], algo="snowball"),
                record_with([0.1], algo="supervised")]
        with pytest.raises(ConfigError, match="different algorithms"):
            aggregate(recs)

    def test_config_mismatch_names_keys(self):
        recs = [record_with([0.1], {"seed": 0, "steps": 30}),
                record_with([0.1], {"seed": 1, "steps": 60})]
        with pytest.raises(ConfigError, match="steps"):
            aggregate(recs)

    def test_grid_mismatch(self):
        recs = [record_with([0.1]), record_with([0.1, 0.2])]
        with pytest.raises(ConfigError, match="grids"):
            aggregate(recs)

    def test_empty(self):
        with pytest.raises(ConfigError):
            aggregate([])


class TestRunOneVerify:
    def test_artifacts_and_reproducibility(self, tmp_path):
        config = ExperimentConfig(seed=0, **FAST)
        spec = DataSpec(dataset="two-moons", labels_per_class=2)
        record, run_dir = run_one("mean-teacher", config, spec, tmp_path)
        assert (run_dir / "manifest.txt").exists()
        assert (run_dir / "steps-g1-i1.csv").exists()
        assert (run_dir / "student.ckpt").exists()
        assert (run_dir / "teacher.ckpt").exists()
        assert verify_manifest(run_dir / "manifest.txt")

    def test_tampered_metrics_detected(self, tmp_path):
        config = ExperimentConfig(seed=1, **FAST)
        spec = DataSpec(dataset="two-moons", labels_per_class=2)
        _, run_dir = run_one("supervised", config, spec, tmp_path)
        manifest = run_dir / "manifest.txt"
        cfg, rows = read_manifest(manifest)
        text = manifest.read_text().replace(repr(rows[-1].test_err),
                                            repr(rows[-1].test_err + 0.002))
        manifest.write_text(text)
        assert not verify_manifest(manifest)

    def test_unknown_algo_in_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("SNOWBALL-RUN v1\n[config]\nalgo = magic\n"
                            "[metrics]\ngeneration,iteration,train_err,test_err,"
                            "pseudo_label_noise_rate,labeled_set_size,wall_time\n")
        with pytest.raises(ConfigError, match="magic"):
            verify_manifest(manifest)


class TestExitCodes:
    def test_success(self, tmp_path):
        assert cli_run(fast_args(tmp_path)) == 0

    def test_unknown_key_is_usage_error(self, tmp_path):
        assert cli_run(fast_args(tmp_path, "--set", "nope=1")) == 1

    def test_bad_flag_is_usage_error(self, tmp_path):
        assert cli_run(["train", "--no-such-flag"]) == 1

    def test_missing_csv_file_is_data_error(self, tmp_path):
        argv = ["train", "--dataset", "csv", "--set",
                f"csv_path={tmp_path}/missing.csv", "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 2

    # every error class snowball.errors defines, with its exit code
    EXIT_CODES = {ConfigError: 1, DataError: 2, NumericsError: 3, DivergenceError: 3}

    @pytest.mark.parametrize("error, code", EXIT_CODES.items(),
                             ids=[error.__name__ for error in EXIT_CODES])
    def test_each_error_class_exits_with_its_code(self, tmp_path, monkeypatch, capsys,
                                                  error, code):
        defined = {value for value in vars(snowball.errors).values()
                   if isinstance(value, type) and issubclass(value, SnowballError)}
        assert defined - {SnowballError} == set(self.EXIT_CODES)

        def boom(*a, **k):
            raise (error("boom", step=3) if error is DivergenceError else error("boom"))
        monkeypatch.setattr("snowball.cli.run_algorithm", boom)
        assert cli_run(fast_args(tmp_path)) == code
        assert capsys.readouterr().err.endswith("error: boom\n")

    def test_out_of_memory_exits_1_in_one_line(self, tmp_path, monkeypatch, capsys):
        def no_memory(*a, **k):
            raise MemoryError("Unable to allocate 1.49 GiB for an array")
        monkeypatch.setattr("snowball.cli.run_algorithm", no_memory)
        assert cli_run(fast_args(tmp_path)) == 1
        assert capsys.readouterr().err == ("error: out of memory: Unable to allocate 1.49 GiB "
                                           "for an array\n")

    def test_non_utf8_config_file_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.conf"
        path.write_bytes(b"steps = 5\xff\n")
        assert cli_run(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bad.conf" in err and err.count("\n") == 1

    def test_config_that_is_a_directory_exits_1(self, tmp_path, capsys):
        assert cli_run(["train", "--config", str(tmp_path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path}: ") and err.count("\n") == 1

    def test_non_utf8_manifest_exits_2(self, tmp_path, capsys):
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        manifest.write_bytes(manifest.read_bytes() + b"\xff\n")
        capsys.readouterr()
        assert cli_run(["report", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "manifest.txt" in err and err.count("\n") == 1

    @pytest.mark.parametrize("pair", ["l2=nan", "master_extra_fraction=inf",
                                      "master_extra_fraction=nan", "learning_rate=nan"])
    def test_non_finite_config_value_exits_1(self, tmp_path, capsys, pair):
        assert cli_run(fast_args(tmp_path, "--set", pair, algo="snowball")) == 1
        err = capsys.readouterr().err
        key = pair.split("=")[0]
        assert err == f"error: config key {key!r} must be finite, got {pair.split('=')[1]}\n"

    def test_data_seed_below_minus_one_exits_1(self, tmp_path, capsys):
        # only -1 follows the run seed
        assert cli_run(fast_args(tmp_path, "--set", "data_seed=-7")) == 1
        err = capsys.readouterr().err
        assert "'data_seed'" in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("route", ["config", "set"])
    def test_algo_key_is_a_usage_error(self, tmp_path, capsys, route):
        # only --algo chooses the pipeline; the key once ran snowball silently
        config = tmp_path / "run.cfg"
        config.write_text("algo = supervised\n")
        extra = ["--config", str(config)] if route == "config" else ["--set", "algo=supervised"]
        assert cli_run(fast_args(tmp_path / "runs", *extra, algo="snowball")) == 1
        assert capsys.readouterr().err == ("error: config key 'algo' cannot be set in a config "
                                           "file or with --set; train and sweep choose the "
                                           "pipeline with --algo\n")
        assert not (tmp_path / "runs").exists()

    def test_huge_finite_master_extra_fraction_runs(self, tmp_path):
        # ceil(1e308 * N) overflows int(); the extra rows stop at the pool's end
        argv = fast_args(tmp_path, "--set", "master_extra_fraction=1e308", algo="snowball")
        assert cli_run(argv) == 0

    @pytest.mark.parametrize("fraction", ["0", "0.0001"])
    def test_empty_test_set_exits_2_before_training(self, tmp_path, capsys, monkeypatch,
                                                     fraction):
        def no_training(*a, **k):
            raise AssertionError("trained without a test set")
        monkeypatch.setattr("snowball.orchestrator.train_iteration", no_training)
        assert cli_run(fast_args(tmp_path, "--set", f"test_fraction={fraction}")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "test_fraction" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("pair", ["labels_per_class=0", "test_fraction=1.5",
                                      "data_noise=-1", "classes=1", "n_per_class=0",
                                      "n_samples=1"])
    def test_out_of_range_data_value_exits_1_before_any_data(self, tmp_path, capsys,
                                                             monkeypatch, pair):
        def no_data(*a, **k):
            raise AssertionError("made data from an invalid spec")
        monkeypatch.setattr("snowball.cli.make_dataset", no_data)
        # --set alone: fast_args' --labels-per-class would override the pair
        argv = ["train", "--dataset", "two-moons", "--out-dir", str(tmp_path / "runs"),
                "--set", pair]
        assert cli_run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pair.split('=')[0]} must ") and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_dir_that_cannot_hold_runs_exits_2_before_training(
            self, tmp_path, capsys, monkeypatch, command, below):
        def no_training(*a, **k):
            raise AssertionError("trained without a place for the run")
        monkeypatch.setattr("snowball.orchestrator.train_iteration", no_training)
        blocker = tmp_path / "taken"
        blocker.write_text("a file\n")
        out_dir = blocker / "runs" if below else blocker
        argv = fast_args(out_dir) if command == "train" else fast_sweep_args(out_dir, "0,1")
        assert cli_run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"data error: {out_dir}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert blocker.read_text() == "a file\n"

    def test_unwritable_run_file_is_data_error(self, tmp_path, capsys):
        # the run directory exists, but its manifest's name is taken by a directory
        (tmp_path / "supervised-two-moons-seed0" / "manifest.txt").mkdir(parents=True)
        assert cli_run(fast_args(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'supervised-two-moons-seed0'}: ")
        assert err.count("\n") == 1

    def test_unwritable_aggregate_csv_is_data_error(self, tmp_path, capsys):
        (tmp_path / "supervised-aggregate.csv").mkdir()
        assert cli_run(fast_sweep_args(tmp_path, "0")) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'supervised-aggregate.csv'}: ")
        assert err.count("\n") == 1

    def test_report_missing_manifest_is_data_error(self, tmp_path):
        assert cli_run(["report", str(tmp_path / "absent.txt")]) == 2

    @pytest.mark.parametrize("row", ["0,1,0\nnan,1,1\n", "0,1,0\n1,inf,1\n",
                                     "0,1,0\n1,1,nan\n", "0,1,0\n1,1,-inf\n"])
    def test_non_finite_csv_value_is_data_error(self, tmp_path, capsys, row):
        path = tmp_path / "data.csv"
        path.write_text("".join(f"{i % 3},{i % 5},{i % 2}\n" for i in range(40)) + row)
        argv = ["train", "--dataset", "csv", "--set", f"csv_path={path}",
                "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 2
        assert capsys.readouterr().err.startswith("data error: ")

    def test_truncated_manifest_is_data_error(self, tmp_path, capsys):
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        manifest.write_text(manifest.read_text() + "2,1\n")
        capsys.readouterr()
        assert cli_run(["report", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert "expected 7 metric values" in err and err.count("\n") == 1

    @pytest.mark.parametrize("extra, where", [
        (("--set", "learning_rate=1e200"), "iteration 1, step 0"),
        (("--set", "learning_rate=1e200", "--set", "steps=0",
          "--set", "master_refine_steps=5"), "iteration 1, refine step"),
    ], ids=["training", "refinement"])
    def test_divergence_is_one_stderr_line_without_numpy_warnings(self, tmp_path, extra, where):
        src = str(Path(snowball.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "snowball", *fast_args(tmp_path, *extra, algo="snowball")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("numerical error: ") and where in lines[0]

    def test_integer_beyond_int64_is_one_stderr_line(self, tmp_path):
        src = str(Path(snowball.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        argv = [sys.executable, "-m", "snowball", *fast_args(
            tmp_path, "--set", "labeled_batch=10000000000000000000", algo="snowball")]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ("error: config key 'labeled_batch' must fit a signed 64-bit "
                               "integer, got 10000000000000000000\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_seed_list(self, tmp_path):
        argv = ["sweep", "--dataset", "two-moons", "--seeds", "x..y",
                "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 1

    @pytest.mark.parametrize("seeds, message", [
        ("0,0", "repeats a seed"),  # both runs would write the same ...-seed0 directory
        ("0,-1", "holds a negative seed"),  # numpy cannot seed -1, so it fails before seed 0
        ("-1..1", "holds a negative seed"),
        ("0,,1", "cannot parse seed list"),  # every comma list of sweep's rejects an empty item
        ("", "cannot parse seed list")],
        ids=["repeated", "negative", "negative-range", "empty-item", "empty"])
    def test_bad_seed_fails_before_any_run(self, tmp_path, capsys, seeds, message):
        argv = ["sweep", "--dataset", "two-moons", f"--seeds={seeds}",
                "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    OWNED_MESSAGE = ("error: config keys {1} are set by {0} for each run, "
                     "not by a config file or --set\n")

    @pytest.mark.parametrize("route", ["flag", "set", "config"])
    def test_sweep_seed_key_is_a_usage_error(self, tmp_path, capsys, route):
        # --seeds sets every run's seed; a run seed was once replaced silently
        config = tmp_path / "run.cfg"
        config.write_text("seed = 9\n")
        extra = {"flag": ["--seed", "9"], "set": ["--set", "seed=9"],
                 "config": ["--config", str(config)]}[route]
        argv = ["sweep", "--dataset", "two-moons", "--seeds", "0..1",
                "--out-dir", str(tmp_path / "runs"), *extra]
        assert cli_run(argv) == 1
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --seed 9\n"
                                       if route == "flag"
                                       else self.OWNED_MESSAGE.format("sweep", ["seed"]))
        assert not (tmp_path / "runs").exists()

    # each key is one that sweep sets in every run it makes; the user's value
    # was once silently replaced (seed: test_sweep_seed_key_is_a_usage_error)
    @pytest.mark.parametrize("vary, pairs", [
        ("strategy=min,random,max", ["strategy=max"]),
        ("use_true_labels=true,false", ["use_true_labels=false"]),
        ("strategy=min,max", ["strategy=max", "seed=3"]),
        ("fusion=average_distance,feature_cascade", ["fusion=feature_cascade"]),
    ], ids=["strategy", "use_true_labels", "with-seed", "fusion"])
    @pytest.mark.parametrize("route", ["set", "config"])
    def test_owned_key_is_a_usage_error(self, tmp_path, capsys, vary, pairs, route):
        config = tmp_path / "run.cfg"
        config.write_text("".join(f"{pair}\n" for pair in pairs))
        extra = (["--config", str(config)] if route == "config"
                 else [arg for pair in pairs for arg in ("--set", pair)])
        argv = ["sweep", "--seeds", "0", "--vary", vary, "--dataset", "blobs",
                "--out-dir", str(tmp_path / "runs"),
                "--set", "steps=10", "--set", "generations=1", "--set", "iterations=1",
                "--set", "n_per_class=40", *extra]
        assert cli_run(argv) == 1
        owned = sorted(pair.split("=")[0] for pair in pairs)
        assert capsys.readouterr() == ("", self.OWNED_MESSAGE.format("sweep", owned))
        assert not (tmp_path / "runs").exists()

    # sweep's grid options; each fails before the output root is made
    @pytest.mark.parametrize("grid, message", [
        *[([f"--vary={key}=1,2"], f"--vary takes a scalar config key other than seed, got "
                                  f"{key!r}")
          for key in ("nonsense", "n_per_class", "seed", "hidden_dims", "discovery_schedule", "")],
        (["--vary=master_weight=0,0.0"], "--vary 'master_weight=0,0.0' holds an empty or "
                                         "repeated item"),
        (["--vary=strategy=min,max,min"], "--vary 'strategy=min,max,min' holds an empty or "
                                          "repeated item"),
        (["--vary=master_weight=0,,1"], "--vary 'master_weight=0,,1' holds an empty or "
                                        "repeated item"),
        (["--vary=master_weight="], "--vary 'master_weight=' holds an empty or repeated item"),
        (["--vary=master_weight"], "--vary expects KEY=V1,V2,..., got 'master_weight'"),
        (["--vary=master_weight=0,x"], "config key 'master_weight': cannot parse 'x' as "
                                       "<class 'float'>"),
        (["--vary=beta=0.5,3"], "beta must lie in [0, 1], got 3.0"),
        (["--algo=snowball,nonsense"], "unknown algo 'nonsense', expected one of "
                                       "('snowball', 'mean-teacher', 'self-learning', "
                                       "'supervised')"),
        (["--algo=snowball,snowball"], "--algo 'snowball,snowball' holds an empty or "
                                       "repeated item"),
        (["--algo=snowball,"], "--algo 'snowball,' holds an empty or repeated item"),
        # a pipeline's own override would replace the varied value in every run
        (["--algo=mean-teacher", "--vary=generations=1,3"],
         "the mean-teacher pipeline fixes config key 'generations', so sweep cannot vary it"),
        (["--algo=snowball,self-learning", "--vary=lambda2_max=1,3"],
         "the self-learning pipeline fixes config key 'lambda2_max', so sweep cannot vary it"),
    ], ids=["unknown-key", "data-key", "seed", "hidden_dims", "discovery_schedule",
            "empty-key", "repeated-float", "repeated-str", "empty-value", "no-values",
            "no-equals", "unparsable", "invalid-value", "unknown-algo", "repeated-algo",
            "empty-algo", "pipeline-fixed-key", "pipeline-fixed-key-in-a-list"])
    def test_bad_grid_fails_before_any_run(self, tmp_path, capsys, grid, message):
        argv = ["sweep", "--seeds", "0", "--dataset", "two-moons",
                "--out-dir", str(tmp_path / "runs"), *grid]
        assert cli_run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_run_command_options_are_not_abbreviated(self, tmp_path, capsys, command):
        # an abbreviation once read sweep's '--seed 9' as '--seeds 9'
        argv = [command, "--dataset", "two-moons", "--labels", "2",
                "--out-dir", str(tmp_path / "runs")]
        assert cli_run(argv) == 1
        assert capsys.readouterr() == ("", "error: unrecognized arguments: --labels 2\n")
        assert not (tmp_path / "runs").exists()


class TestCliBehaviour:
    def test_refinement_overflow_names_the_update_that_made_the_weights(self, tmp_path,
                                                                         capsys):
        # refine step 0's update leaves finite weights whose forward pass
        # overflows at step 1; like training, the divergence is step 0's
        argv = ["train", "--algo", "snowball", "--dataset", "two-moons",
                "--labels-per-class", "2", "--seed", "0", "--out-dir", str(tmp_path),
                "--set", "steps=0", "--set", "master_refine_steps=5",
                "--set", "learning_rate=1e200", "--set", "generations=1",
                "--set", "iterations=1"]
        assert cli_run(argv) == 3
        err = capsys.readouterr().err
        assert "generation 1, iteration 1, refine step 0" in err, err

    def test_set_overrides_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("steps = 40\nramp_len = 20\ngenerations = 1\n"
                        "iterations = 1\nlabels_per_class = 2\n")
        argv = ["train", "--algo", "supervised", "--dataset", "two-moons",
                "--config", str(conf), "--set", "steps=60",
                "--seed", "0", "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 0
        cfg, _ = read_manifest(tmp_path / "supervised-two-moons-seed0" /
                               "manifest.txt")
        assert cfg["steps"] == "60"
        assert cfg["ramp_len"] == "20"

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SNOWBALL_OUT_DIR", str(tmp_path / "envruns"))
        argv = [a for a in fast_args(tmp_path) if a != "--out-dir"
                and a != str(tmp_path)]
        assert cli_run(argv) == 0
        assert (tmp_path / "envruns" / "supervised-two-moons-seed0" /
                "manifest.txt").exists()

    def test_name_flag(self, tmp_path):
        assert cli_run(fast_args(tmp_path, "--name", "mine")) == 0
        assert (tmp_path / "mine" / "manifest.txt").exists()

    def test_report_verify_round_trip(self, tmp_path):
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        assert cli_run(["report", str(manifest)]) == 0
        assert cli_run(["report", "--verify", str(manifest)]) == 0

    def test_report_verify_of_a_nan_test_err_says_no(self, tmp_path, capsys):
        # no run writes nan, so a manifest that holds one never verifies
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        *head, last = manifest.read_text().splitlines()
        cells = last.split(",")
        cells[3] = "nan"  # test_err
        manifest.write_text("\n".join([*head, ",".join(cells)]) + "\n")
        capsys.readouterr()
        assert cli_run(["report", "--verify", str(manifest)]) == 1
        assert capsys.readouterr().out.endswith("bit-identically: NO\n")

    def test_sweep_aggregates(self, tmp_path, capsys):
        argv = ["sweep", "--algo", "supervised", "--dataset", "two-moons",
                "--labels-per-class", "2", "--seeds", "0,1",
                "--out-dir", str(tmp_path)]
        for key, value in FAST.items():
            argv += ["--set", f"{key}={value}"]
        assert cli_run(argv) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "<out>")
        assert out == ("seed 0: final test error 0.1560 (<out>/supervised-seed0)\n"
                       "seed 1: final test error 0.2000 (<out>/supervised-seed1)\n"
                       "\n"
                       "aggregate over 2 seeds (mean +/- sample std), algo supervised:\n"
                       "  g1 i1: test 0.1780 +/- 0.0311  noise 0.0000 +/- 0.0000\n")
        assert (tmp_path / "supervised-seed0" / "manifest.txt").exists()
        assert (tmp_path / "supervised-seed1" / "manifest.txt").exists()

    # lr = 1e6 pins the losses at the log clamp; every snowball model ends up
    # predicting class 0 for the whole two-class test set
    COLLAPSING = ["--dataset", "two-moons",
                  "--set", "learning_rate=1e6", "--set", "steps=60",
                  "--set", "generations=1", "--set", "iterations=2"]
    COLLAPSE_WARNING = ("warning: training collapsed in {}: the teacher predicts class 0 "
                        "for all 500 test rows")

    # one warning per collapsed run, naming its directory; the snowball,
    # self-learning grid warns once: self-learning's student keeps both classes
    @pytest.mark.parametrize("command, run_dirs", [
        pytest.param(["train", "--algo", "snowball", "--seed", "0"], ["snowball-two-moons-seed0"],
                     id="train"),
        pytest.param(["sweep", "--algo", "snowball", "--seeds", "0"], ["snowball-seed0"],
                     id="sweep"),
        pytest.param(["sweep", "--seeds", "0", "--vary", "strategy=min,random,max",
                      "--set", "use_true_labels=true"],
                     ["snowball-strategy=min-seed0", "snowball-strategy=random-seed0",
                      "snowball-strategy=max-seed0"], id="vary-strategy"),
        pytest.param(["sweep", "--seeds", "0", "--vary", "fusion=average_distance,"
                      "feature_cascade,average_sorting_score"],
                     ["snowball-fusion=average_distance-seed0",
                      "snowball-fusion=feature_cascade-seed0",
                      "snowball-fusion=average_sorting_score-seed0"], id="vary-fusion"),
        pytest.param(["sweep", "--seeds", "0", "--algo", "snowball,self-learning"],
                     ["snowball-seed0"], id="algo-list"),
    ])
    def test_collapsed_training_warns_and_exits_0(self, tmp_path, capsys, command, run_dirs):
        assert cli_run([*command, "--out-dir", str(tmp_path), *self.COLLAPSING]) == 0
        expected = [self.COLLAPSE_WARNING.format(tmp_path / name) for name in run_dirs]
        if "fusion=average_distance,feature_cascade,average_sorting_score" in command:
            expected.append("note: each run made 2 of the 3 discoveries fusion needs to "
                            "combine two masters, so it played no part in these rows")
        assert capsys.readouterr().err.splitlines() == expected
        manifests = list(tmp_path.glob("*/manifest.txt"))
        assert manifests and not any("collapse" in m.read_text() for m in manifests)

    def test_help_lists_the_three_commands(self, capsys):
        # the single-seed ablate-* commands became sweep grids
        assert cli_run(["--help"]) == 0
        assert "{train,sweep,report}" in capsys.readouterr().out

    def test_healthy_run_does_not_warn(self, tmp_path, capsys):
        assert cli_run(fast_args(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    GRID_COMMON = ["--dataset", "blobs", "--labels-per-class", "2",
                   "--set", "steps=25", "--set", "ramp_len=12",
                   "--set", "generations=1", "--set", "iterations=1",
                   "--set", "n_per_class=40"]
    # noisier blobs, four iterations of six discoveries and a fast master EMA,
    # so the three past masters differ and every final row of both grids differs
    GRID_DISTINCT = ["--dataset", "blobs", "--labels-per-class", "2",
                     "--set", "steps=40", "--set", "ramp_len=12",
                     "--set", "generations=1", "--set", "iterations=4",
                     "--set", "n_per_class=40", "--set", "data_noise=1.5",
                     "--set", "discovery_schedule=6,6,6,6", "--set", "beta=0.5"]
    # the grids that replaced the single-seed ablation commands; selection
    # trains on the selected samples' true labels
    SELECTION = ["--vary", "strategy=min,random,max", "--set", "use_true_labels=true"]
    FUSION = ["--vary", "fusion=average_distance,feature_cascade,average_sorting_score"]
    GUIDANCE = ["--algo", "snowball,self-learning"]
    # sweep's stderr for the fusion grid when its runs made fewer than three discoveries
    FUSION_NOTE = ("note: each run made 1 of the 3 discoveries fusion needs to combine "
                   "two masters, so it played no part in these rows\n")
    # (test_err, noise_rate) of the final row of each run (every row for guidance)
    # as written by the ablation commands these grids replaced
    ABLATION_ROWS = {
        ("selection", "common"): {f"snowball-strategy={value}-seed0":
                                  [(0.16981132075471697, 0.0)] for value in ("min", "random", "max")},
        ("fusion", "common"): {f"snowball-fusion={value}-seed0": [(0.16981132075471697, 0.0)]
                               for value in ("average_distance", "feature_cascade",
                                             "average_sorting_score")},
        ("guidance", "common"): {"snowball-seed0": [(0.16981132075471697, 0.0)],
                                 "self-learning-seed0": [(0.0, 0.0)]},
        ("selection", "distinct"): {
            "snowball-strategy=min-seed0": [(0.3018867924528302, 0.16666666666666666)],
            "snowball-strategy=random-seed0": [(0.2830188679245283, 0.3333333333333333)],
            "snowball-strategy=max-seed0": [(0.2830188679245283, 0.3333333333333333)]},
        ("fusion", "distinct"): {
            "snowball-fusion=average_distance-seed0": [(0.3018867924528302, 0.0)],
            "snowball-fusion=feature_cascade-seed0": [(0.2830188679245283, 0.0)],
            "snowball-fusion=average_sorting_score-seed0": [(0.2830188679245283,
                                                             0.16666666666666666)]},
    }

    @pytest.mark.parametrize("grid, data", [
        ("selection", "common"), ("fusion", "common"), ("guidance", "common"),
        ("selection", "distinct"), ("fusion", "distinct")])
    def test_grids_reproduce_the_ablation_rows(self, tmp_path, capsys, grid, data):
        argv = ["sweep", "--seeds", "0",
                *{"common": self.GRID_COMMON, "distinct": self.GRID_DISTINCT}[data],
                *{"selection": self.SELECTION, "fusion": self.FUSION,
                  "guidance": self.GUIDANCE}[grid], "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 0
        expected = self.ABLATION_ROWS[(grid, data)]
        for name, rows in expected.items():
            _, got = read_manifest(tmp_path / name / "manifest.txt")
            got = got if grid == "guidance" else got[-1:]
            assert [(repr(row.test_err), repr(row.noise_rate)) for row in got] == \
                [(repr(test_err), repr(noise)) for test_err, noise in rows], name
            assert (tmp_path / f"{name.removesuffix('-seed0')}-aggregate.csv").exists()
        assert sorted(path.name for path in tmp_path.glob("*-seed0")) == sorted(expected)
        err = capsys.readouterr().err
        assert err == (self.FUSION_NOTE if (grid, data) == ("fusion", "common") else "")

    # stdout of a grid of two pipelines by two strategies over three seeds
    GRID_STDOUT = (
        'variant cmp-snowball-strategy=min:\n'
        'seed 0: final test error 0.2830 (<out>/cmp-snowball-strategy=min-seed0)\n'
        'seed 1: final test error 0.3774 (<out>/cmp-snowball-strategy=min-seed1)\n'
        'seed 2: final test error 0.3208 (<out>/cmp-snowball-strategy=min-seed2)\n'
        '\n'
        'aggregate over 3 seeds (mean +/- sample std), algo snowball:\n'
        '  g1 i1: test 0.3962 +/- 0.1361  noise 0.2778 +/- 0.1925\n'
        '  g1 i2: test 0.3270 +/- 0.0109  noise 0.5000 +/- 0.1667\n'
        '  g1 i3: test 0.3082 +/- 0.0218  noise 0.2222 +/- 0.1925\n'
        '  g1 i4: test 0.3270 +/- 0.0475  noise 0.0000 +/- 0.0000\n'
        '\n'
        'variant cmp-snowball-strategy=max:\n'
        'seed 0: final test error 0.5472 (<out>/cmp-snowball-strategy=max-seed0)\n'
        'seed 1: final test error 0.3774 (<out>/cmp-snowball-strategy=max-seed1)\n'
        'seed 2: final test error 0.3208 (<out>/cmp-snowball-strategy=max-seed2)\n'
        '\n'
        'aggregate over 3 seeds (mean +/- sample std), algo snowball:\n'
        '  g1 i1: test 0.3962 +/- 0.1361  noise 0.5000 +/- 0.4410\n'
        '  g1 i2: test 0.3836 +/- 0.1089  noise 0.2778 +/- 0.1925\n'
        '  g1 i3: test 0.4528 +/- 0.1612  noise 0.6667 +/- 0.0000\n'
        '  g1 i4: test 0.4151 +/- 0.1178  noise 0.5000 +/- 0.1667\n'
        '\n'
        'variant cmp-self-learning-strategy=min:\n'
        'seed 0: final test error 0.3774 (<out>/cmp-self-learning-strategy=min-seed0)\n'
        'seed 1: final test error 0.4151 (<out>/cmp-self-learning-strategy=min-seed1)\n'
        'seed 2: final test error 0.2642 (<out>/cmp-self-learning-strategy=min-seed2)\n'
        '\n'
        'aggregate over 3 seeds (mean +/- sample std), algo self-learning:\n'
        '  g1 i1: test 0.3648 +/- 0.1256  noise 0.2222 +/- 0.1925\n'
        '  g1 i2: test 0.3585 +/- 0.0755  noise 0.2778 +/- 0.1925\n'
        '  g1 i3: test 0.3711 +/- 0.0786  noise 0.1667 +/- 0.0000\n'
        '  g1 i4: test 0.3522 +/- 0.0786  noise 0.1667 +/- 0.0000\n'
        '\n'
        'variant cmp-self-learning-strategy=max:\n'
        'seed 0: final test error 0.5472 (<out>/cmp-self-learning-strategy=max-seed0)\n'
        'seed 1: final test error 0.4906 (<out>/cmp-self-learning-strategy=max-seed1)\n'
        'seed 2: final test error 0.3585 (<out>/cmp-self-learning-strategy=max-seed2)\n'
        '\n'
        'aggregate over 3 seeds (mean +/- sample std), algo self-learning:\n'
        '  g1 i1: test 0.3648 +/- 0.1256  noise 0.3333 +/- 0.1667\n'
        '  g1 i2: test 0.3459 +/- 0.0475  noise 0.6111 +/- 0.2546\n'
        '  g1 i3: test 0.3648 +/- 0.0436  noise 0.5556 +/- 0.0962\n'
        '  g1 i4: test 0.4654 +/- 0.0968  noise 0.3889 +/- 0.2546\n'
        '\n'
        'final rows (mean +/- sample std) and seeds at or below cmp-snowball-strategy=min:\n'
        '  cmp-snowball-strategy=min       test 0.3270 +/- 0.0475  noise 0.0000 +/- 0.0000  3/3\n'
        '  cmp-snowball-strategy=max       test 0.4151 +/- 0.1178  noise 0.5000 +/- 0.1667  2/3\n'
        '  cmp-self-learning-strategy=min  test 0.3522 +/- 0.0786  noise 0.1667 +/- 0.0000  1/3\n'
        '  cmp-self-learning-strategy=max  test 0.4654 +/- 0.0968  noise 0.3889 +/- 0.2546  0/3\n'
    )

    def test_grid_prints_each_variant_then_the_final_rows(self, tmp_path, capsys):
        argv = ["sweep", *self.GRID_DISTINCT, "--seeds", "0..2", "--name", "cmp",
                *self.GUIDANCE, "--vary", "strategy=min,max", "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 0
        out = capsys.readouterr().out.replace(str(tmp_path), "<out>")
        assert out == self.GRID_STDOUT
        assert sorted(path.name for path in tmp_path.glob("*-aggregate.csv")) == [
            f"cmp-{algo}-strategy={value}-aggregate.csv"
            for algo in ("self-learning", "snowball") for value in ("max", "min")]

    def test_dump_discovery_writes_reports(self, tmp_path):
        argv = fast_args(tmp_path, "--dump-discovery", algo="snowball")
        assert cli_run(argv) == 0
        run_dir = tmp_path / "snowball-two-moons-seed0"
        assert (run_dir / "discovery-g1-i1.csv").exists()
        header = (run_dir / "discovery-g1-i1.csv").read_text().splitlines()[0]
        assert header == "sample_id,assigned_label,true_label,distance,rank,selected"

    def test_a_reused_run_directory_holds_only_the_latest_runs_artifacts(self, tmp_path):
        # nine step CSVs, nine discovery dumps and a master, then a run of one
        # iteration without a master under the same name
        first = ["train", "--set", "steps=3", "--name", "x", "--out-dir", str(tmp_path / "a"),
                 "--dump-discovery"]
        second = ["train", "--algo", "mean-teacher", "--set", "steps=3", "--name", "x"]
        run_dir = tmp_path / "a" / "x"
        run_dir.mkdir(parents=True)
        kept = {"notes.txt": "mine", "steps.csv": "not a step table"}
        for name, text in kept.items():
            (run_dir / name).write_text(text)
        assert cli_run(first) == 0
        assert (run_dir / "master.ckpt").exists() and (run_dir / "discovery-g3-i3.csv").exists()
        assert cli_run(second + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_run(second + ["--out-dir", str(tmp_path / "b")]) == 0
        fresh = sorted(path.name for path in (tmp_path / "b" / "x").iterdir())
        assert fresh == ["manifest.txt", "steps-g1-i1.csv", "student.ckpt", "teacher.ckpt"]
        assert sorted(path.name for path in run_dir.iterdir()) == sorted(fresh + list(kept))
        assert all((run_dir / name).read_text() == text for name, text in kept.items())
        assert cli_run(["report", "--verify", str(run_dir / "manifest.txt")]) == 0

    def test_noise_rate_recomputes_from_the_discovery_dump(self, tmp_path):
        # noisy blobs, so the selected pseudo-labels are not all correct
        argv = ["train", "--algo", "snowball", "--out-dir", str(tmp_path),
                "--seed", "0", "--dump-discovery", *self.GRID_DISTINCT, "--set", "generations=2"]
        assert cli_run(argv) == 0
        run_dir = tmp_path / "snowball-blobs-seed0"
        _, rows = read_manifest(run_dir / "manifest.txt")
        assert len(rows) == 8 and any(row.noise_rate > 0.0 for row in rows)
        for row in rows:
            dump = np.loadtxt(run_dir / f"discovery-g{row.generation}-i{row.iteration}.csv",
                              delimiter=",", skiprows=1, dtype=float, ndmin=2)
            chosen = dump[dump[:, 5] == 1]
            assert len(chosen) == 6
            want = float(np.mean(chosen[:, 1] != chosen[:, 2]))
            assert repr(row.noise_rate) == repr(want)


class TestConfigRoundTrip:
    def test_every_field_survives_the_manifest(self, tmp_path):
        config = ExperimentConfig(
            generations=2, iterations=2, discovery_schedule=(3, 5), steps=40,
            labeled_batch=4, unlabeled_batch=20, learning_rate=0.1 + 0.2,
            momentum=0.8, l2=1e-4 / 3, alpha=0.95, beta=0.97, lambda1=0.5,
            lambda2_max=2.5, ramp_len=20, sigma_aug=0.15, consistency="mse",
            master_weight=0.5, master_extra_fraction=0.25, master_refine_steps=7,
            hidden_dims=(16, 8), activation="tanh", strategy="random",
            fusion="feature_cascade", balance_classes=True, use_true_labels=True,
            seed=5)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(config, f.name) != f.default, f.name
        spec = DataSpec(dataset="blobs", classes=3, data_noise=0.3)
        record = RunRecord("snowball", {**dataclasses.asdict(config), **dataclasses.asdict(spec)},
                           [IterationRow(1, 1, 0.5, 0.25, 0.0, 12, 1.5)])
        write_manifest(tmp_path / "manifest.txt", record)
        raw, _ = read_manifest(tmp_path / "manifest.txt")
        assert raw.pop("algo") == "snowball"
        assert build_configs(raw) == (config, spec)

    def parent_format_manifest(self, tmp_path, **retired):
        """A manifest as written before the given keys were retired."""
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        lines = "".join(f"{key} = {value}\n" for key, value in retired.items())
        manifest.write_text(manifest.read_text().replace("[config]\n", f"[config]\n{lines}"))
        return manifest

    def test_retired_keys_at_their_only_value_verify(self, tmp_path):
        manifest = self.parent_format_manifest(tmp_path, ema_every=1, ema_warmup=False)
        assert cli_run(["report", "--verify", str(manifest)]) == 0

    def test_retired_csv_classes_at_0_verifies(self, tmp_path):
        manifest = self.parent_format_manifest(tmp_path, csv_classes=0)
        assert cli_run(["report", "--verify", str(manifest)]) == 0

    def test_csv_classes_set_to_another_value_is_a_usage_error(self, tmp_path, capsys):
        assert cli_run(fast_args(tmp_path, "--set", "csv_classes=3")) == 1
        assert capsys.readouterr().err == ("error: config key 'csv_classes' is retired; only "
                                           "csv_classes = 0 is accepted, got '3'\n")

    @pytest.mark.parametrize("key, value", [("beta", "3"), ("bogus", "1"), ("steps", "five"),
                                            ("ema_every", "2")])
    def test_config_that_fails_to_build_names_the_manifest(self, tmp_path, capsys, key, value):
        manifest = self.parent_format_manifest(tmp_path)
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", manifest.read_text(),
                              flags=re.M)
        if not count:
            text = text.replace("[config]\n", f"[config]\n{key} = {value}\n")
        manifest.write_text(text)
        capsys.readouterr()
        assert cli_run(["report", "--verify", str(manifest)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {manifest}: ") and err.count("\n") == 1 \
            and err.endswith("\n")

    @pytest.mark.parametrize("ema_every, ema_warmup", [(2, False), (1, True), ("x", False)])
    def test_retired_keys_at_another_value_are_usage_errors(self, tmp_path, capsys,
                                                            ema_every, ema_warmup):
        manifest = self.parent_format_manifest(tmp_path, ema_every=ema_every,
                                               ema_warmup=ema_warmup)
        capsys.readouterr()
        assert cli_run(["report", "--verify", str(manifest)]) == 1
        assert "is retired" in capsys.readouterr().err


class TestMakeDataset:
    def test_data_seed_follows_run_seed_by_default(self):
        spec = DataSpec(dataset="two-moons", labels_per_class=2)
        a = make_dataset(spec, 3)
        b = make_dataset(spec, 3)
        c = make_dataset(spec, 4)
        np.testing.assert_array_equal(a.x[a.labeled_ids], b.x[b.labeled_ids])
        assert not np.array_equal(a.x[a.labeled_ids], c.x[c.labeled_ids])

    def test_fixed_data_seed_decouples_from_run_seed(self):
        spec = DataSpec(dataset="two-moons", labels_per_class=2, data_seed=9)
        a = make_dataset(spec, 0)
        b = make_dataset(spec, 123)
        np.testing.assert_array_equal(a.x[a.labeled_ids], b.x[b.labeled_ids])
        np.testing.assert_array_equal(a.x[a.test_ids], b.x[b.test_ids])
