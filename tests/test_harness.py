"""Command-line harness: config plumbing, aggregation, exit codes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import snowball

from snowball.cli import (DataSpec, aggregate, build_configs, cli_run,
                          dataclass_flat, make_dataset, parse_config_file,
                          parse_seeds, rerun_manifest, run_one, verify_manifest)
from snowball.errors import (AggregationError, ConfigError, DiscoveryError,
                             DivergenceError, NumericsError, OrchestrationError)
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


class TestCoercion:
    def test_typed_round_trip(self):
        cfg, spec = build_configs({"steps": "40", "learning_rate": "0.01",
                                   "balance_classes": "true",
                                   "hidden_dims": "16,8",
                                   "data_noise": "0.2", "algo": "snowball"})
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

    def test_non_string_values_pass_through(self):
        cfg, _ = build_configs({"steps": 40, "sigma_aug": 0.2})
        assert cfg.steps == 40
        assert cfg.sigma_aug == 0.2


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
        with pytest.raises(AggregationError, match="different algorithms"):
            aggregate(recs)

    def test_config_mismatch_names_keys(self):
        recs = [record_with([0.1], {"seed": 0, "steps": 30}),
                record_with([0.1], {"seed": 1, "steps": 60})]
        with pytest.raises(AggregationError, match="steps"):
            aggregate(recs)

    def test_grid_mismatch(self):
        recs = [record_with([0.1]), record_with([0.1, 0.2])]
        with pytest.raises(AggregationError, match="grids"):
            aggregate(recs)

    def test_empty(self):
        with pytest.raises(AggregationError):
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
            rerun_manifest(manifest)


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

    def test_discovery_error_maps_to_2(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise DiscoveryError("empty class")
        monkeypatch.setattr("snowball.cli.run_algorithm", boom)
        assert cli_run(fast_args(tmp_path)) == 2

    def test_divergence_maps_to_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise DivergenceError("training diverged at step 3", step=3)
        monkeypatch.setattr("snowball.cli.run_algorithm", boom)
        assert cli_run(fast_args(tmp_path)) == 3

    def test_numerics_maps_to_3(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise NumericsError("non-finite activations")
        monkeypatch.setattr("snowball.cli.run_algorithm", boom)
        assert cli_run(fast_args(tmp_path)) == 3

    def test_orchestration_maps_to_1(self, tmp_path, monkeypatch):
        def boom(*a, **k):
            raise OrchestrationError("bad schedule")
        monkeypatch.setattr("snowball.cli.run_algorithm", boom)
        assert cli_run(fast_args(tmp_path)) == 1

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

    def test_bad_seed_list(self, tmp_path):
        argv = ["sweep", "--dataset", "two-moons", "--seeds", "x..y",
                "--out-dir", str(tmp_path)]
        assert cli_run(argv) == 1


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

    def test_sweep_aggregates(self, tmp_path, capsys):
        argv = ["sweep", "--algo", "supervised", "--dataset", "two-moons",
                "--labels-per-class", "2", "--seeds", "0,1",
                "--out-dir", str(tmp_path)]
        for key, value in FAST.items():
            argv += ["--set", f"{key}={value}"]
        assert cli_run(argv) == 0
        out = capsys.readouterr().out
        assert "aggregate over 2 seeds" in out
        assert (tmp_path / "supervised-seed0" / "manifest.txt").exists()
        assert (tmp_path / "supervised-seed1" / "manifest.txt").exists()

    # lr = 1e6 pins the losses at the log clamp; every model ends up
    # predicting class 0 for the whole two-class test set
    COLLAPSING = ["--algo", "snowball", "--dataset", "two-moons", "--seed", "0",
                  "--set", "learning_rate=1e6", "--set", "steps=60",
                  "--set", "generations=1", "--set", "iterations=2"]
    COLLAPSE_WARNING = ("warning: training collapsed: the teacher predicts class 0 "
                        "for all 500 test rows")

    def test_collapsed_training_warns_and_exits_0(self, tmp_path, capsys):
        assert cli_run(["train", "--out-dir", str(tmp_path), *self.COLLAPSING]) == 0
        assert capsys.readouterr().err.splitlines() == [self.COLLAPSE_WARNING]
        manifest = tmp_path / "snowball-two-moons-seed0" / "manifest.txt"
        assert "collapse" not in manifest.read_text()

    def test_collapsed_sweep_warns(self, tmp_path, capsys):
        argv = ["sweep", "--seeds", "0", "--out-dir", str(tmp_path), *self.COLLAPSING]
        assert cli_run(argv) == 0
        assert capsys.readouterr().err.splitlines() == [self.COLLAPSE_WARNING]

    def test_healthy_run_does_not_warn(self, tmp_path, capsys):
        assert cli_run(fast_args(tmp_path)) == 0
        assert capsys.readouterr().err == ""

    def test_ablation_commands_run(self, tmp_path):
        common = ["--dataset", "blobs", "--labels-per-class", "2",
                  "--seed", "0", "--out-dir", str(tmp_path),
                  "--set", "steps=25", "--set", "ramp_len=12",
                  "--set", "generations=1", "--set", "iterations=1",
                  "--set", "n_per_class=40"]
        assert cli_run(["ablate-selection"] + common) == 0
        assert cli_run(["ablate-fusion"] + common) == 0
        assert cli_run(["ablate-guidance"] + common) == 0

    def test_dump_discovery_writes_reports(self, tmp_path):
        argv = fast_args(tmp_path, "--dump-discovery", algo="snowball")
        assert cli_run(argv) == 0
        run_dir = tmp_path / "snowball-two-moons-seed0"
        assert (run_dir / "discovery-g1-i1.csv").exists()
        header = (run_dir / "discovery-g1-i1.csv").read_text().splitlines()[0]
        assert header == "sample_id,assigned_label,true_label,distance,rank,selected"


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
        record = RunRecord("snowball", {**config.to_dict(), **dataclass_flat(spec)},
                           [IterationRow(1, 1, 0.5, 0.25, 0.0, 12, 1.5)])
        write_manifest(tmp_path / "manifest.txt", record)
        raw, _ = read_manifest(tmp_path / "manifest.txt")
        assert build_configs(raw) == (config, spec)

    def parent_format_manifest(self, tmp_path, ema_every, ema_warmup):
        """A manifest as written before the two EMA keys were retired."""
        assert cli_run(fast_args(tmp_path)) == 0
        manifest = tmp_path / "supervised-two-moons-seed0" / "manifest.txt"
        text = manifest.read_text().replace(
            "[config]\n", f"[config]\nema_every = {ema_every}\nema_warmup = {ema_warmup}\n")
        manifest.write_text(text)
        return manifest

    def test_retired_keys_at_their_only_value_verify(self, tmp_path):
        manifest = self.parent_format_manifest(tmp_path, 1, False)
        assert cli_run(["report", "--verify", str(manifest)]) == 0

    @pytest.mark.parametrize("ema_every, ema_warmup", [(2, False), (1, True), ("x", False)])
    def test_retired_keys_at_another_value_are_usage_errors(self, tmp_path, capsys,
                                                            ema_every, ema_warmup):
        manifest = self.parent_format_manifest(tmp_path, ema_every, ema_warmup)
        capsys.readouterr()
        assert cli_run(["report", "--verify", str(manifest)]) == 1
        assert "is retired" in capsys.readouterr().err


class TestMakeDataset:
    def test_data_seed_follows_run_seed_by_default(self):
        spec = DataSpec(dataset="two-moons", labels_per_class=2)
        a = make_dataset(spec, 3)
        b = make_dataset(spec, 3)
        c = make_dataset(spec, 4)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        assert not np.array_equal(a.labeled_x, c.labeled_x)

    def test_fixed_data_seed_decouples_from_run_seed(self):
        spec = DataSpec(dataset="two-moons", labels_per_class=2, data_seed=9)
        a = make_dataset(spec, 0)
        b = make_dataset(spec, 123)
        np.testing.assert_array_equal(a.labeled_x, b.labeled_x)
        np.testing.assert_array_equal(a.test_x, b.test_x)
