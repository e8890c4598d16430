"""Pipelines: master building, the four algorithms, degenerate equality."""

import math

import numpy as np
import pytest

import snowball.network as net
from snowball.data import gen_two_moons, split
from snowball.discovery import assign_pseudo_labels, select_samples
from snowball.errors import ConfigError, DivergenceError, OrchestrationError
from snowball.network import error_rate, init_params, params_equal, sgd_step
from snowball.orchestrator import (
    ExperimentConfig,
    TrainingSet,
    build_master,
    run_algorithm,
)
from snowball.training import ema_update, one_hot


def small_data(seed=0, n=240, lpc=2, noise=0.1):
    raw = gen_two_moons(n, noise, seed=seed)
    return split(raw, labels_per_class=lpc, test_fraction=0.25, seed=seed)


def refined_master(teacher, training_set, report, cfg, prev_master):
    """build_master in the value forms of net.grad, sgd_step and ema_update:
    every step makes new models, and the master starts at the first snapshot
    when there is no previous one."""
    extra = np.flatnonzero(~report.selected)[:math.ceil(cfg.master_extra_fraction
                                                         * report.selected.sum())]
    x = np.concatenate([training_set.x, report.inputs[extra]])
    targets = one_hot(np.concatenate([training_set.y, report.labels[extra]]),
                      teacher.class_count)
    refined, master, velocity = teacher, prev_master, None
    for _ in range(cfg.resolved_refine_steps()):
        refined, velocity = sgd_step(refined, net.grad(refined, x, targets), cfg.learning_rate,
                                     cfg.momentum, velocity, l2=cfg.l2)
        master = refined if master is None else ema_update(master, refined, cfg.beta)
    return teacher if master is None else master


def quick_cfg(**kw):
    base = dict(generations=2, iterations=2, steps=25, ramp_len=10,
                master_refine_steps=5, seed=0)
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    @pytest.mark.parametrize("key", ["learning_rate", "momentum", "l2", "alpha", "beta",
                                     "lambda1", "lambda2_max", "sigma_aug",
                                     "master_weight", "master_extra_fraction"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_fields_are_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"config key '{key}' must be finite"):
            ExperimentConfig(**{key: value})

    def test_doubling_schedule(self):
        cfg = ExperimentConfig(iterations=3)
        # discovering L, 2L, 4L doubles the cumulative labelled count each time
        assert cfg.resolved_schedule(4) == (4, 8, 16)
        assert cfg.resolved_schedule(10) == (10, 20, 40)

    def test_explicit_schedule_truncated_to_iterations(self):
        cfg = ExperimentConfig(iterations=2, discovery_schedule=(5, 6, 7))
        assert cfg.resolved_schedule(4) == (5, 6)

    def test_refine_steps_default_quarter(self):
        assert ExperimentConfig(steps=300).resolved_refine_steps() == 75
        assert ExperimentConfig(steps=300, master_refine_steps=10).resolved_refine_steps() == 10


class TestTrainingSet:
    def test_from_split_and_growth(self):
        d = small_data()
        ts = TrainingSet.from_split(d)
        assert len(ts) == len(d.labeled_ids)
        np.testing.assert_array_equal(ts.ids, d.labeled_ids)
        grown = ts.with_discovered(
            np.array([9991, 9992]), np.zeros((2, 2)), np.array([0, 1]))
        assert len(grown) == len(ts) + 2
        # discoveries follow the original labels, which keep their place
        np.testing.assert_array_equal(grown.ids, np.concatenate([d.labeled_ids, [9991, 9992]]))
        np.testing.assert_array_equal(grown.y[len(ts):], [0, 1])

    def test_duplicate_ids_rejected(self):
        d = small_data()
        ts = TrainingSet.from_split(d)
        dup = int(ts.ids[0])
        with pytest.raises(OrchestrationError):
            ts.with_discovered(np.array([dup]), np.zeros((1, 2)), np.array([0]))


class TestBuildMaster:
    def make_report(self, d, model, n_select=4):
        rep = assign_pseudo_labels(model, d.unlabeled_x, d.unlabeled_ids,
                                   d.labeled_x, d.labeled_y)
        return select_samples(rep, n_select, "min")

    def test_zero_fraction_uses_selected_only(self):
        d = small_data()
        teacher = init_params((2, 8, 2), seed=1)
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        cfg = quick_cfg(master_extra_fraction=0.0, master_refine_steps=3)
        m = build_master(teacher, ts, rep, cfg)
        assert not params_equal(m, teacher)

    def test_beta_one_keeps_previous_master(self):
        d = small_data()
        teacher = init_params((2, 8, 2), seed=1)
        prev = init_params((2, 8, 2), seed=2)
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        cfg = quick_cfg(beta=1.0, master_refine_steps=4)
        m = build_master(teacher, ts, rep, cfg, prev_master=prev)
        assert params_equal(m, prev)

    def test_zero_steps_returns_prev_or_teacher(self):
        d = small_data()
        teacher = init_params((2, 8, 2), seed=1)
        prev = init_params((2, 8, 2), seed=2)
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        cfg = quick_cfg(master_refine_steps=0)
        assert params_equal(build_master(teacher, ts, rep, cfg, prev), prev)
        assert params_equal(build_master(teacher, ts, rep, cfg), teacher)

    @pytest.mark.parametrize("steps", [0, 1, 5])
    @pytest.mark.parametrize("with_prev", [False, True], ids=["no-prev", "prev"])
    @pytest.mark.parametrize("l2", [0.0, 0.01])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_in_place_refinement_matches_the_value_forms(self, activation, l2, with_prev, steps):
        d = small_data()
        teacher = init_params((2, 8, 2), activation, seed=1)
        prev = init_params((2, 8, 2), activation, seed=2) if with_prev else None
        given = [model for model in (teacher, prev) if model is not None]
        inputs = [model.buffer.tobytes() for model in given]
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        cfg = quick_cfg(l2=l2, master_refine_steps=steps)
        m = build_master(teacher, ts, rep, cfg, prev)
        want = refined_master(teacher, ts, rep, cfg, prev)
        assert (m.layer_dims, m.activation) == (want.layer_dims, want.activation)
        assert m.buffer.tobytes() == want.buffer.tobytes()
        if steps:
            assert [model.buffer.tobytes() for model in given] == inputs
            assert not any(np.shares_memory(m.buffer, model.buffer) for model in given)

    @pytest.mark.parametrize("prev", [
        init_params((2, 1, 3, 2), seed=2),  # 17 parameters, as the teacher
        init_params((2, 3, 2), "tanh", seed=2)], ids=["layer-dims", "activation"])
    def test_prev_master_of_another_shape_is_config_error(self, prev):
        d = small_data()
        teacher = init_params((2, 3, 2), seed=1)
        assert prev.buffer.size == teacher.buffer.size
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        for steps in (0, 5):
            with pytest.raises(ConfigError, match="stacked models must share"):
                build_master(teacher, ts, rep, quick_cfg(master_refine_steps=steps), prev)

    def test_refinement_set_of_another_width_is_config_error(self):
        d = small_data()
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, init_params((2, 8, 2), seed=1))
        with pytest.raises(ConfigError, match="does not match 3 inputs"):
            build_master(init_params((3, 8, 2), seed=1), ts, rep, quick_cfg())

    def test_extra_candidates_are_next_ranked(self):
        # N=10 selected, fraction 0.5 -> 5 extras: ranks 10..14 of 20
        d = small_data(n=400)
        teacher = init_params((2, 8, 2), seed=1)
        ts = TrainingSet.from_split(d)
        rep = assign_pseudo_labels(teacher, d.unlabeled_x[:20], d.unlabeled_ids[:20],
                                   d.labeled_x, d.labeled_y)
        rep = select_samples(rep, 10, "min")
        # under min-selection the selected rows are ranks 0..9, so the
        # refinement pool is exactly ranks 0..14 plus the training set
        unsel = np.flatnonzero(~rep.selected)
        assert list(unsel[:5]) == [10, 11, 12, 13, 14]
        cfg = quick_cfg(master_extra_fraction=0.5, master_refine_steps=2)
        m = build_master(teacher, ts, rep, cfg)
        assert m.layer_dims == teacher.layer_dims

    def test_huge_fraction_takes_every_unselected_row(self):
        # 1e308 * N overflows int(ceil(...)); it means "all 10 unselected rows"
        d = small_data(n=400)
        teacher = init_params((2, 8, 2), seed=1)
        ts = TrainingSet.from_split(d)
        rep = assign_pseudo_labels(teacher, d.unlabeled_x[:20], d.unlabeled_ids[:20],
                                   d.labeled_x, d.labeled_y)
        rep = select_samples(rep, 10, "min")
        every = build_master(teacher, ts, rep, quick_cfg(master_extra_fraction=1.0))
        huge = build_master(teacher, ts, rep, quick_cfg(master_extra_fraction=1e308))
        assert params_equal(huge, every)

    def test_divergence_names_the_refine_step(self):
        d = small_data()
        teacher = init_params((2, 8, 2), seed=1)
        ts = TrainingSet.from_split(d)
        rep = self.make_report(d, teacher)
        cfg = quick_cfg(learning_rate=1e200, master_refine_steps=5)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=r"refine step \d") as info:
            build_master(teacher, ts, rep, cfg)
        assert 0 <= info.value.step < 5

    def test_empty_selection_rejected(self):
        d = small_data()
        teacher = init_params((2, 8, 2), seed=1)
        ts = TrainingSet.from_split(d)
        rep = assign_pseudo_labels(teacher, d.unlabeled_x, d.unlabeled_ids,
                                   d.labeled_x, d.labeled_y)
        with pytest.raises(OrchestrationError):
            build_master(teacher, ts, rep, quick_cfg())


class TestDegenerateEquivalence:
    def test_snowball_m1_k1_n0_equals_mean_teacher(self):
        d = small_data()
        cfg = quick_cfg(generations=1, iterations=1, discovery_schedule=(0,))
        a = run_algorithm("snowball", d, cfg)
        b = run_algorithm("mean-teacher", d, cfg)
        assert params_equal(a.models["student"], b.models["student"])
        assert params_equal(a.models["teacher"], b.models["teacher"])

    def test_lambda2_zero_equals_supervised(self):
        d = small_data()
        cfg = quick_cfg(generations=1, iterations=1, discovery_schedule=(0,),
                        lambda2_max=0.0)
        a = run_algorithm("snowball", d, cfg)
        b = run_algorithm("supervised", d, cfg)
        c = run_algorithm("mean-teacher", d, cfg)
        assert params_equal(a.models["student"], b.models["student"])
        assert params_equal(b.models["student"], c.models["student"])

    def test_self_learning_n0_matches_supervised_weights(self):
        # one generation of N=0 self-learning is plain supervised training
        d = small_data()
        cfg = quick_cfg(generations=1, iterations=1, discovery_schedule=(0,))
        a = run_algorithm("self-learning", d, cfg)
        b = run_algorithm("supervised", d, cfg)
        assert params_equal(a.models["student"], b.models["student"])


class TestRunStructure:
    def test_row_grid_and_reset(self):
        d = small_data()
        cfg = quick_cfg(generations=2, iterations=2, discovery_schedule=(2, 2))
        rec = run_algorithm("snowball", d, cfg)
        grid = [(r.generation, r.iteration) for r in rec.rows]
        assert grid == [(1, 1), (1, 2), (2, 1), (2, 2)]
        sizes = [r.labeled_size for r in rec.rows]
        base = len(d.labeled_ids)
        # discovery grows within a generation, resets at the next
        assert sizes == [base + 2, base + 4, base + 2, base + 4]

    def test_same_seed_identical_records(self):
        d = small_data()
        cfg = quick_cfg(discovery_schedule=(2, 2))
        a = run_algorithm("snowball", d, cfg)
        b = run_algorithm("snowball", d, cfg)
        assert params_equal(a.models["student"], b.models["student"])
        assert params_equal(a.models["teacher"], b.models["teacher"])
        assert params_equal(a.models["master"], b.models["master"])
        for ra, rb in zip(a.rows, b.rows):
            assert ra.test_err == rb.test_err
            assert ra.train_err == rb.train_err
            assert ra.noise_rate == rb.noise_rate

    @pytest.mark.parametrize("steps", [0, 7])
    def test_train_err_is_the_trained_students(self, steps):
        # one iteration trains on the original labelled rows; the row's
        # train_err is the final student's error on them, steps=0 included
        d = small_data()
        rec = run_algorithm("snowball", d, quick_cfg(generations=1, iterations=1, steps=steps,
                                                     discovery_schedule=(2,)))
        want = error_rate(rec.models["student"], d.labeled_x, d.labeled_y)
        assert rec.rows[0].train_err == want

    def test_different_seed_differs(self):
        d = small_data()
        a = run_algorithm("snowball", d, quick_cfg(seed=0, discovery_schedule=(2, 2)))
        b = run_algorithm("snowball", d, quick_cfg(seed=1, discovery_schedule=(2, 2)))
        assert not params_equal(a.models["student"], b.models["student"])

    def test_output_model_convention(self):
        d = small_data()
        cfg = quick_cfg(generations=1, iterations=1, discovery_schedule=(2,))
        for algo, role in (("snowball", "teacher"), ("mean-teacher", "teacher"),
                           ("self-learning", "student"), ("supervised", "student")):
            rec = run_algorithm(algo, d, cfg)
            want = error_rate(rec.models[role], d.test_x, d.test_y)
            assert rec.rows[-1].test_err == want, algo

    def test_ranking_model_convention(self):
        # one iteration: the final models are the ones that ranked the pool,
        # and snowball has no master yet, so its teacher ranks
        d = small_data()
        cfg = quick_cfg(generations=1, iterations=1, discovery_schedule=(2,))
        for algo, role in (("snowball", "teacher"), ("self-learning", "student")):
            rec = run_algorithm(algo, d, cfg)
            want = assign_pseudo_labels(rec.models[role], d.unlabeled_x, d.unlabeled_ids,
                                        d.labeled_x, d.labeled_y)
            got = rec.reports[(1, 1)]
            for field in ("sample_ids", "labels", "distances"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (algo, field)

    def test_self_learning_has_no_master(self):
        d = small_data()
        rec = run_algorithm("self-learning", d, quick_cfg(discovery_schedule=(2, 2)))
        assert "master" not in rec.models
        assert all((r.generation, r.iteration) in rec.reports or r.noise_rate == 0.0
                   for r in rec.rows)

    def test_snowball_builds_master_and_reports(self):
        d = small_data()
        rec = run_algorithm("snowball", d, quick_cfg(discovery_schedule=(2, 2)))
        assert "master" in rec.models
        assert (1, 1) in rec.reports
        assert (2, 2) in rec.reports

    def test_use_true_labels_discovery_noise_still_reported(self):
        d = small_data()
        rec = run_algorithm("snowball", d, quick_cfg(discovery_schedule=(3, 3), use_true_labels=True))
        # noise is a property of the assignment, not of what was trained on
        assert all(0.0 <= r.noise_rate <= 1.0 for r in rec.rows)

    def test_refinement_divergence_names_generation_and_iteration(self):
        cfg = quick_cfg(steps=0, learning_rate=1e200)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match="generation 1, iteration 1, refine step") as info:
            run_algorithm("snowball", small_data(), cfg)
        assert (info.value.generation, info.value.iteration) == (1, 1)

    def test_unknown_algorithm(self):
        d = small_data()
        with pytest.raises(ConfigError):
            run_algorithm("co-training", d, quick_cfg())

    def test_fusion_runs(self):
        d = small_data()
        for fusion in ("average_distance", "feature_cascade", "average_sorting_score"):
            cfg = quick_cfg(generations=1, iterations=3,
                            discovery_schedule=(2, 2, 2), fusion=fusion)
            rec = run_algorithm("snowball", d, cfg)
            assert len(rec.rows) == 3


class TestSemiSupervisedDirection:
    def test_snowball_beats_supervised_seed0(self):
        # Regression fixture: two-moons with 4 labels, M=2, K=3, seed 0,
        # benchmark-strength guidance -> snowball strictly better than
        # training on the 4 labels alone.  Frozen after the first good run;
        # a change in outcome means the pipeline changed behaviour.
        raw = gen_two_moons(1500, 0.15, seed=0)
        d = split(raw, labels_per_class=2, test_fraction=1 / 3, seed=0)
        cfg = ExperimentConfig(generations=2, iterations=3, seed=0,
                               lambda2_max=3.0, sigma_aug=0.15,
                               balance_classes=True)
        snow = run_algorithm("snowball", d, cfg)
        sup = run_algorithm("supervised", d, cfg)
        assert snow.final_test_err() < sup.final_test_err()
