"""Loss terms, EMA, the ramp schedule, and the training loop."""

import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import snowball.network as net
from snowball import training
from snowball.data import augment, gen_two_moons, split
from snowball.errors import ConfigError, DataError, DivergenceError, NumericsError
from snowball.network import (EPS_LOG, ModelParams, error_rate, init_params, params_equal,
                              sgd_step)
from snowball.records import StepMetrics, read_step_metrics, write_step_metrics
from snowball.training import (
    ExperimentConfig,
    ema_update,
    lambda2_schedule,
    objective_dlogits,
    objective_terms,
    one_hot,
    train_iteration,
)


def tiny(dims=(2, 4, 2), seed=0, activation="relu"):
    return init_params(dims, seed=seed, activation=activation)


NO_LABELS = np.zeros(0, dtype=int)


class LossBreakdown(NamedTuple):
    """Per-term values of the student objective for one batch."""

    classification: float
    consistency_teacher: float
    consistency_master: float
    total: float


def objective(student, teacher, master, student_view, guide_view, labels, lambda1, lambda2,
              kind, master_weight):
    """objective_terms on the stacked softmax rows of the student on its view
    and its guides on theirs, and objective_dlogits backpropagated through the
    student's trace: what a training step computes."""
    passes = guided_passes(student, teacher, master, student_view, guide_view)
    args = (np.stack([out.probs for out in passes]), one_hot(labels, student.class_count),
            lambda1, lambda2, kind, master_weight)
    breakdown = LossBreakdown(*map(float, objective_terms(*args)))
    return breakdown, net.grad_from_dlogits(student, passes[0], objective_dlogits(*args))


def guided_passes(student, teacher, master, student_view, guide_view):
    """forward_batch of the student on its view, then of the teacher and the
    master (if any) on the view the guides share."""
    guides = (teacher,) if master is None else (teacher, master)
    return [net.forward_batch(student, student_view)] + [net.forward_batch(guide, guide_view)
                                                         for guide in guides]


def classification_loss(p, x, labels):
    """The classification term of the student objective, noise off; the
    first len(labels) rows of x are labelled."""
    return objective(p, p, None, x, x, labels, 1.0, 0.0, "ce", 1.0)[0].classification


def consistency_loss(student, guide, x, kind="ce"):
    """The teacher consistency term on an all-unlabelled batch, noise off."""
    return objective(student, guide, None, x, x, NO_LABELS, 0.0, 1.0, kind,
                     1.0)[0].consistency_teacher


def perturbed_views(x, seed=9, sigma=0.1):
    """A student view and a guide view of x, each with its own noise."""
    rng = np.random.default_rng(seed)
    return augment(x, sigma, rng), augment(x, sigma, rng)


class TestClassificationLoss:
    def test_perfect_predictor_near_zero(self):
        # huge logit gap drives the softmax to one-hot
        p = ModelParams.from_layers(weights=(np.eye(2) * 50,), biases=(np.zeros(2),))
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert classification_loss(p, x, np.array([0, 1])) < 1e-11

    def test_uniform_predictor_ln_c(self):
        p = ModelParams.from_layers(weights=(np.zeros((3, 10)),), biases=(np.zeros(10),))
        x = np.random.default_rng(0).normal(size=(6, 3))
        y = np.arange(6) % 10
        assert classification_loss(p, x, y) == pytest.approx(math.log(10), abs=1e-12)

    def test_batch_mean(self):
        p = tiny(seed=5)
        x = np.random.default_rng(1).normal(size=(2, 2))
        y = np.array([0, 1])
        a = classification_loss(p, x[:1], y[:1])
        b = classification_loss(p, x[1:], y[1:])
        both = classification_loss(p, x, y)
        assert both == pytest.approx((a + b) / 2, abs=1e-12)

    def test_unlabeled_rows_left_out(self):
        p = tiny(seed=5)
        x = np.random.default_rng(1).normal(size=(3, 2))
        assert classification_loss(p, x[:1], NO_LABELS) == 0.0
        # rows [0, 2] lead with their labels; row 1 follows unlabelled
        mixed = classification_loss(p, x[[0, 2, 1]], np.array([0, 1]))
        labelled = classification_loss(p, x[[0, 2]], np.array([0, 1]))
        assert mixed == pytest.approx(labelled, abs=1e-12)


class TestConsistencyLoss:
    def test_identical_models_gives_entropy(self):
        # guide == student and sigma 0: H(p, p) = H(p); uniform -> ln 2
        p = ModelParams.from_layers(weights=(np.zeros((2, 2)),), biases=(np.zeros(2),))
        x = np.array([[0.3, -0.4]])
        got = consistency_loss(p, p, x)
        assert got == pytest.approx(math.log(2), abs=1e-12)

    def test_one_hot_guide_uniform_student(self):
        guide = ModelParams.from_layers(weights=(np.eye(2) * 60,), biases=(np.zeros(2),))
        student = ModelParams.from_layers(weights=(np.zeros((2, 2)),), biases=(np.zeros(2),))
        x = np.array([[1.0, 0.0]])
        got = consistency_loss(student, guide, x)
        assert got == pytest.approx(math.log(2), abs=1e-9)

    def test_matches_direct_formula_three_classes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            s = init_params((3, 5, 3), seed=int(rng.integers(1000)))
            g = init_params((3, 5, 3), seed=int(rng.integers(1000)))
            x = rng.normal(size=(4, 3))
            got = consistency_loss(s, g, x)
            # independent evaluation straight from the definition
            ps = net.forward_batch(s, x).probs
            pg = net.forward_batch(g, x).probs
            want = np.mean([-np.sum(pg[i] * np.log(ps[i])) for i in range(4)])
            assert got == pytest.approx(want, abs=1e-10)

    def test_mse_kind(self):
        s = tiny(seed=1)
        g = tiny(seed=2)
        x = np.random.default_rng(3).normal(size=(5, 2))
        got = consistency_loss(s, g, x, kind="mse")
        ps = net.forward_batch(s, x).probs
        pg = net.forward_batch(g, x).probs
        want = np.mean(np.sum((ps - pg) ** 2, axis=1) / 2)
        assert got == pytest.approx(want, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            consistency_loss(tiny(), tiny(), np.zeros((1, 2)), kind="huber")

    @pytest.mark.parametrize("function", [objective_terms, objective_dlogits])
    def test_unknown_kind_is_a_config_error(self, function):
        probs, targets = np.full((2, 3, 2), 0.5), np.eye(2)[[0]]
        with pytest.raises(ConfigError, match="unknown consistency kind 'huber'"):
            function(probs, targets, 1.0, 1.0, "huber", 1.0)


class TestStudentLoss:
    def test_lambda2_zero_total(self):
        s, t = tiny(seed=1), tiny(seed=2)
        x = np.random.default_rng(0).normal(size=(4, 2))
        y = np.array([0, 1, 0, 1])
        lambda1 = 1.0
        b, _ = objective(s, t, None, x, x, y, lambda1, 0.0, "ce", 1.0)
        assert b.total == pytest.approx(lambda1 * b.classification, abs=1e-12)

    def test_master_equals_teacher_same_terms(self):
        s, t = tiny(seed=1), tiny(seed=2)
        x = np.random.default_rng(0).normal(size=(4, 2))
        b, _ = objective(s, t, t, *perturbed_views(x), np.array([0, 1]), 1.0, 0.5,
                         "ce", 1.0)
        assert b.consistency_master == pytest.approx(b.consistency_teacher, abs=1e-12)

    def test_weighted_sum_identity(self):
        s, t, m = tiny(seed=1), tiny(seed=2), tiny(seed=3)
        x = np.random.default_rng(0).normal(size=(4, 2))
        b, _ = objective(s, t, m, *perturbed_views(x), np.array([0, 1]), 0.7, 0.4,
                         "ce", 0.5)
        want = 0.7 * b.classification + 0.4 * (b.consistency_teacher + b.consistency_master)
        assert b.total == want


def relu_margin(params, x):
    """Smallest |pre-activation| of any hidden unit of a relu net on any row of x."""
    a, margin = x, np.inf
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = a @ w + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


class TestObjectiveGradient:
    """The gradient training steps on, against central differences of the
    objective's own total, on a batch whose first three rows are labelled."""

    def check(self, kind, with_master, activation, dims, data_seed, h=1e-5):
        rng = np.random.default_rng(data_seed)
        student = init_params(dims, activation, seed=1)
        teacher = init_params(dims, activation, seed=2)
        master = init_params(dims, activation, seed=4) if with_master else None
        student_view = rng.normal(size=(6, dims[0]))
        guide_view = student_view + 0.1 * rng.normal(size=(6, dims[0]))
        labels = np.array([0, 2, 1])
        if activation == "relu":
            # a step of h moves no hidden unit of the student across relu's kink
            assert relu_margin(student, student_view) > 1e-3

        def loss_at(params):
            return objective(params, teacher, master, student_view, guide_view, labels,
                             0.7, 1.3, kind, 0.6)

        _, gradient = loss_at(student)
        arrays = list(student.weights + student.biases)
        for a, analytic in enumerate(gradient.weights + gradient.biases):
            numeric = np.zeros_like(analytic)
            for idx in np.ndindex(analytic.shape):
                totals = []
                for step in (h, -h):
                    moved = [arr.copy() for arr in arrays]
                    moved[a][idx] += step
                    params = ModelParams.from_layers(tuple(moved[:len(dims) - 1]),
                                         tuple(moved[len(dims) - 1:]), activation)
                    totals.append(loss_at(params)[0].total)
                numeric[idx] = (totals[0] - totals[1]) / (2 * h)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("kind", ["ce", "mse"])
    @pytest.mark.parametrize("with_master", [False, True])
    def test_matches_finite_differences(self, kind, with_master):
        self.check(kind, with_master, "tanh", (3, 5, 3), data_seed=3)

    @pytest.mark.parametrize("kind", ["ce", "mse"])
    @pytest.mark.parametrize("with_master", [False, True])
    @pytest.mark.parametrize("activation, dims", [
        ("relu", (3, 5, 3)), ("tanh", (3, 5, 4, 4, 3)), ("relu", (3, 5, 4, 4, 3))],
        ids=["relu", "tanh-three-hidden", "relu-three-hidden"])
    def test_relu_and_three_hidden_layers(self, kind, with_master, activation, dims):
        self.check(kind, with_master, activation, dims, data_seed=5)


class TestEma:
    def test_decay_zero_copies_source(self):
        a, b = tiny(seed=1), tiny(seed=2)
        assert params_equal(ema_update(a, b, 0.0), b)

    def test_decay_one_frozen(self):
        a, b = tiny(seed=1), tiny(seed=2)
        assert params_equal(ema_update(a, b, 1.0), a)

    def test_source_of_another_activation_is_config_error(self):
        relu, tanh = tiny(seed=1), tiny(seed=2, activation="tanh")
        for out in (None, relu.buffer.copy()):
            with pytest.raises(ConfigError, match="models differ"):
                ema_update(relu, tanh, 0.5, out=out)

    def test_midpoint(self):
        dims = (2, 3, 2)
        twos = ModelParams.from_layers(
            tuple(np.full((i, o), 2.0) for i, o in zip(dims[:-1], dims[1:])),
            tuple(np.full(o, 2.0) for o in dims[1:]),
        )
        fours = ModelParams.from_layers(
            tuple(np.full((i, o), 4.0) for i, o in zip(dims[:-1], dims[1:])),
            tuple(np.full(o, 4.0) for o in dims[1:]),
        )
        averaged = ema_update(twos, fours, 0.5)
        for w in averaged.weights + averaged.biases:
            assert np.all(w == 3.0)


UPDATES = settings(derandomize=True, max_examples=100, database=None, deadline=None)
UPDATE_DIMS = (2, 3, 2)  # 17 parameters
# finite entries of either sign, both zeros drawn often
BUFFERS = arrays(np.float64, 17, elements=st.one_of(st.sampled_from([0.0, -0.0]),
                                                     st.floats(-1e3, 1e3)))


def as_model(buffer):
    """A net of UPDATE_DIMS whose parameter buffer holds these values."""
    model = init_params(UPDATE_DIMS)
    np.copyto(model.buffer, buffer)
    return model


class TestInPlaceUpdates:
    """The out= forms of sgd_step and ema_update, which a training step calls
    on buffers it owns, write exactly the bytes the value forms return, and
    both are the bytes of the update's plain expressions."""

    @UPDATES
    @given(p=BUFFERS, g=BUFFERS, v=st.none() | BUFFERS, lr=st.floats(1e-6, 10.0),
           momentum=st.sampled_from([0.0, 0.5, 0.9]), l2=st.sampled_from([0.0, 1e-4, 0.5]))
    @example(p=np.ones(17), g=np.full(17, -0.0), v=None, lr=0.05, momentum=0.9, l2=0.0)
    def test_sgd_step(self, p, g, v, lr, momentum, l2):
        decayed = as_model(g)  # the gradient plus l2 * weights, biases left out
        if l2 > 0.0:
            for w, pw in zip(decayed.weights, as_model(p).weights):
                w += l2 * pw
        want_v = decayed.buffer.copy() if v is None else momentum * v + decayed.buffer
        params, gradient = as_model(p), as_model(g)
        want_params, want_velocity = sgd_step(params, gradient, lr, momentum, v, l2=l2)
        assert want_velocity.tobytes() == want_v.tobytes()
        assert want_params.buffer.tobytes() == (p - lr * want_v).tobytes()
        # the first step must not read the velocity buffer: it starts as nan
        velocity = np.full(17, np.nan) if v is None else v.copy()
        out = (params.buffer, velocity)
        got = sgd_step(params, gradient, lr, momentum, None if v is None else velocity,
                       l2=l2, out=out)
        assert got is out
        assert params.buffer.tobytes() == want_params.buffer.tobytes()
        assert velocity.tobytes() == want_velocity.tobytes()
        assert gradient.buffer.tobytes() == g.tobytes()

    @UPDATES
    @given(a=BUFFERS, s=BUFFERS, decay=st.sampled_from([0.0, 1.0, 0.99]))
    @example(a=np.full(17, -0.0), s=np.full(17, -1.0), decay=1.0)
    def test_ema_update(self, a, s, decay):
        averaged, source = as_model(a), as_model(s)
        want = ema_update(averaged, source, decay)
        assert want.buffer.tobytes() == (decay * a + (1.0 - decay) * s).tobytes()
        got = ema_update(averaged, source, decay, out=averaged.buffer)
        assert got is averaged.buffer and got.tobytes() == want.buffer.tobytes()
        assert source.buffer.tobytes() == s.tobytes()


class TestSchedule:
    def test_endpoints(self):
        assert lambda2_schedule(0, 100, 2.0) == 0.0
        assert lambda2_schedule(100, 100, 2.0) == 2.0
        assert lambda2_schedule(250, 100, 2.0) == 2.0

    def test_monotone_nondecreasing(self):
        vals = [lambda2_schedule(s, 50, 1.0) for s in range(60)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert 0.0 < vals[25] < 1.0

    def test_zero_ramp_is_constant_max(self):
        assert lambda2_schedule(0, 0, 3.0) == 3.0


def small_problem(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 2))
    y = (x[:, 0] + x[:, 1] > 0).astype(int)
    return x, y


class TestTrainIteration:
    def test_zero_steps_identity(self):
        x, y = small_problem()
        p = tiny(seed=3)
        cfg = ExperimentConfig(steps=0)
        student, teacher, metrics = train_iteration(
            p, x, y, np.zeros((0, 2)), None, cfg, np.random.default_rng(0))
        assert params_equal(student, p)
        assert params_equal(teacher, p)
        assert metrics == []

    def test_student_learns_separable_data(self):
        x, y = small_problem()
        p = tiny(seed=3)
        cfg = ExperimentConfig(steps=300, labeled_batch=16, unlabeled_batch=0,
                          lambda2_max=0.0, sigma_aug=0.0)
        student, teacher, metrics = train_iteration(
            p, x, y, np.zeros((0, 2)), None, cfg, np.random.default_rng(0))
        assert error_rate(student, x, y) <= 0.05
        assert metrics[-1].train_err <= 0.05

    def test_teacher_is_ema_not_student(self):
        x, y = small_problem()
        p = tiny(seed=3)
        cfg = ExperimentConfig(steps=50, sigma_aug=0.0, lambda2_max=0.0, unlabeled_batch=0)
        student, teacher, _ = train_iteration(
            p, x, y, np.zeros((0, 2)), None, cfg, np.random.default_rng(0))
        assert not params_equal(student, teacher)

    def test_determinism(self):
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        p = tiny(seed=3)
        cfg = ExperimentConfig(steps=40)
        out1 = train_iteration(p, x, y, pool, None, cfg, np.random.default_rng(17),
                               eval_x=x, eval_y=y)
        out2 = train_iteration(p, x, y, pool, None, cfg, np.random.default_rng(17),
                               eval_x=x, eval_y=y)
        assert params_equal(out1[0], out2[0])
        assert params_equal(out1[1], out2[1])
        assert out1[2] == out2[2]

    def test_no_unlabeled_batch_is_the_empty_pool(self):
        # a size-0 pool draw reads no randomness, so the pool is never seen
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        cfg = ExperimentConfig(steps=30, unlabeled_batch=0)
        outs = [train_iteration(tiny(seed=3), x, y, p, tiny(seed=4), cfg,
                                np.random.default_rng(17), eval_x=x, eval_y=y)
                for p in (pool, np.zeros((0, 2)))]
        assert params_equal(outs[0][0], outs[1][0])
        assert params_equal(outs[0][1], outs[1][1])
        assert outs[0][2] == outs[1][2]

    def test_guide_gets_no_gradient(self):
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        p = tiny(seed=3)
        master = tiny(seed=4)
        inputs = p.buffer.tobytes(), master.buffer.tobytes()
        cfg = ExperimentConfig(steps=30)
        student, teacher, _ = train_iteration(p, x, y, pool, master, cfg,
                                              np.random.default_rng(0))
        assert params_equal(master, tiny(seed=4))
        assert (p.buffer.tobytes(), master.buffer.tobytes()) == inputs
        # the returned models alias nothing: not each other, the inputs, nor
        # the models of a second call
        again = train_iteration(p, x, y, pool, master, cfg, np.random.default_rng(0))[:2]
        models = (student, teacher, p, master, *again)
        for i, returned in enumerate(models[:2]):
            for other in models[i + 1:]:
                assert not np.shares_memory(returned.buffer, other.buffer)

    @pytest.mark.parametrize("student, master", [
        (tiny((2, 3, 2), seed=3), tiny((2, 1, 3, 2), seed=4)),  # 17 parameters each
        (tiny(seed=3), tiny(seed=4, activation="tanh"))], ids=["layer-dims", "activation"])
    def test_master_of_another_shape_is_config_error(self, student, master):
        x, y = small_problem()
        assert master.buffer.size == student.buffer.size
        with pytest.raises(ConfigError, match="stacked models must share"):
            train_iteration(student, x, y, np.zeros((0, 2)), master, ExperimentConfig(steps=2),
                            np.random.default_rng(0))

    def test_pool_of_another_width_is_config_error(self):
        x, y = small_problem()
        with pytest.raises(ConfigError, match=r"pool of shape \(40, 3\) does not match 2 inputs"):
            train_iteration(tiny(seed=3), x, y, np.zeros((40, 3)), None,
                            ExperimentConfig(steps=2), np.random.default_rng(0))

    def test_fewer_labels_than_rows_is_config_error(self):
        x, y = small_problem()
        with pytest.raises(ConfigError, match="59 training labels for 60 training rows"):
            train_iteration(tiny(seed=3), x, y[:-1], np.zeros((0, 2)), None,
                            ExperimentConfig(steps=2), np.random.default_rng(0))

    @pytest.mark.parametrize("steps", [0, 5])
    @pytest.mark.parametrize("passed, message", [
        ("x", "eval_x and eval_y must be given together"),
        ("y", "eval_x and eval_y must be given together"),
        ("short-y", "29 eval labels for 30 eval rows")], ids=["x-only", "y-only", "short-y"])
    def test_unmatched_eval_set_is_config_error(self, steps, passed, message):
        x, y = small_problem()
        ex, ey = small_problem(seed=1, n=30)
        evaluation = {"x": dict(eval_x=ex), "y": dict(eval_y=ey),
                      "short-y": dict(eval_x=ex, eval_y=ey[:-1])}[passed]
        with pytest.raises(ConfigError, match=message):
            train_iteration(tiny(seed=3), x, y, np.zeros((0, 2)), None,
                            ExperimentConfig(steps=steps), np.random.default_rng(0), **evaluation)

    @pytest.mark.parametrize("steps", [0, 5])
    def test_label_outside_the_classes_is_config_error(self, steps):
        x, y = small_problem(n=4)
        with pytest.raises(ConfigError, match="label 2 is not a class of a 2-class net"):
            train_iteration(tiny(seed=3), x, np.array([0, 1, 2, 5]), np.zeros((0, 2)), None,
                            ExperimentConfig(steps=steps), np.random.default_rng(0))

    def test_divergence_raises(self):
        x, y = small_problem()
        p = tiny(seed=3)
        cfg = ExperimentConfig(steps=200, learning_rate=1e6, lambda2_max=0.0,
                          unlabeled_batch=0, sigma_aug=0.0)
        with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
            train_iteration(p, x, y, np.zeros((0, 2)), None, cfg,
                            np.random.default_rng(0))
        assert exc.value.step is not None

    def test_huge_learning_rate_diverges_at_step_0(self):
        # the first update leaves finite weights whose forward pass overflows;
        # step 1's objective finds it, and step 0's update is to blame
        x, y = small_problem()
        cfg = ExperimentConfig(steps=30, learning_rate=1e200)
        pool = np.random.default_rng(9).normal(size=(40, 2))
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            train_iteration(tiny(seed=3), x, y, pool, None, cfg,
                            np.random.default_rng(0), eval_x=x, eval_y=y)
        assert exc.value.step == 0

    def test_master_overflow_is_divergence_at_step_0(self):
        x, y = small_problem()
        master = 1e300 * tiny(seed=4)
        assert master.all_finite()
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            train_iteration(tiny(seed=3), x, y, np.zeros((0, 2)), master,
                            ExperimentConfig(steps=30), np.random.default_rng(0))
        assert exc.value.step == 0

    @pytest.mark.parametrize("steps", [60, 75])
    def test_eval_cadence_changes_only_the_skipped_cells(self, monkeypatch, steps):
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        ex, ey = small_problem(seed=1, n=30)
        cfg = ExperimentConfig(steps=steps, ramp_len=30)

        def run():
            return train_iteration(tiny(seed=3), x, y, pool, tiny(seed=4), cfg,
                                   np.random.default_rng(17), eval_x=ex, eval_y=ey)

        student, teacher, sparse = run()
        monkeypatch.setattr(training, "EVAL_EVERY", 1)
        every_student, every_teacher, every = run()

        assert params_equal(student, every_student)
        assert params_equal(teacher, every_teacher)
        evaluated = [m.step for m in sparse if m.train_err is not None]
        assert evaluated == [*range(24, steps - 1, 25), steps - 1]
        assert all(m.test_err is None for m in sparse if m.step not in evaluated)
        for a, b in zip(sparse, every, strict=True):
            assert (a.step, a.j_c, a.j_theta_teacher, a.j_theta_master, a.j_s,
                    a.lambda2) == (b.step, b.j_c, b.j_theta_teacher, b.j_theta_master,
                                   b.j_s, b.lambda2)
            if a.step in evaluated:
                assert (a.train_err, a.test_err) == (b.train_err, b.test_err)

    def test_two_moons_labeled_error_reaches_zero(self):
        # run-once regression on the canonical small setup: 4 labels + pool,
        # default config, seed 0 -> the labeled set is learned exactly
        raw = gen_two_moons(1500, 0.15, seed=0)
        d = split(raw, labels_per_class=2, test_fraction=1 / 3, seed=0)
        p = init_params((2, 32, 32, 2), seed=0)
        student, _, metrics = train_iteration(
            p, d.labeled_x, d.labeled_y, d.unlabeled_x, None, ExperimentConfig(),
            np.random.default_rng(0))
        assert error_rate(student, d.labeled_x, d.labeled_y) == 0.0
        assert metrics[-1].train_err == 0.0


def student_loss(probs, targets, lambda1, lambda2, kind, master_weight):
    """The student objective of one step as a training step computed it
    before steps ran in windows: its terms and its gradient at the student's
    logits, from the stacked softmax rows of the student and its guides."""
    p_s, p_t = probs[0], probs[1]
    p_m = probs[2] if len(probs) > 2 else None
    n, n_lab = len(p_s), len(targets)
    log_p_s = np.log(np.maximum(p_s, EPS_LOG))

    def mean_mse(targets, probs):
        se = net.row_sum((probs - targets) ** 2) / probs.shape[-1]
        return float(se.sum() / len(se))

    def mse_dlogits(p_s, p_g):
        d = 2.0 * (p_s - p_g) / p_s.shape[-1]
        return p_s * (d - net.row_sum(d * p_s)[..., None])

    j_class = net.mean_ce(targets, log_p_s[:n_lab]) if n_lab else 0.0
    loss, student_side, dloss = ((net.mean_ce, log_p_s, np.subtract) if kind == "ce"
                                 else (mean_mse, p_s, mse_dlogits))
    j_teacher = loss(p_t, student_side)
    j_master = master_weight * loss(p_m, student_side) if p_m is not None else 0.0
    total = lambda1 * j_class + lambda2 * (j_teacher + j_master)

    dlogits = np.zeros_like(p_s)
    if n_lab:
        dlogits[:n_lab] += lambda1 * (p_s[:n_lab] - targets) / n_lab
    dlogits += lambda2 * dloss(p_s, p_t) / n
    if p_m is not None:
        dlogits += lambda2 * master_weight * dloss(p_s, p_m) / n
    return LossBreakdown(j_class, j_teacher, j_master, total), dlogits


def per_step_iteration(student, train_x, train_y, pool_x, master, cfg, rng, eval_x=None,
                       eval_y=None):
    """train_iteration one step at a time, in the value forms: each step's
    passes of the student, teacher and master, its terms and gradient,
    a new student from sgd_step and a new teacher from ema_update."""
    teacher, velocity, metrics = student, None, []
    eye = np.eye(student.class_count)
    for step in range(cfg.steps):
        lam2 = lambda2_schedule(step, cfg.ramp_len, cfg.lambda2_max)
        li = rng.integers(0, len(train_x), size=cfg.labeled_batch)
        ui = rng.integers(0, len(pool_x), size=cfg.unlabeled_batch if len(pool_x) else 0)
        bx = np.concatenate([train_x[li], pool_x[ui]])
        student_view = augment(bx, cfg.sigma_aug, rng)
        guide_view = augment(bx, cfg.sigma_aug, rng)
        try:
            passes = guided_passes(student, teacher, master, student_view, guide_view)
        except NumericsError:
            raise DivergenceError("", step=max(step - 1, 0)) from None
        breakdown, dlogits = student_loss(np.stack([out.probs for out in passes]),
                                          eye[train_y[li]], cfg.lambda1, lam2,
                                          cfg.consistency, cfg.master_weight)
        student, velocity = sgd_step(student, net.grad_from_dlogits(student, passes[0], dlogits),
                                     cfg.learning_rate, cfg.momentum, velocity, l2=cfg.l2)
        if not math.isfinite(breakdown.total) or not student.all_finite():
            raise DivergenceError("", step=step)
        train_err = test_err = None
        if (step + 1) % training.EVAL_EVERY == 0 or step == cfg.steps - 1:
            try:
                train_err = error_rate(student, train_x, train_y)
                test_err = (error_rate(student, eval_x, eval_y) if eval_x is not None
                            else float("nan"))
            except NumericsError:
                raise DivergenceError("", step=step) from None
        teacher = ema_update(teacher, student, cfg.alpha)
        metrics.append(StepMetrics(step, *breakdown, lam2, train_err, test_err))
    return student, teacher, metrics


def problem(classes, seed=0, n=60, width=3):
    """Rows of `width` inputs labelled by the largest of `classes` random projections."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, width))
    return x, (x @ rng.normal(size=(width, classes))).argmax(axis=1)


def as_bytes(student, teacher, metrics):
    """Every byte a training iteration returns, None cells as None."""
    return (student.buffer.tobytes(), teacher.buffer.tobytes(),
            [tuple(None if v is None else np.float64(v).tobytes() for v in m)
             for m in metrics])


class TestIndexDraw:
    """train_iteration draws a minibatch's rows of the labelled set, [0, T), and
    of the pool stacked after it, [T, T + P), with one rng.integers call on
    per-row bounds. numpy sends array and scalar bounds through the same
    per-element bounded-integer routine, so that call gives the values of, and
    leaves the generator as, the draw of labelled indices followed by that of
    pool indices. A numpy that changes either path fails here."""

    SIZES = st.sampled_from([1, 2, 3, 17, 255, 256, 4508, 2 ** 32 - 1, 2 ** 32 + 7, 2 ** 40])

    @settings(max_examples=300, deadline=None)
    @given(t=SIZES | st.integers(1, 10 ** 6), p=SIZES | st.integers(0, 10 ** 6),
           n_lab=st.integers(1, 70), n_unl=st.integers(0, 70), seed=st.integers(0, 2 ** 32),
           steps=st.integers(1, 5))
    @example(t=1, p=1, n_lab=8, n_unl=56, seed=0, steps=3)
    @example(t=5, p=0, n_lab=8, n_unl=0, seed=0, steps=3)  # an empty pool draws no pool rows
    def test_one_draw_is_the_two_draws(self, t, p, n_lab, n_unl, seed, steps):
        n_unl = n_unl if p else 0
        two, one = np.random.default_rng(seed), np.random.default_rng(seed)
        lows, highs = np.repeat([0, t], [n_lab, n_unl]), np.repeat([t, t + p], [n_lab, n_unl])
        for _ in range(steps):
            want = np.concatenate([two.integers(0, t, size=n_lab),
                                   t + two.integers(0, p, size=n_unl)])
            assert one.integers(lows, highs).tolist() == want.tolist()
            two.normal(size=3), one.normal(size=3)  # the noise draws between steps
        assert one.bit_generator.state == two.bit_generator.state


class TestWindows:
    """train_iteration runs in windows of EVAL_EVERY steps; it must return
    exactly what the loop one step at a time returns."""

    def both(self, cfg, classes=2, activation="relu", with_master=True, pool_rows=40,
             eval_set=True):
        x, y = problem(classes)
        ex, ey = problem(classes, seed=1, n=30)
        pool = np.random.default_rng(9).normal(size=(pool_rows, 3))
        dims = (3, 6, 5, classes)
        student = init_params(dims, activation, seed=3)
        master = init_params(dims, activation, seed=4) if with_master else None
        evaluation = dict(eval_x=ex, eval_y=ey) if eval_set else {}
        return [as_bytes(*run(student, x, y, pool, master, cfg, np.random.default_rng(17),
                              **evaluation))
                for run in (train_iteration, per_step_iteration)]

    @pytest.mark.parametrize("steps", [0, 1, 24, 25, 26, 37, 60])
    @pytest.mark.parametrize("eval_every", [1, 7, 25])
    @pytest.mark.parametrize("with_master", [False, True], ids=["no-master", "master"])
    def test_matches_the_per_step_loop(self, monkeypatch, steps, eval_every, with_master):
        monkeypatch.setattr(training, "EVAL_EVERY", eval_every)
        got, want = self.both(ExperimentConfig(steps=steps, ramp_len=20),
                              with_master=with_master)
        assert got == want

    @pytest.mark.parametrize("kind", ["ce", "mse"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [2, 10])  # 10 is past _SEQUENTIAL_SUM_WIDTH
    @pytest.mark.parametrize("with_master", [False, True], ids=["no-master", "master"])
    @pytest.mark.parametrize("pool_rows", [0, 40], ids=["empty-pool", "pool"])
    def test_objective_variants_match(self, monkeypatch, kind, activation, classes,
                                      with_master, pool_rows):
        assert classes > net._SEQUENTIAL_SUM_WIDTH or classes == 2
        monkeypatch.setattr(training, "EVAL_EVERY", 7)
        cfg = ExperimentConfig(steps=37, ramp_len=20, consistency=kind, l2=0.01,
                               master_weight=0.7)
        got, want = self.both(cfg, classes, activation, with_master, pool_rows,
                              eval_set=pool_rows > 0)
        assert got == want

    def test_wrapped_names_are_called_once_per_step(self, monkeypatch):
        # a loop that bypassed these names (an import-time alias, say) would
        # hide its steps from anything that wraps them where they are looked up
        calls = {"augment": 0, "sgd_step": 0, "ema_update": 0}
        for module, name in ((training, "augment"), (net, "sgd_step"),
                             (training, "ema_update")):
            original = getattr(module, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        train_iteration(tiny(seed=3), x, y, pool, tiny(seed=4), ExperimentConfig(steps=37),
                        np.random.default_rng(0))
        assert calls == {"augment": 74, "sgd_step": 37, "ema_update": 37}


# (config keys, student scale, master scale, rng seed, eval inputs scale) -> the
# step the loop one step at a time names; each diverges another way
DIVERGENCE = {
    "weights-1e308": (dict(lambda1=1e308, lambda2_max=1e308), 1.0, 1.0, 0, 1.0, 0),
    "lambda2-1e308-no-master": (dict(lambda2_max=1e308), 1.0, None, 0, 1.0, 1),
    "master-weight-1e308": (dict(master_weight=1e308), 1.0, 1.0, 0, 1.0, 1),
    "learning-rate-1e6": (dict(learning_rate=1e6, lambda2_max=0.0), 1.0, None, 0, 1.0, 29),
    "mse-learning-rate-1e100": (dict(consistency="mse", learning_rate=1e100), 1.0, None, 0,
                                1.0, 1),
    # the master's pass overflows first on the view of step 3, then 22, then 38
    "master-overflow-step-3": (dict(sigma_aug=1.0), 1.0, 6.22e153, 4, 1.0, 2),
    "master-overflow-step-22": (dict(sigma_aug=1.0), 1.0, 6.1289e153, 3, 1.0, 21),
    "master-overflow-step-38": (dict(sigma_aug=1.0), 1.0, 5.7816e153, 1, 1.0, 37),
    "evaluation-overflow": ({}, 1.0, 1.0, 0, 3e307, 49),
    # a total that is not finite at step 0 comes before step 1's non-finite parameters
    "total-before-parameters": (dict(lambda1=3e307, learning_rate=1e-3, lambda2_max=0.0),
                                30.0, None, 0, 1.0, 0),
    # parameters stay finite; the window's totals are checked at its end
    "total-inside-a-window": (dict(lambda1=3e307, learning_rate=1e-320, momentum=0.0,
                                   lambda2_max=0.0), 10.0, None, 0, 1.0, 42),
}


class TestDivergenceStep:
    def run(self, iteration, keys, student_scale, master_scale, seed, eval_scale):
        x, y = small_problem()
        pool = np.random.default_rng(9).normal(size=(40, 2))
        master = None if master_scale is None else master_scale * tiny(seed=4)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as exc:
            iteration(student_scale * tiny(seed=3), x, y, pool, master,
                      ExperimentConfig(steps=60, **keys), np.random.default_rng(seed),
                      eval_x=eval_scale * x, eval_y=y)
        return exc.value.step

    @pytest.mark.parametrize("case", DIVERGENCE)
    def test_names_the_step(self, case):
        *args, step = DIVERGENCE[case]
        assert self.run(train_iteration, *args) == step

    @pytest.mark.parametrize("case", DIVERGENCE)
    @pytest.mark.parametrize("eval_every", [1, 7, 25])
    def test_names_the_per_step_loops_step(self, monkeypatch, case, eval_every):
        monkeypatch.setattr(training, "EVAL_EVERY", eval_every)
        *args, _ = DIVERGENCE[case]
        assert self.run(train_iteration, *args) == self.run(per_step_iteration, *args)


class TestAugment:
    def test_sigma_zero_identity(self):
        x = np.random.default_rng(0).normal(size=(10, 3))
        out = augment(x, 0.0, np.random.default_rng(1))
        np.testing.assert_array_equal(out, x)

    def test_monte_carlo_std(self):
        x = np.zeros((100_000, 1))
        out = augment(x, 0.3, np.random.default_rng(2))
        assert abs(out.std() - 0.3) / 0.3 < 0.02

    def test_stream_reproducible(self):
        x = np.random.default_rng(0).normal(size=(5, 2))
        a = augment(x, 0.5, np.random.default_rng(33))
        b = augment(x, 0.5, np.random.default_rng(33))
        np.testing.assert_array_equal(a, b)

    def test_sigma_zero_still_consumes_stream(self):
        # keeps run structure comparable whether or not noise is on
        r1 = np.random.default_rng(5)
        augment(np.zeros((4, 2)), 0.0, r1)
        r2 = np.random.default_rng(5)
        augment(np.zeros((4, 2)), 0.1, r2)
        np.testing.assert_allclose(r1.normal(), r2.normal())


class TestStepMetricsCsv:
    def test_round_trip(self, tmp_path):
        rows = [
            StepMetrics(0, 0.69314718, 0.1, 0.0, 0.79314718, 0.0, 0.5, 0.5),
            StepMetrics(1, 1 / 3, 0.25, 0.125, 0.70833333, 1.0, 0.25, 0.375),
            StepMetrics(2, 0.5, 0.25, 0.0, 0.75, 1.0, None, None),
        ]
        path = tmp_path / "steps.csv"
        write_step_metrics(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,J_C,J_theta_teacher,J_theta_master,J_S,lambda2,train_err,test_err"
        assert lines[3].endswith(",,")
        got = read_step_metrics(path)
        assert got == rows

    def test_nan_test_err_round_trips(self, tmp_path):
        path = tmp_path / "steps.csv"
        write_step_metrics(path, [StepMetrics(0, 0.5, 0.0, 0.0, 0.5, 0.0, 0.25,
                                              float("nan"))])
        (row,) = read_step_metrics(path)
        assert row.train_err == 0.25 and math.isnan(row.test_err)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = tmp_path / "steps.csv"
        rows = [StepMetrics(0, 0.5, 0.0, 0.0, 0.5, 0.0, None, None),
                StepMetrics(1, 0.5, 0.0, 0.0, 0.5, 0.0, 0.25, 0.5)]
        write_step_metrics(path, rows)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], "", lines[1], "", lines[2], ""]) + "\n")
        assert read_step_metrics(path) == rows

    def test_non_utf8_bytes_are_data_error(self, tmp_path):
        path = tmp_path / "steps.csv"
        write_step_metrics(path, [StepMetrics(0, 0.5, 0.0, 0.0, 0.5, 0.0, None, None)])
        path.write_bytes(path.read_bytes() + b"1,0.5,\xff\n")
        with pytest.raises(DataError, match=r"steps\.csv: .*can't decode byte 0xff"):
            read_step_metrics(path)

    @pytest.mark.parametrize("line", [
        "3,0.5,0.25,0.0,0.75,1.0,0.5",        # short
        "3,0.5,0.25,0.0,0.75,1.0,0.5,0.5,9",  # long
        "3,0.5,x,0.0,0.75,1.0,0.5,0.5",       # unparsable loss
        "3,0.5,0.25,,0.75,1.0,0.5,0.5",       # empty loss cell
        "3.5,0.5,0.25,0.0,0.75,1.0,0.5,0.5",  # non-integer step
        "3,0.5,0.25,0.0,0.75,1.0,0.5,half",   # unparsable error cell
    ], ids=["short", "long", "bad-loss", "empty-loss", "bad-step", "bad-err"])
    def test_malformed_row_is_data_error(self, tmp_path, line):
        path = tmp_path / "steps.csv"
        write_step_metrics(path, [StepMetrics(0, 0.5, 0.0, 0.0, 0.5, 0.0, None, None)])
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(DataError, match=rf"steps\.csv: line 3\b"):
            read_step_metrics(path)

    def test_wrong_header_is_data_error(self, tmp_path):
        path = tmp_path / "steps.csv"
        path.write_text("step,J_C\n0,1\n")
        with pytest.raises(DataError, match=r"steps\.csv: unexpected step metrics header"):
            read_step_metrics(path)
