"""Forward pass, gradient, optimizer, and checkpoint behaviour."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
import reference

import snowball.network as net
from snowball.errors import ConfigError, DataError, NumericsError
from snowball.network import (
    ModelParams,
    error_rate,
    forward,
    forward_batch,
    grad,
    grad_from_dlogits,
    init_params,
    load_checkpoint,
    predict_labels,
    row_max,
    row_sum,
    save_checkpoint,
    sgd_step,
    softmax,
)


def tiny_net(dims=(2, 5, 3), activation="relu", seed=0):
    return init_params(dims, activation=activation, seed=seed)


def one_hot(labels, c):
    out = np.zeros((len(labels), c))
    out[np.arange(len(labels)), labels] = 1.0
    return out


class TestForward:
    def test_zero_net_uniform_probs(self):
        p = reference.from_layers(
            weights=(np.zeros((4, 3)),),
            biases=(np.zeros(3),),
        )
        out = forward_batch(p, np.array([1.0, -2.0, 0.5, 3.0]))
        np.testing.assert_allclose(out.probs[0], np.full(3, 1 / 3), atol=1e-15)

    def test_identity_linear_logits(self):
        # one linear layer mapping input straight to logits (1, 0)
        p = reference.from_layers(weights=(np.eye(2),), biases=(np.zeros(2),))
        out = forward_batch(p, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.probs[0], [0.7311, 0.2689], atol=1e-4)
        np.testing.assert_allclose(out.probs[0].sum(), 1.0, atol=1e-15)

    def test_softmax_shift_invariance(self):
        logits = np.array([0.3, -1.2, 2.0])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 1000.0), atol=1e-12)

    def test_softmax_large_logits_no_overflow(self):
        probs = softmax(np.array([1e4, 0.0]))
        assert np.all(np.isfinite(probs))
        assert probs[0] == pytest.approx(1.0)

    def test_features_are_penultimate_activations(self):
        p = tiny_net((2, 5, 3))
        out = forward_batch(p, np.array([0.3, -0.7]))
        assert out.features.shape == (1, 5)
        assert out.logits.shape == (1, 3)
        # relu features are non-negative by construction
        assert np.all(out.features >= 0)

    def test_batch_matches_single(self):
        p = tiny_net((3, 4, 2), seed=3)
        x = np.random.default_rng(1).normal(size=(6, 3))
        batched = forward_batch(p, x)
        for i in range(6):
            single = forward_batch(p, x[i])
            np.testing.assert_allclose(batched.probs[i], single.probs[0], atol=1e-14)
            np.testing.assert_allclose(batched.features[i], single.features[0], atol=1e-14)

    def test_nonfinite_input_raises_with_layer(self):
        p = tiny_net()
        with pytest.raises(NumericsError, match=r"at layer \d+$"):
            forward_batch(p, np.array([np.nan, 0.0]))

    def test_init_is_deterministic(self):
        a = init_params((4, 8, 3), seed=11)
        b = init_params((4, 8, 3), seed=11)
        assert reference.params_equal(a, b)
        c = init_params((4, 8, 3), seed=12)
        assert not reference.params_equal(a, c)

    def test_init_biases_zero_and_weights_bounded(self):
        p = init_params((10, 7, 2), seed=5)
        for b in reference.biases(p):
            assert np.all(b == 0)
        for w in reference.weights(p):
            fan_in, fan_out = w.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) <= bound)


class TestGradient:
    def assert_grad_close(self, p, x, targets, tol=1e-4):
        g = grad(p, x, targets).buffer
        fd = reference.central_differences(lambda q: reference.batch_loss(q, x, targets), p)
        assert (np.abs(g - fd) / np.maximum(np.abs(fd), 1e-8)).max() < tol

    def test_finite_difference_random_nets(self):
        rng = np.random.default_rng(42)
        for trial in range(8):
            dims = (int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(2, 4)))
            act = "relu" if trial % 2 == 0 else "tanh"
            p = init_params(dims, activation=act, seed=int(rng.integers(1000)))
            x = rng.normal(size=(5, dims[0]))
            y = rng.integers(0, dims[-1], size=5)
            self.assert_grad_close(p, x, one_hot(y, dims[-1]))

    def test_dead_relu_path_zero_grad(self):
        # large negative bias on one hidden unit keeps it off for small inputs,
        # so the incoming weights of that unit get exactly zero gradient
        p = init_params((2, 3, 2), activation="relu", seed=0)
        reference.biases(p)[0][1] = -100.0
        x = np.random.default_rng(0).normal(size=(4, 2)) * 0.1
        (w, b), _ = reference.layers(grad(p, x, one_hot(np.array([0, 1, 0, 1]), 2)))
        assert np.all(w[:, 1] == 0)
        assert b[1] == 0

    def test_duplicated_batch_same_gradient(self):
        p = tiny_net((3, 4, 2), seed=9)
        x = np.random.default_rng(2).normal(size=(5, 3))
        t = one_hot(np.array([0, 1, 1, 0, 1]), 2)
        g1 = grad(p, x, t)
        g2 = grad(p, np.concatenate([x, x]), np.concatenate([t, t]))
        np.testing.assert_allclose(g1.buffer, g2.buffer, atol=1e-14)

    def test_sample_weights_scale_contributions(self):
        p = tiny_net((2, 4, 2), seed=4)
        x = np.random.default_rng(3).normal(size=(2, 2))
        t = one_hot(np.array([0, 1]), 2)
        # per-sample weights scale the rows of dlogits; the weighted mean
        # gradient with weights (2, 0) is the first row's: (2*g0 + 0*g1)/2 == g0
        w = np.array([2.0, 0.0])
        trace = forward_batch(p, x)
        gw = grad_from_dlogits(p, trace, (trace.probs - t) / 2 * w[:, None])
        g0 = grad(p, x[:1], t[:1])
        np.testing.assert_allclose(gw.buffer, g0.buffer, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError):
            grad(tiny_net((1, 2)), np.zeros((1, 1)), np.array([[1.0, 0.0, 0.0]]))


class TestNoCallerArrayWrites:
    """softmax, grad and backward compute in place, but only on arrays they
    made: the caller's dlogits, inputs and targets and the trace stay
    byte-identical, and a gradient shares no memory with any of them."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_grad_from_dlogits_and_probs(self, activation):
        p = tiny_net((3, 6, 5, 4), activation=activation, seed=3)
        rng = np.random.default_rng(5)
        trace = forward_batch(p, rng.normal(size=(7, 3)))
        dlogits = rng.normal(size=(7, 4))
        caller = (dlogits, p.buffer, *trace.activations)
        before = [a.tobytes() for a in caller]
        probs = trace.probs
        g = grad_from_dlogits(p, trace, dlogits)
        assert [a.tobytes() for a in caller] == before
        assert not any(np.shares_memory(g.buffer, a) for a in (*caller, probs))
        assert not np.shares_memory(probs, trace.logits)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_grad(self, activation, monkeypatch):
        p = tiny_net((3, 6, 5, 4), activation=activation, seed=3)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 3))
        targets = one_hot(rng.integers(0, 4, size=7), 4)
        traces = []

        def keep_trace(*args):
            traces.append(forward_batch(*args))
            return traces[-1]
        monkeypatch.setattr(net, "forward_batch", keep_trace)
        before = [a.tobytes() for a in (x, targets, p.buffer)]
        g = grad(p, x, targets)
        (trace,) = traces
        assert [a.tobytes() for a in (x, targets, p.buffer)] == before
        fresh = forward_batch(p, x)
        assert [a.tobytes() for a in trace.activations] == \
            [a.tobytes() for a in fresh.activations]
        assert trace.probs.tobytes() == fresh.probs.tobytes()
        assert not any(np.shares_memory(g.buffer, a)
                       for a in (x, targets, p.buffer, trace.probs, *trace.activations))


class TestTraceFreeForward:
    """`forward` runs forward_batch's layer loop without keeping the trace."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_features_and_logits_are_byte_equal(self, activation):
        rng = np.random.default_rng(5)
        for trial in range(6):
            dims = tuple(int(d) for d in rng.integers(2, 9, size=int(rng.integers(2, 5))))
            p = init_params(dims, activation=activation, seed=trial)
            x = rng.normal(scale=3.0, size=(int(rng.integers(1, 40)), dims[0]))
            lean, traced = forward(p, x), forward_batch(p, x)
            assert len(lean.activations) == 2 and len(traced.activations) == len(dims)
            for name in ("features", "logits", "probs"):
                assert getattr(lean, name).tobytes() == getattr(traced, name).tobytes()

    def test_one_sample_is_one_row(self):
        p = tiny_net((3, 4, 2), seed=3)
        x = np.array([0.5, -1.0, 2.0])
        assert forward(p, x).logits.tobytes() == forward_batch(p, x[None, :]).logits.tobytes()

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("at_layer, x", [(0, [[1e308, 1e308]]), (1, [[1e10, 1e10]])])
    def test_overflow_names_the_same_layer(self, activation, at_layer, x):
        # layer 0 sums two 1e308 inputs; else its output is finite and the
        # 1e308 weights of the last layer overflow
        p = reference.from_layers(weights=(np.ones((2, 4)), np.full((4, 3), 1e308)),
                                  biases=(np.zeros(4), np.zeros(3)), activation=activation)
        for fn in (forward, forward_batch):
            with np.errstate(over="ignore"), \
                    pytest.raises(NumericsError, match=f"at layer {at_layer}$"):
                fn(p, np.array(x))

    def test_backward_needs_the_trace(self):
        p = tiny_net((2, 5, 3))
        x = np.zeros((4, 2))
        with pytest.raises(ConfigError, match="trace"):
            grad_from_dlogits(p, forward(p, x), np.zeros((4, 3)))

    def test_ties_predict_and_score_as_before(self):
        # logits (x0, x0, x1) + bias: every row ties classes 0 and 1, and the
        # rows with x0 == x1 tie all three
        p = reference.from_layers(weights=(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),),
                                  biases=(np.zeros(3),))
        rng = np.random.default_rng(8)
        x = rng.integers(-2, 3, size=(200, 2)).astype(float)
        y = rng.integers(0, 3, size=200)
        # the traced pass's argmax and np.mean, as error_rate computed them
        # before it had a trace-free pass
        want_labels = np.argmax(forward_batch(p, x).logits, axis=1)
        want_err = float(np.mean(want_labels != y))
        assert np.array_equal(predict_labels(p, x), want_labels)
        assert set(want_labels) == {0, 2}
        assert repr(error_rate(p, x, y)) == repr(want_err)
        # all-zero logits: class 0 everywhere
        dead = reference.scaled(init_params((2, 6, 3), seed=1), 0.0)
        assert np.array_equal(predict_labels(dead, x), np.zeros(200, dtype=int))
        assert repr(error_rate(dead, x, y)) == repr(float(np.mean(y != 0)))


# finite doubles of either sign from 1e-300 to 1e300, and both zeros
MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), MAGNITUDES, MAGNITUDES.map(lambda v: -v))
ROWS = st.tuples(st.integers(1, 4), st.integers(1, 6), st.integers(1, 12)).flatmap(
    lambda kn_c: st.sampled_from([kn_c[1:], kn_c]))  # 2-D (n, C) or 3-D (k, n, C)
REDUCTIONS = settings(derandomize=True, max_examples=300, database=None, deadline=None)


def old_softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class TestClassAxisReductions:
    """row_max, row_sum and softmax reduce the last axis column by column and
    must stay byte-equal to numpy's own reductions: C = 1 to 12 covers both
    sides of the sequential-sum width, and a numpy that changes its summation
    order fails here."""

    @REDUCTIONS
    @given(arrays(np.float64, ROWS, elements=ENTRIES))
    def test_byte_equal_to_numpy(self, a):
        with np.errstate(over="ignore", invalid="ignore"):
            assert row_max(a).tobytes() == a.max(axis=-1).tobytes()
            assert row_sum(a).tobytes() == a.sum(axis=-1).tobytes()
            assert softmax(a).tobytes() == old_softmax(a).tobytes()

    @pytest.mark.parametrize("row", [[-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, 0.0],
                                     [-0.0] * 9])
    def test_signed_zeros(self, row):
        a = np.array([row])
        assert row_max(a).tobytes() == a.max(axis=-1).tobytes()
        assert row_sum(a).tobytes() == a.sum(axis=-1).tobytes()

    def test_one_dimensional_input(self):
        logits = np.array([0.3, -1.2, 2.0])
        assert softmax(logits).tobytes() == old_softmax(logits).tobytes()


def bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a).view(np.int64)


def layer_deltas(params, acts, dlogits):
    """The gradient at each layer's output, first layer first, as the backward loop forms it."""
    delta, out = np.asarray(dlogits, dtype=float), []
    weights = reference.weights(params)
    for i in range(len(weights) - 1, -1, -1):
        out.append(delta)
        if i > 0:
            delta = delta @ weights[i].T
            delta *= net._activation_grad(acts[i], params.activation)
    return out[::-1]


class TestBiasGradientReduction:
    """_backward reduces a C-contiguous bias gradient wider than one column
    with einsum("ij->j"): numpy adds its rows in order, as sum(axis=0) does. A
    numpy that changes either loop order fails here, and so does an einsum on
    a width-1 or non-C-contiguous gradient, which sum adds pairwise."""

    @settings(max_examples=150, deadline=None)
    @given(rows=st.integers(1, 5000), width=st.integers(2, 64), seed=st.integers(0, 2 ** 32),
           zeros=st.sampled_from([0.0, 0.3, 1.0]))
    def test_equals_sum_bits(self, rows, width, seed, zeros):
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(-150, 150, width)
        delta[rng.random((rows, width)) < zeros] = -0.0  # whole columns of -0.0 at 1.0
        delta[rng.random((rows, width)) < zeros / 3] = 0.0
        x = rng.standard_normal((rows, 3))
        grads = net._layer_views(np.empty(3 * width + width), (3, width))
        net._backward((np.zeros((3, width)),), (x, delta), delta, grads, "relu")
        assert np.array_equal(bits(grads[0][1]), bits(delta.sum(axis=0)))

    @pytest.mark.parametrize("column", [[-0.0], [-0.0] * 20, [0.0, -0.0], [-0.0, 0.0, -0.0]])
    def test_signed_zero_columns(self, column):
        delta = np.array([column, [-0.0] * len(column)]).T.copy()  # (rows, 2), C-contiguous
        grads = net._layer_views(np.empty(2 * 2 + 2), (2, 2))
        net._backward((np.zeros((2, 2)),), (np.ones((len(delta), 2)), delta), delta, grads, "relu")
        assert np.array_equal(bits(grads[0][1]), bits(delta.sum(axis=0)))

    @pytest.mark.parametrize("dims", [(3, 1, 2), (2, 1, 1, 3), (3, 4, 1)],
                             ids=["hidden-1", "two-hidden-1", "classes-1"])
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_width_one_keeps_sum_bits(self, dims, activation):
        rng = np.random.default_rng(5)
        params = init_params(dims, activation, seed=2)
        # positive inputs and biases keep a relu unit alive on every row
        reference.biases(params)[0][...] = 3.0
        x = rng.uniform(0.5, 1.5, size=(2000, dims[0]))
        trace = forward_batch(params, x)
        shape = trace.logits.shape
        dlogits = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
        deltas = layer_deltas(params, trace.activations, dlogits)
        got = reference.biases(grad_from_dlogits(params, trace, dlogits))
        assert [bits(g).tolist() for g in got] == [bits(d.sum(axis=0)).tolist() for d in deltas]
        # the data has teeth: an einsum would change every width-1 bias gradient here
        for delta in (d for d in deltas if d.shape[1] == 1):
            assert not np.array_equal(bits(np.einsum("ij->j", delta)), bits(delta.sum(axis=0)))

    def test_fortran_ordered_dlogits_keep_sum_bits(self):
        rng = np.random.default_rng(6)
        params = init_params((3, 8, 4), seed=2)
        trace = forward_batch(params, rng.standard_normal((3000, 3)))
        dlogits = np.asfortranarray(rng.standard_normal(trace.logits.shape))
        deltas = layer_deltas(params, trace.activations, dlogits)
        got = reference.biases(grad_from_dlogits(params, trace, dlogits))
        assert [bits(g).tolist() for g in got] == [bits(d.sum(axis=0)).tolist() for d in deltas]
        # pairwise column sums differ from an ordered pass on this data
        assert not np.array_equal(bits(np.einsum("ij->j", dlogits)), bits(dlogits.sum(axis=0)))


class TestStackedForward:
    """_run_layers on the layer views of a stack_params stack, the pass a
    training step runs, gives each model the activations of its own
    forward_batch, byte for byte."""

    @staticmethod
    def run_stack(models, xs):
        layers = net._layer_views(net.stack_params(models), models[0].layer_dims)
        return net._run_layers(layers, models[0].activation, xs, keep_trace=True)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("shared", [False, True], ids=["own-inputs", "shared-input"])
    @pytest.mark.parametrize("n", [1, 64])
    def test_each_model_matches_its_own_pass(self, activation, k, shared, n):
        rng = np.random.default_rng(10 * k + n)
        dims = (3, 7, 5, 4)
        models = [reference.scaled(init_params(dims, activation, seed=s), 1.0 + s)
                  for s in range(k)]
        xs = np.stack([rng.normal(scale=3.0, size=(n, 3))] * k if shared
                      else [rng.normal(scale=3.0, size=(n, 3)) for _ in range(k)])
        acts = self.run_stack(models, xs)
        assert acts[-1].shape == (k, n, 4)
        for i, model in enumerate(models):
            want = forward_batch(model, xs[i])
            assert len(acts) == len(want.activations)
            for a, w in zip(acts, want.activations):
                assert a[i].flags.c_contiguous and a[i].tobytes() == w.tobytes()
            assert softmax(acts[-1])[i].tobytes() == want.probs.tobytes()

    @pytest.mark.parametrize("culprit", [0, 1, 2])
    def test_overflow_in_any_model_raises(self, culprit):
        models = [init_params((2, 4, 3), seed=s) for s in range(3)]
        models[culprit] = reference.scaled(models[culprit], 1e300)
        x = np.full((3, 5, 2), 100.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError):
            self.run_stack(models, x)

    @pytest.mark.parametrize("other", [init_params((2, 5, 3), seed=1),
                                       init_params((2, 4, 3), "tanh", seed=1)],
                             ids=["layer-dims", "activation"])
    def test_models_of_different_shape_are_config_error(self, other):
        with pytest.raises(ConfigError):
            net.stack_params([init_params((2, 4, 3), seed=0), other])


def sgd(params, gradient, lr, momentum, velocity=None, l2=0.0):
    """sgd_step on copies of params and of velocity (zero when None): the
    stepped model and its velocity."""
    q = params.copy()
    v = np.zeros_like(params.buffer) if velocity is None else velocity.copy()
    sgd_step(q, gradient.buffer, v, lr, momentum, l2)
    return q, v


class TestSgd:
    def test_zero_grad_noop(self):
        p = tiny_net()
        q, _ = sgd(p, reference.scaled(p, 0.0), lr=0.5, momentum=0.9)
        assert reference.params_equal(p, q)

    def test_steps_in_place_from_zero_velocity(self):
        # the first step from v = 0 is v = g, p - lr * g, written over p and v
        p = tiny_net(seed=2)
        g = init_params(p.layer_dims, seed=3)
        buffer, velocity = p.buffer, np.zeros_like(p.buffer)
        want = p.buffer - 0.5 * g.buffer
        assert sgd_step(p, g.buffer, velocity, 0.5, 0.9) is None
        assert p.buffer is buffer
        np.testing.assert_array_equal(velocity, g.buffer)
        np.testing.assert_array_equal(p.buffer, want)

    def test_plain_step_is_lr_times_grad(self):
        p = tiny_net(seed=2)
        g = init_params(p.layer_dims, seed=3)
        q, _ = sgd(p, g, lr=1.0, momentum=0.0)
        np.testing.assert_allclose(q.buffer, p.buffer - g.buffer, atol=1e-15)

    def test_momentum_second_delta(self):
        # v1 = g, v2 = 0.9 g + g = 1.9 g  ->  second delta is 1.9*lr*g
        p = tiny_net(seed=7)
        g = init_params(p.layer_dims, seed=8)
        q1, v1 = sgd(p, g, lr=1.0, momentum=0.9)
        q2, v2 = sgd(q1, g, lr=1.0, momentum=0.9, velocity=v1)
        np.testing.assert_allclose(q1.buffer - q2.buffer, 1.9 * g.buffer, atol=1e-12)
        np.testing.assert_array_equal(v1, g.buffer)
        np.testing.assert_allclose(v2, 1.9 * g.buffer, atol=1e-12)

    def test_l2_decays_weights_not_biases(self):
        # with a zero gradient the step is the decay term alone: w - lr*l2*w
        p = tiny_net(seed=2)
        for b in reference.biases(p):
            b += 1.0
        q, _ = sgd(p, reference.scaled(p, 0.0), lr=0.5, momentum=0.0, l2=0.1)
        for (pw, pb), (qw, qb) in zip(reference.layers(p), reference.layers(q)):
            np.testing.assert_array_equal(qw, pw - 0.5 * (0.0 + 0.1 * pw))
            np.testing.assert_array_equal(qb, pb)

    def test_l2_matches_finite_differences_of_the_penalised_loss(self):
        # a first step's velocity is the gradient it descends: that of the mean
        # cross-entropy + (l2/2)*||W||^2, with the biases (nonzero here) left out
        rng = np.random.default_rng(5)
        p = init_params((3, 5, 4, 2), activation="tanh", seed=6)
        for b in reference.biases(p):
            b[...] = rng.normal(size=b.shape)
        x = rng.normal(size=(6, 3))
        targets = one_hot(rng.integers(0, 2, size=6), 2)
        l2 = 0.3

        def penalised(q):
            return reference.batch_loss(q, x, targets) + 0.5 * l2 * sum(
                float((w * w).sum()) for w in reference.weights(q))

        _, velocity = sgd(p, grad(p, x, targets), lr=0.1, momentum=0.9, l2=l2)
        numeric = reference.central_differences(penalised, p)
        np.testing.assert_allclose(velocity, numeric, rtol=1e-5, atol=1e-9)

    @pytest.mark.parametrize("momentum", [1.0, -0.1, float("nan")])
    def test_momentum_outside_unit_interval_rejected(self, momentum):
        p = tiny_net()
        with pytest.raises(ConfigError, match="momentum must lie in"):
            sgd(p, p, lr=0.1, momentum=momentum)


class TestParamsAlgebra:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            reference.from_layers(weights=(np.zeros((2, 3)),), biases=(np.zeros(4),))

    def test_copy_is_independent(self):
        a = tiny_net(seed=1)
        b = a.copy()
        assert reference.params_equal(a, b)
        reference.weights(b)[0][0, 0] += 1.0
        assert not reference.params_equal(a, b)

    def test_constructor_copies_its_arrays(self):
        w, b = np.eye(2), np.zeros(2)
        p = reference.from_layers(weights=(w,), biases=(b,))
        w[0, 0] = 5.0
        b[1] = 3.0
        np.testing.assert_array_equal(reference.weights(p)[0], np.eye(2))
        np.testing.assert_array_equal(reference.biases(p)[0], np.zeros(2))

    def test_layers_are_views_of_the_buffer_in_checkpoint_layout(self):
        # distinct entries, so equal views sit at the same places
        p = ModelParams(np.arange(17.0), (2, 3, 2))
        views = net._layer_views(p.buffer, p.layer_dims)
        for (w, b), (want_w, want_b) in zip(views, reference.layers(p), strict=True):
            assert w.shape == want_w.shape and np.array_equal(w, want_w)
            assert b.shape == want_b.shape and np.array_equal(b, want_b)
            assert np.shares_memory(w, p.buffer) and np.shares_memory(b, p.buffer)

    def test_derived_values_do_not_alias_their_operands(self):
        a = tiny_net(seed=1)
        derived = [a.copy().buffer, copy.deepcopy(a).buffer]
        for i, r in enumerate(derived):
            for other in [a.buffer] + derived[:i]:
                assert not np.shares_memory(r, other)

    def test_attributes_cannot_be_rebound(self):
        p = tiny_net()
        with pytest.raises(AttributeError):
            p.activation = "tanh"

    def test_pickle_round_trip_copies_the_value(self):
        p = tiny_net(activation="tanh", seed=4)
        q = pickle.loads(pickle.dumps(p))
        assert q.buffer.tobytes() == p.buffer.tobytes()
        assert (q.layer_dims, q.activation) == ((2, 5, 3), "tanh")
        assert not np.shares_memory(q.buffer, p.buffer)

    @pytest.mark.parametrize("change, message", [
        ({"buffer": np.zeros(3)}, "need 33 float64 parameters"),
        ({"buffer": np.zeros(33, dtype=np.float32)}, "need 33 float64 parameters"),
        ({"layer_dims": (2,)}, "at least two sizes, all positive"),
        ({"layer_dims": (2, 0, 3)}, "at least two sizes, all positive"),
        ({"layer_dims": (2, -5, 3)}, "at least two sizes, all positive"),
        ({"activation": "swish"}, "unknown activation 'swish'"),
        # a list would reach the cached layout's hash: a bare TypeError
        ({"layer_dims": [2, 5, 3]}, r"layer_dims must be a tuple of integers, got \[2, 5, 3\]"),
        ({"layer_dims": (2, 5.0, 3)}, "layer_dims must be a tuple of integers"),
        ({"layer_dims": ([2], 5, 3)}, "layer_dims must be a tuple of integers"),
    ], ids=["buffer-size", "buffer-dtype", "one-dim", "zero-dim", "negative-dim", "activation",
            "list-dims", "float-dim", "list-dim"])
    def test_construction_checks_its_fields(self, change, message):
        p = tiny_net()  # (2, 5, 3): 33 parameters
        fields = {"buffer": p.buffer, "layer_dims": p.layer_dims, "activation": p.activation}
        with pytest.raises(ConfigError, match=message):
            ModelParams(**(fields | change))
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(p, **change)

    def test_numpy_integer_dims_build(self):
        dims = tuple(np.array([2, 5, 3]))
        p = ModelParams(np.zeros(33), dims)
        assert [w.shape for w in reference.weights(p)] == [(2, 5), (5, 3)]


class TestCheckpoint:
    def test_bytes_are_header_plus_buffer(self, tmp_path):
        p = init_params((3, 4, 2), activation="tanh", seed=5)
        save_checkpoint(p, tmp_path / "m.ckpt")
        expect = b"SNOWBALL-CKPT v1\n3 4 2\ntanh\n" + p.buffer.astype("<f8").tobytes()
        assert (tmp_path / "m.ckpt").read_bytes() == expect


    def test_round_trip_bit_identical(self, tmp_path):
        p = init_params((4, 16, 8, 3), activation="tanh", seed=123)
        path = tmp_path / "model.ckpt"
        save_checkpoint(p, path)
        q = load_checkpoint(path)
        assert reference.params_equal(p, q)
        x = np.random.default_rng(0).normal(size=(10, 4))
        a = forward_batch(p, x)
        b = forward_batch(q, x)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.probs, b.probs)

    def test_header_is_text(self, tmp_path):
        p = tiny_net((2, 3, 2))
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        head = blob.split(b"\n", 3)
        assert head[0] == b"SNOWBALL-CKPT v1"
        assert head[1] == b"2 3 2"
        assert head[2] == b"relu"

    def test_corrupt_magic_rejected(self, tmp_path):
        p = tiny_net()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        (tmp_path / "bad.ckpt").write_bytes(b"XXXX" + blob[4:])
        with pytest.raises(Exception):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_truncated_payload_rejected(self, tmp_path):
        p = tiny_net()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        blob = path.read_bytes()
        (tmp_path / "short.ckpt").write_bytes(blob[:-8])
        with pytest.raises(Exception):
            load_checkpoint(tmp_path / "short.ckpt")


    def test_payload_of_partial_floats_is_data_error(self, tmp_path):
        p = tiny_net()
        path = tmp_path / "m.ckpt"
        save_checkpoint(p, path)
        (tmp_path / "odd.ckpt").write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataError, match="bytes"):
            load_checkpoint(tmp_path / "odd.ckpt")

    def test_non_positive_dims_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SNOWBALL-CKPT v1\n2 0 2\nrelu\n" + np.zeros(2).tobytes())
        with pytest.raises(DataError, match="positive"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header, message", [
        (b"2 2\nswish", "unknown activation 'swish'"),
        (b"6\nrelu", "at least two sizes"),
    ], ids=["activation", "one-dim"])
    def test_header_the_model_rejects_is_data_error(self, tmp_path, header, message):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SNOWBALL-CKPT v1\n" + header + b"\n" + np.zeros(6).tobytes())
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)


class TestPredict:
    def test_error_rate_counts_mismatches(self):
        p = reference.from_layers(weights=(np.eye(2),), biases=(np.zeros(2),))
        x = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(predict_labels(p, x), [0, 1, 0, 1])
        assert error_rate(p, x, np.array([0, 1, 0, 1])) == 0.0
        assert error_rate(p, x, np.array([1, 1, 0, 1])) == 0.25

    @pytest.mark.parametrize("y", [[1], [0, 1, 0, 1, 0, 1]], ids=["one-label", "six-labels"])
    def test_error_rate_needs_one_label_per_row(self, y):
        # one label would broadcast over all five rows and compare
        p = reference.from_layers(weights=(np.eye(2),), biases=(np.zeros(2),))
        x = np.array([[2.0, 0.0], [0.0, 2.0], [3.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ConfigError, match=rf"labels of shape \({len(y)},\) for 5 rows"):
            error_rate(p, x, np.array(y))

    @pytest.mark.parametrize("y, label", [([7] * 5, 7), ([0, 1, -1, 1, 0], -1)],
                             ids=["above", "negative"])
    def test_error_rate_rejects_a_label_that_is_not_a_class(self, y, label):
        # such a label was once scored as one more wrong prediction
        x = np.random.default_rng(0).normal(size=(5, 2))
        with pytest.raises(ConfigError, match=f"label {label} is not a class of a 2-class net"):
            error_rate(init_params((2, 4, 2)), x, y)
