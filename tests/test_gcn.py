"""Reference GCN checks: hand cases, an independent evaluator, and central
finite differences for every gradient path."""

import numpy as np
import pytest

from gcnpart import (
    CsrMatrix,
    GcnModel,
    LabelSet,
    apply_update,
    backprop,
    feedforward,
    init_model,
    nll_loss_and_grad,
    normalize_adjacency,
    train_serial,
)
from gcnpart.gcn import activate

from helpers import random_labels, random_undirected


def naive_forward(a_dense, weights, h0, relu=True):
    """Independent forward evaluator: plain dense numpy, no library calls."""
    h = h0
    for w in weights:
        z = a_dense @ h @ w
        h = np.maximum(z, 0.0) if relu else z
    return h


def loss_of(model, a_hat, h0, labels):
    trace = feedforward(model, a_hat, h0)
    loss, _ = nll_loss_and_grad(trace.h[model.n_layers], labels)
    return loss


class TestFeedforward:
    def test_all_identity_pipeline(self):
        h0 = np.random.default_rng(0).standard_normal((4, 4))
        model = GcnModel((4, 4), (np.eye(4),), activation="identity")
        trace = feedforward(model, CsrMatrix.identity(4), h0)
        assert np.array_equal(trace.h[1], h0)

    def test_two_vertex_averaging(self):
        a_hat = normalize_adjacency(CsrMatrix.from_coo(2, 2, [0, 1], [1, 0]))
        model = GcnModel((2, 2), (np.eye(2),), activation="identity")
        trace = feedforward(model, a_hat, np.eye(2))
        np.testing.assert_allclose(trace.h[1], 0.5 * np.ones((2, 2)))

    def test_matches_independent_evaluator(self):
        rng = np.random.default_rng(16)
        a_hat = normalize_adjacency(random_undirected(16, 0.3, 16))
        model = init_model((4, 8, 3), seed=5)
        h0 = rng.standard_normal((16, 4))
        trace = feedforward(model, a_hat, h0)
        want = naive_forward(a_hat.to_dense(), model.weights, h0)
        np.testing.assert_allclose(trace.h[2], want, rtol=1e-12, atol=1e-13)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        a_hat = normalize_adjacency(random_undirected(10, 0.4, 2))
        model = init_model((3, 5, 2), seed=1)
        h0 = rng.standard_normal((10, 3))
        t1 = feedforward(model, a_hat, h0)
        t2 = feedforward(model, a_hat, h0)
        for k in range(1, 3):
            assert np.array_equal(t1.h[k], t2.h[k])
            assert np.array_equal(t1.z[k], t2.z[k])

    def test_shape_mismatch(self):
        model = init_model((3, 2), seed=0)
        with pytest.raises(ValueError):
            feedforward(model, CsrMatrix.identity(4), np.ones((4, 5)))


class TestNllLoss:
    def test_uniform_logits_give_log_c(self):
        for c in (2, 3, 7):
            h = np.zeros((1, c))
            labels = LabelSet([0], [1 % c], c)
            loss, _ = nll_loss_and_grad(h, labels)
            assert loss == pytest.approx(np.log(c), rel=1e-12)

    def test_confident_correct_logits_vanish(self):
        h = np.zeros((1, 4))
        h[0, 2] = 50.0
        loss, _ = nll_loss_and_grad(h, LabelSet([0], [2], 4))
        assert loss < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((5, 3))
        labels = LabelSet([0, 2, 4], [1, 0, 2], 3)
        _, grad = nll_loss_and_grad(h, labels)
        step = 1e-6
        for i in range(5):
            for j in range(3):
                hp, hm = h.copy(), h.copy()
                hp[i, j] += step
                hm[i, j] -= step
                lp, _ = nll_loss_and_grad(hp, labels)
                lm, _ = nll_loss_and_grad(hm, labels)
                fd = (lp - lm) / (2 * step)
                assert grad[i, j] == pytest.approx(fd, abs=1e-6)

    def test_unlabeled_rows_zero_gradient(self):
        h = np.random.default_rng(1).standard_normal((4, 2))
        _, grad = nll_loss_and_grad(h, LabelSet([1], [0], 2))
        assert np.array_equal(grad[[0, 2, 3]], np.zeros((3, 2)))

    def test_empty_label_set_rejected(self):
        with pytest.raises(ValueError):
            nll_loss_and_grad(np.ones((2, 2)), LabelSet([], [], 2))

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            nll_loss_and_grad(np.ones((2, 3)), LabelSet([0], [1], 2))


class TestBackprop:
    def test_identity_collapse_to_linear_regression(self):
        # sigma = identity, A = I, L = 1: dW = H0^T grad
        rng = np.random.default_rng(3)
        h0 = rng.standard_normal((5, 3))
        w = rng.standard_normal((3, 2))
        model = GcnModel((3, 2), (w,), activation="identity")
        a = CsrMatrix.identity(5)
        trace = feedforward(model, a, h0)
        grad = rng.standard_normal((5, 2))
        grads_w, g = backprop(model, a, trace, grad)
        np.testing.assert_allclose(grads_w[0], h0.T @ grad, rtol=1e-12)
        assert np.array_equal(g[1], grad)

    def test_zero_gradient_zero_updates(self):
        rng = np.random.default_rng(4)
        a_hat = normalize_adjacency(random_undirected(8, 0.4, 4))
        model = init_model((3, 4, 2), seed=2)
        trace = feedforward(model, a_hat, rng.standard_normal((8, 3)))
        grads_w, _ = backprop(model, a_hat, trace, np.zeros((8, 2)))
        for gw in grads_w:
            assert np.array_equal(gw, np.zeros_like(gw))

    def test_grad_last_shape_mismatch_rejected(self):
        model = init_model((3, 2), seed=0)
        a = CsrMatrix.identity(4)
        trace = feedforward(model, a, np.ones((4, 3)))
        # (1, 2) and (4, 1) would broadcast against the (4, 2) output
        for shape in ((4, 3), (1, 2), (4, 1)):
            with pytest.raises(ValueError, match=rf"grad_last has shape \({shape[0]}, {shape[1]}\), expected \(4, 2\)"):
                backprop(model, a, trace, np.ones(shape))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weight_gradients_match_finite_differences(self, seed):
        rng = np.random.default_rng([12, seed])
        n, dims = 12, (3, 5, 4, 2)
        a_hat = normalize_adjacency(random_undirected(n, 0.3, seed))
        model = init_model(dims, seed=seed)
        h0 = rng.standard_normal((n, dims[0]))
        labels = random_labels(n, dims[-1], 5, seed)
        trace = feedforward(model, a_hat, h0)
        _, grad_last = nll_loss_and_grad(trace.h[model.n_layers], labels)
        grads_w, _ = backprop(model, a_hat, trace, grad_last)
        step = 1e-6
        for k, w in enumerate(model.weights):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    wp = [x.copy() for x in model.weights]
                    wm = [x.copy() for x in model.weights]
                    wp[k][i, j] += step
                    wm[k][i, j] -= step
                    mp = GcnModel(dims, tuple(wp))
                    mm = GcnModel(dims, tuple(wm))
                    tp = feedforward(mp, a_hat, h0)
                    tm = feedforward(mm, a_hat, h0)
                    # skip entries whose pre-activation crosses 0 within the step
                    crossed = any(
                        np.any(np.sign(zp) != np.sign(zm))
                        for zp, zm in zip(tp.z[1:], tm.z[1:])
                    )
                    if crossed:
                        continue
                    lp = nll_loss_and_grad(tp.h[len(dims) - 1], labels)[0]
                    lm = nll_loss_and_grad(tm.h[len(dims) - 1], labels)[0]
                    fd = (lp - lm) / (2 * step)
                    assert grads_w[k][i, j] == pytest.approx(fd, rel=1e-5, abs=1e-7)


class TestApplyUpdate:
    def test_zero_gradients_keep_model_bit_exact(self):
        model = init_model((3, 2), seed=1)
        updated = apply_update(model, [np.zeros((3, 2))])
        assert np.array_equal(updated.weights[0], model.weights[0])

    def test_arithmetic(self):
        model = GcnModel((1, 1), (np.array([[1.0]]),), learning_rate=1.0)
        updated = apply_update(model, [np.array([[0.25]])])
        assert updated.weights[0][0, 0] == 0.75

    def test_two_half_steps_equal_one_full_step(self):
        g = np.random.default_rng(5).standard_normal((3, 2))
        w0 = np.random.default_rng(6).standard_normal((3, 2))
        full = GcnModel((3, 2), (w0,), learning_rate=0.2)
        half = GcnModel((3, 2), (w0,), learning_rate=0.1)
        one = apply_update(full, [g])
        two = apply_update(apply_update(half, [g]), [g])
        np.testing.assert_allclose(one.weights[0], two.weights[0], atol=1e-15)

    def test_shape_mismatch(self):
        model = init_model((3, 2), seed=1)
        with pytest.raises(ValueError):
            apply_update(model, [np.zeros((2, 3))])


class TestRelu:
    def test_zero_input_uses_zero_subgradient(self):
        z = np.zeros((2, 2))
        h, dh = activate("relu", z), activate("relu", z, derivative=True)
        assert np.array_equal(h, np.zeros((2, 2)))
        assert np.array_equal(dh, np.zeros((2, 2)))

    def test_simple_values(self):
        z = np.array([[-1.0, 2.0]])
        h, dh = activate("relu", z), activate("relu", z, derivative=True)
        assert np.array_equal(h, [[0.0, 2.0]])
        assert np.array_equal(dh, [[0.0, 1.0]])

    def test_output_vanishes_where_derivative_does(self):
        z = np.random.default_rng(7).standard_normal((6, 6))
        h, dh = activate("relu", z), activate("relu", z, derivative=True)
        assert np.array_equal(h * (1.0 - dh), np.zeros_like(h))


class TestTraining:
    def test_loss_decreases_on_separable_toy(self):
        # two cliques, labels = clique id: separable 2-class node task
        n_per = 6
        rows, cols = [], []
        for base in (0, n_per):
            for i in range(n_per):
                for j in range(i + 1, n_per):
                    rows += [base + i, base + j]
                    cols += [base + j, base + i]
        a_hat = normalize_adjacency(CsrMatrix.from_coo(2 * n_per, 2 * n_per, rows, cols))
        rng = np.random.default_rng(21)
        h0 = rng.standard_normal((2 * n_per, 4))
        labels = LabelSet(np.arange(2 * n_per), np.repeat([0, 1], n_per), 2)
        model = init_model((4, 4, 2), seed=3, learning_rate=0.05)
        _, losses, _ = train_serial(model, a_hat, a_hat, h0, labels, epochs=5)
        assert all(b < a for a, b in zip(losses, losses[1:]))
