"""Weight holders and optimiser, and the autodiff oracle they train on
(including gradient checks)."""

import numpy as np
import pytest

from oracle import (
    Tensor,
    categorical_entropy,
    categorical_log_prob,
    cross_entropy_loss,
    forward,
    gaussian_entropy,
    gaussian_log_prob,
    mse_loss,
    ops,
)
from repro.nn import MLP, Adam, Dense


def numeric_gradient(function, array, epsilon=1e-6):
    gradient = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        plus = function()
        flat[index] = original - epsilon
        minus = function()
        flat[index] = original
        grad_flat[index] = (plus - minus) / (2 * epsilon)
    return gradient


class TestTensorBasics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_simple_chain_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        y = (x * x) + x
        y.backward()
        assert x.grad == pytest.approx(7.0)

    def test_gradient_accumulates_across_uses(self):
        x = Tensor(2.0, requires_grad=True)
        y = x + x
        y.backward()
        assert x.grad == pytest.approx(2.0)

    def test_broadcast_gradient_unbroadcasts(self):
        x = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones(4), requires_grad=True)
        loss = ops.sum(x + b)
        loss.backward()
        assert b.grad.shape == (4,)
        assert np.allclose(b.grad, 3.0)


class TestGradientChecks:
    @pytest.mark.parametrize(
        "operation",
        ["matmul_tanh", "softmax", "log_softmax", "div", "exp_log", "clip", "minmax"],
    )
    def test_against_numeric_gradient(self, operation):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(4, 3))
        b_data = rng.normal(size=(3, 2))
        # Snapshot the div denominator once: if it were rebuilt from a_data
        # inside build(), the numeric check would measure the total derivative
        # through the denominator, which no autodiff graph over `a` alone can
        # match (the denominator tensor is a detached constant).
        div_denominator = np.abs(a_data) + 1.0

        def build():
            a = Tensor(a_data, requires_grad=True)
            b = Tensor(b_data, requires_grad=True)
            if operation == "matmul_tanh":
                out = ops.sum(ops.tanh(ops.matmul(a, b)))
            elif operation == "softmax":
                out = ops.sum(ops.mul(ops.softmax(a, axis=-1), Tensor(a_data * 0 + 0.3)))
            elif operation == "log_softmax":
                out = ops.sum(ops.log_softmax(a, axis=-1))
            elif operation == "div":
                out = ops.sum(ops.div(a, Tensor(div_denominator)))
            elif operation == "exp_log":
                out = ops.sum(ops.log(ops.exp(a)))
            elif operation == "clip":
                out = ops.sum(ops.clip(a, -0.5, 0.5))
            elif operation == "minmax":
                out = ops.sum(ops.maximum(a, ops.minimum(a, Tensor(a_data * 0))))
            return a, out

        a, out = build()
        out.backward()
        analytic = a.grad.copy()

        def value():
            _, result = build()
            return float(result.item())

        numeric = numeric_gradient(value, a_data)
        assert np.max(np.abs(numeric - analytic)) < 1e-5

    def test_gather_rows_gradient(self):
        table_data = np.random.default_rng(1).normal(size=(5, 3))
        indices = np.array([0, 2, 2, 4])
        table = Tensor(table_data, requires_grad=True)
        out = ops.sum(ops.gather_rows(table, indices))
        out.backward()
        expected = np.zeros_like(table_data)
        np.add.at(expected, indices, 1.0)
        assert np.allclose(table.grad, expected)

    def test_take_along_last_axis_gradient(self):
        logits = Tensor(np.zeros((3, 4)), requires_grad=True)
        picked = ops.take_along_last_axis(logits, np.array([1, 2, 0]))
        ops.sum(picked).backward()
        assert logits.grad.sum() == pytest.approx(3.0)
        assert logits.grad[0, 1] == 1.0

    def test_concatenate_gradient_splits(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 2)), requires_grad=True)
        out = ops.sum(ops.concatenate([a, b], axis=1))
        out.backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (2, 2)


class TestLayersAndTraining:
    def test_mlp_shapes(self):
        mlp = MLP(10, [64, 64], 3, rng=np.random.default_rng(0))
        output = forward(mlp, Tensor(np.zeros((5, 10))))
        assert output.shape == (5, 3)
        assert mlp.num_parameters() == 10 * 64 + 64 + 64 * 64 + 64 + 64 * 3 + 3

    def test_dense_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            Dense(2, 2, activation="swish")

    def test_state_dict_round_trip(self):
        mlp = MLP(4, [8], 2, rng=np.random.default_rng(0))
        other = MLP(4, [8], 2, rng=np.random.default_rng(99))
        other.load_state_dict(mlp.state_dict())
        x = Tensor(np.random.default_rng(2).normal(size=(3, 4)))
        assert np.allclose(forward(mlp, x).numpy(), forward(other, x).numpy())

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP(4, [8], 2)
        wrong = MLP(4, [16], 2)
        with pytest.raises(ValueError):
            mlp.load_state_dict(wrong.state_dict())

    def test_adam_fits_regression(self):
        rng = np.random.default_rng(0)
        mlp = MLP(2, [32], 1, rng=rng)
        optimizer = Adam(mlp.parameters(), learning_rate=1e-2)
        inputs = rng.normal(size=(128, 2))
        targets = (inputs[:, :1] * 2 - inputs[:, 1:] * 0.5)
        losses = []
        for _ in range(200):
            prediction = forward(mlp, Tensor(inputs))
            loss = mse_loss(prediction, Tensor(targets))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert losses[-1] < 0.05
        assert losses[-1] < losses[0] / 10

    def test_gradient_clipping(self):
        parameter = Dense(2, 2).weight
        parameter.grad = np.full((2, 2), 100.0)
        optimizer = Adam([parameter], learning_rate=1.0)
        norm = optimizer.clip_gradients(1.0)
        assert norm > 1.0
        assert np.linalg.norm(parameter.grad) == pytest.approx(1.0, rel=1e-6)

    def test_classification_learns(self):
        rng = np.random.default_rng(3)
        inputs = rng.normal(size=(200, 2))
        labels = (inputs[:, 0] > 0).astype(int)
        model = MLP(2, [16], 2, rng=rng)
        optimizer = Adam(model.parameters(), learning_rate=5e-3)
        for _ in range(150):
            loss = cross_entropy_loss(forward(model, Tensor(inputs)), labels)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        accuracy = (np.argmax(forward(model, Tensor(inputs)).numpy(), axis=1) == labels).mean()
        assert accuracy > 0.9


class TestDistributions:
    def test_categorical_log_prob_matches_manual(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]))
        log_prob = categorical_log_prob(logits, np.array([1]))
        manual = np.log(np.exp(2.0) / np.exp([1.0, 2.0, 0.5]).sum())
        assert log_prob.numpy()[0] == pytest.approx(manual)

    def test_categorical_entropy_uniform_is_maximal(self):
        uniform = categorical_entropy(Tensor(np.zeros((1, 4))))
        peaked = categorical_entropy(Tensor(np.array([[10.0, 0.0, 0.0, 0.0]])))
        assert uniform.numpy()[0] > peaked.numpy()[0]
        assert uniform.numpy()[0] == pytest.approx(np.log(4), rel=1e-6)

    def test_gaussian_log_prob_peak_at_mean(self):
        mean = Tensor(np.array([[0.5]]))
        log_std = Tensor(np.array([0.0]))
        at_mean = gaussian_log_prob(mean, log_std, np.array([[0.5]])).numpy()[0]
        away = gaussian_log_prob(mean, log_std, np.array([[2.0]])).numpy()[0]
        assert at_mean > away

    def test_gaussian_entropy_grows_with_std(self):
        small = gaussian_entropy(Tensor(np.array([-1.0]))).item()
        large = gaussian_entropy(Tensor(np.array([1.0]))).item()
        assert large > small
