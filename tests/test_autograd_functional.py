"""Tests for the functional API: activations, losses, pooling, dropout, padding."""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.tensor import Tensor, Workspace

from conftest import assert_grad_close, numerical_gradient


class TestSoftmaxAndLosses:
    def test_softmax_sums_to_one(self, rng):
        logits = Tensor(rng.standard_normal((4, 7)).astype(np.float32))
        probs = F.softmax(logits, axis=1)
        np.testing.assert_allclose(probs.data.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_softmax_stable_for_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        probs = F.softmax(logits, axis=1)
        assert np.all(np.isfinite(probs.data))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
        np.testing.assert_allclose(F.log_softmax(logits, axis=1).data,
                                   np.log(F.softmax(logits, axis=1).data), rtol=1e-4, atol=1e-5)

    def test_cross_entropy_of_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]], dtype=np.float32))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.data < 1e-3

    def test_cross_entropy_uniform_equals_log_classes(self):
        logits = Tensor(np.zeros((5, 4), dtype=np.float32))
        loss = F.cross_entropy(logits, np.zeros(5, dtype=np.int64))
        assert loss.data == pytest.approx(np.log(4), rel=1e-4)

    def test_cross_entropy_gradient_matches_numeric(self, rng):
        logits_val = rng.standard_normal((3, 4)).astype(np.float32)
        labels = np.array([0, 2, 1])
        logits = Tensor(logits_val.copy(), requires_grad=True)
        F.cross_entropy(logits, labels).backward()

        def loss_fn(arr):
            shifted = arr - arr.max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            return float(-log_probs[np.arange(3), labels].mean())

        numeric = numerical_gradient(loss_fn, logits_val.astype(np.float64))
        assert_grad_close(logits.grad, numeric)

    def test_mse_loss(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = F.mse_loss(a, np.array([0.0, 0.0]))
        assert loss.data == pytest.approx(2.5)
        loss.backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])

    def test_one_hot(self):
        oh = F.one_hot(np.array([1, 0, 2]), 3)
        np.testing.assert_array_equal(oh, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])


class TestLinear:
    def test_linear_matches_manual(self, rng):
        x = rng.standard_normal((2, 3)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, rtol=1e-5)


class TestPooling:
    def test_avg_pool_matches_manual(self, rng):
        x = rng.standard_normal((1, 1, 4, 4)).astype(np.float32)
        out = F.avg_pool2d(Tensor(x), 2)
        expected = x.reshape(1, 1, 2, 2, 2, 2).mean(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_max_pool_matches_manual(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = F.max_pool2d(Tensor(x), 2)
        expected = x.reshape(1, 2, 2, 2, 2, 2).max(axis=(3, 5))
        np.testing.assert_allclose(out.data, expected, rtol=1e-5)

    def test_avg_pool_gradient_is_uniform(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.avg_pool2d(x, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_max_pool_gradient_goes_to_argmax(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert x.grad.sum() == pytest.approx(4.0)
        assert x.grad[0, 0, 3, 3] == pytest.approx(1.0)

    def test_adaptive_avg_pool_to_one(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        out = F.adaptive_avg_pool2d(Tensor(x), 1)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3), keepdims=True), rtol=1e-5)

    def test_adaptive_avg_pool_requires_divisible(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 7, 7)).astype(np.float32))
        with pytest.raises(ValueError):
            F.adaptive_avg_pool2d(x, 2)


def _im2col_max_pool(x_nchw: np.ndarray, grad_nchw: np.ndarray, kernel: int):
    """Output and input gradient of the im2col/argmax max pool (the reference)."""
    reference = F._MaxPool2dFunction(kernel)
    out = reference._forward_general(x_nchw)
    (grad_x,) = reference.backward(grad_nchw)
    return out, grad_x


def _pool_inputs(rng, shape):
    """Binary spike maps (ties everywhere, all-zero windows) and continuous values."""
    return [
        (rng.random(shape) < 0.3).astype(np.float32),
        (rng.random(shape) < 0.7).astype(np.float32),
        np.zeros(shape, dtype=np.float32),
        rng.standard_normal(shape).astype(np.float32),
    ]


class TestMaxPoolWindowPath:
    """The strided-window max pool against the independent im2col/argmax path."""

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("workspace", [False, True])
    def test_nchw_matches_im2col_reference(self, rng, kernel, workspace):
        ctx = F._MaxPool2dFunction(kernel)
        if workspace:
            ctx.set_workspace(Workspace())
        # Repeated calls on one context: a reused workspace buffer must not
        # leak the previous input's values.
        for x in _pool_inputs(rng, (2, 3, 2 * kernel * 3, kernel * 4)):
            grad = rng.standard_normal((2, 3, 6, 4)).astype(np.float32)
            out = ctx.forward(x)
            assert ctx._fast
            want_out, want_grad = _im2col_max_pool(x, grad, kernel)
            np.testing.assert_array_equal(out, want_out)
            np.testing.assert_array_equal(ctx.forward_inference(x), want_out)
            (grad_x,) = ctx.backward(grad)
            np.testing.assert_array_equal(grad_x, want_grad)

    @pytest.mark.parametrize("kernel", [2, 3])
    @pytest.mark.parametrize("workspace", [False, True])
    def test_channels_last_matches_im2col_reference(self, rng, kernel, workspace):
        ctx = F._MaxPool2dCLFunction(kernel)
        if workspace:
            ctx.set_workspace(Workspace())
        for x in _pool_inputs(rng, (3, kernel * 4, 2 * kernel * 3, 5)):
            grad = rng.standard_normal((3, 4, 6, 5)).astype(np.float32)
            out = ctx.forward(x)
            assert ctx._fallback is None
            want_out, want_grad = _im2col_max_pool(
                np.ascontiguousarray(x.transpose(0, 3, 1, 2)),
                np.ascontiguousarray(grad.transpose(0, 3, 1, 2)), kernel)
            np.testing.assert_array_equal(out, want_out.transpose(0, 2, 3, 1))
            np.testing.assert_array_equal(ctx.forward_inference(x),
                                          want_out.transpose(0, 2, 3, 1))
            (grad_x,) = ctx.backward(grad)
            np.testing.assert_array_equal(grad_x, want_grad.transpose(0, 2, 3, 1))


class TestDropoutAndPad:
    def test_dropout_identity_in_eval(self, rng):
        x = Tensor(rng.standard_normal((5, 5)).astype(np.float32))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_scales_in_train(self, rng):
        x = Tensor(np.ones((1000,), dtype=np.float32))
        out = F.dropout(x, 0.5, training=True, rng=np.random.default_rng(0))
        # Inverted dropout keeps the expectation ~1.
        assert out.data.mean() == pytest.approx(1.0, abs=0.15)
        assert set(np.unique(out.data)).issubset({0.0, 2.0})

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.5, training=True)

    def test_pad2d_shapes_and_gradient(self):
        x = Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
        out = F.pad2d(x, (1, 2))
        assert out.shape == (1, 1, 4, 6)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((1, 1, 2, 2)))
