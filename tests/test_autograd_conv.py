"""Tests for the im2col convolution: correctness against a naive reference and gradients."""

import numpy as np
import pytest

from repro.autograd import conv as conv_module
from repro.autograd.conv import (
    col2im,
    conv2d,
    conv2d_channels_last,
    conv2d_output_shape,
    im2col,
)
from repro.autograd.tensor import Tensor

from conftest import assert_grad_close, numerical_gradient


def naive_conv2d(x, w, stride=(1, 1), padding=(0, 0)):
    """Reference convolution (cross-correlation) with explicit loops."""
    n, c, h, wdt = x.shape
    o, _, kh, kw = w.shape
    sh, sw = stride
    ph, pw = padding
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    oh = (h + 2 * ph - kh) // sh + 1
    ow = (wdt + 2 * pw - kw) // sw + 1
    out = np.zeros((n, o, oh, ow), dtype=np.float64)
    for b in range(n):
        for oc in range(o):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[b, :, i * sh:i * sh + kh, j * sw:j * sw + kw]
                    out[b, oc, i, j] = np.sum(patch * w[oc])
    return out


class TestOutputShape:
    def test_basic_shape(self):
        assert conv2d_output_shape((32, 32), (3, 3), 1, 1) == (32, 32)

    def test_stride_two(self):
        assert conv2d_output_shape((32, 32), (3, 3), 2, 1) == (16, 16)

    def test_asymmetric_kernel(self):
        assert conv2d_output_shape((10, 10), (3, 1), 1, (1, 0)) == (10, 10)
        assert conv2d_output_shape((10, 10), (1, 3), 1, (0, 1)) == (10, 10)

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv2d_output_shape((2, 2), (5, 5), 1, 0)


class TestIm2Col:
    def test_round_trip_shapes(self, rng):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        cols = im2col(x, (3, 3), 1, 1)
        assert cols.shape == (2, 3 * 9, 36)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> (adjointness), required for correct gradients."""
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float64)
        y = rng.standard_normal((1, 2 * 9, 25)).astype(np.float64)
        lhs = float((im2col(x, (3, 3), 1, 1) * y).sum())
        rhs = float((x * col2im(y, x.shape, (3, 3), 1, 1)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestConvForward:
    @pytest.mark.parametrize("kernel,stride,padding", [
        ((3, 3), (1, 1), (1, 1)),
        ((3, 3), (2, 2), (1, 1)),
        ((1, 1), (1, 1), (0, 0)),
        ((3, 1), (1, 1), (1, 0)),
        ((1, 3), (1, 1), (0, 1)),
        ((5, 5), (1, 1), (2, 2)),
    ])
    def test_matches_naive(self, rng, kernel, stride, padding):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((4, 3) + kernel).astype(np.float32)
        out = conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding)
        expected = naive_conv2d(x, w, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-4, atol=1e-4)

    def test_bias_added(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 1, 1)).astype(np.float32)
        b = np.array([1.0, -1.0, 0.5], dtype=np.float32)
        out = conv2d(Tensor(x), Tensor(w), Tensor(b))
        no_bias = conv2d(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data - no_bias.data, b.reshape(1, 3, 1, 1) * np.ones_like(out.data),
                                   rtol=1e-5)

    def test_channel_mismatch_raises(self, rng):
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        with pytest.raises(ValueError):
            conv2d(Tensor(x), Tensor(w), padding=1)


class TestConvBackward:
    def test_weight_gradient_matches_numeric(self, rng):
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w_val = (rng.standard_normal((2, 2, 3, 3)) * 0.3).astype(np.float32)
        w = Tensor(w_val.copy(), requires_grad=True)
        out = conv2d(Tensor(x), w, padding=1)
        (out * out).sum().backward()

        def loss_fn(arr):
            y = naive_conv2d(x.astype(np.float64), arr, (1, 1), (1, 1))
            return float((y * y).sum())

        numeric = numerical_gradient(loss_fn, w_val.astype(np.float64))
        assert_grad_close(w.grad, numeric, atol=5e-2, rtol=5e-2)

    def test_input_gradient_matches_numeric(self, rng):
        x_val = rng.standard_normal((1, 2, 5, 5)).astype(np.float32)
        w = (rng.standard_normal((3, 2, 3, 1)) * 0.3).astype(np.float32)
        x = Tensor(x_val.copy(), requires_grad=True)
        out = conv2d(x, Tensor(w), padding=(1, 0))
        (out * out).sum().backward()

        def loss_fn(arr):
            y = naive_conv2d(arr, w.astype(np.float64), (1, 1), (1, 0))
            return float((y * y).sum())

        numeric = numerical_gradient(loss_fn, x_val.astype(np.float64))
        assert_grad_close(x.grad, numeric, atol=5e-2, rtol=5e-2)

    def test_strided_gradients_have_right_shape(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 3, 3)).astype(np.float32), requires_grad=True)
        b = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
        out = conv2d(x, w, b, stride=2, padding=1)
        out.sum().backward()
        assert x.grad.shape == x.shape
        assert w.grad.shape == w.shape
        assert b.grad.shape == (4,)
        np.testing.assert_allclose(b.grad, np.full(4, out.shape[2] * out.shape[3] * 2), rtol=1e-5)

    def test_gradient_accumulates_over_reuse(self, rng):
        """Using the same weight twice (as TT layers reuse conv1) accumulates both paths."""
        x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((2, 2, 1, 1)).astype(np.float32), requires_grad=True)
        out1 = conv2d(x, w)
        out2 = conv2d(x, w)
        (out1.sum() + out2.sum()).backward()
        single = conv2d(x, w)
        w2 = Tensor(w.data.copy(), requires_grad=True)
        conv2d(x, w2).sum().backward()
        np.testing.assert_allclose(w.grad, 2 * w2.grad, rtol=1e-5)


# layout -> (functional conv, its column gather, input shape)
LAYOUTS = {
    "nchw": (conv2d, "_im2col_batched", (2, 3, 6, 6)),
    "channels_last": (conv2d_channels_last, "_im2col_cl", (2, 6, 6, 3)),
}


def _conv_backward(layout, x, weight, kernel):
    conv = LAYOUTS[layout][0]
    padding = kernel // 2
    out = conv(x, weight, padding=padding)
    upstream = np.random.default_rng(1).standard_normal(out.shape).astype(np.float32)
    (out * Tensor(upstream)).sum().backward()
    return upstream


class TestEagerGradientWaste:
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_input_without_grad_skips_the_input_gradient(self, layout, rng, monkeypatch):
        """The network input needs no gradient: backward gathers no grad columns."""
        _, gather_name, shape = LAYOUTS[layout]
        x_val = rng.standard_normal(shape).astype(np.float32)
        w_val = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        reference = Tensor(w_val.copy(), requires_grad=True)
        _conv_backward(layout, Tensor(x_val, requires_grad=True), reference, 3)

        gathers = []
        original = getattr(conv_module, gather_name)

        def spy(x, kernel_hw, stride=1, padding=0):
            gathers.append(x.shape)
            return original(x, kernel_hw, stride, padding)

        monkeypatch.setattr(conv_module, gather_name, spy)
        x = Tensor(x_val)
        weight = Tensor(w_val.copy(), requires_grad=True)
        _conv_backward(layout, x, weight, 3)
        assert x.grad is None
        assert gathers == [shape]                 # the forward's gather only
        np.testing.assert_array_equal(weight.grad.view(np.uint32),
                                      reference.grad.view(np.uint32))

    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_input_gradient_is_adopted_without_a_copy(self, layout, kernel, rng):
        """The kernel hands back an array owning its storage; the tape keeps it."""
        shape = LAYOUTS[layout][2]
        x_val = rng.standard_normal(shape).astype(np.float32)
        w_val = rng.standard_normal((4, 3, kernel, kernel)).astype(np.float32)
        x = Tensor(x_val, requires_grad=True)
        _conv_backward(layout, x, Tensor(w_val), kernel)
        assert x.grad.base is None and not x._grad_owned
