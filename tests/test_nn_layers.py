"""Tests for the standard layers: Conv2d, Linear, BatchNorm2d, pooling, dropout."""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.nn.layers import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    BatchNormSequenceFunction,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn import init

from conftest import OpTableContext


class TestConv2dLayer:
    def test_output_shape_square(self, rng, small_image_batch):
        conv = Conv2d(3, 8, 3, stride=1, padding=1)
        out = conv(Tensor(small_image_batch))
        assert out.shape == (2, 8, 8, 8)

    def test_output_shape_asymmetric(self, rng, small_image_batch):
        conv_v = Conv2d(3, 4, (3, 1), padding=(1, 0))
        conv_h = Conv2d(3, 4, (1, 3), padding=(0, 1))
        assert conv_v(Tensor(small_image_batch)).shape == (2, 4, 8, 8)
        assert conv_h(Tensor(small_image_batch)).shape == (2, 4, 8, 8)

    def test_same_padding_string(self, small_image_batch):
        conv = Conv2d(3, 4, 3, padding="same")
        assert conv.padding == (1, 1)
        assert conv(Tensor(small_image_batch)).shape[-2:] == (8, 8)

    def test_stride_downsamples(self, small_image_batch):
        conv = Conv2d(3, 4, 3, stride=2, padding=1)
        assert conv(Tensor(small_image_batch)).shape[-2:] == (4, 4)

    def test_bias_parameter_optional(self):
        assert Conv2d(3, 4, 3, bias=False).bias is None
        assert Conv2d(3, 4, 3, bias=True).bias is not None

    def test_invalid_channels(self):
        with pytest.raises(ValueError):
            Conv2d(0, 4, 3)

    def test_output_shape_helper(self):
        conv = Conv2d(3, 4, 3, stride=2, padding=1)
        assert conv.output_shape((32, 32)) == (16, 16)


class TestLinearLayer:
    def test_shapes_and_grad(self, rng):
        fc = Linear(6, 3)
        x = Tensor(rng.standard_normal((4, 6)).astype(np.float32), requires_grad=True)
        out = fc(x)
        assert out.shape == (4, 3)
        out.sum().backward()
        assert fc.weight.grad.shape == (3, 6)
        assert fc.bias.grad.shape == (3,)


class TestBatchNorm2d:
    def test_normalises_in_training(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)).astype(np.float32) * 3 + 2)
        out = bn(x)
        assert abs(out.data.mean()) < 1e-2
        assert abs(out.data.std() - 1.0) < 5e-2

    def test_running_stats_updated(self, rng):
        bn = BatchNorm2d(2, momentum=0.5)
        x = Tensor(np.ones((4, 2, 3, 3), dtype=np.float32) * 10)
        bn(x)
        assert np.all(bn.running_mean.data > 0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((8, 2, 4, 4)).astype(np.float32))
        for _ in range(20):
            bn(x)
        bn.eval()
        out_eval = bn(x)
        bn.train()
        out_train = bn(x)
        # After many updates the two paths should be close but computed differently.
        assert out_eval.shape == out_train.shape
        assert np.all(np.isfinite(out_eval.data))

    def test_rejects_non_4d(self):
        bn = BatchNorm2d(2)
        with pytest.raises(ValueError):
            bn(Tensor(np.ones((2, 2))))

    def test_gamma_init(self):
        bn = BatchNorm2d(3, gamma_init=0.5)
        np.testing.assert_allclose(bn.weight.data, np.full(3, 0.5))


def _reference_bn_sequence(x, weight, bias, grad, training, gamma_scale, eps,
                           running_mean, running_var, momentum):
    """Float64 forward and backward of ``T`` single-timestep batch norms."""
    affine = weight is not None
    scale = gamma_scale * weight.astype(np.float64) if affine else 1.0
    shift = bias.astype(np.float64) if affine else 0.0
    running_mean = running_mean.astype(np.float64)
    running_var = running_var.astype(np.float64)
    axes = (0, 1, 2)
    outs, grads_x = [], []
    grad_weight = grad_bias = 0.0
    for x_t, g_t in zip(x.astype(np.float64), grad.astype(np.float64)):
        if training:
            mean, var = x_t.mean(axis=axes), x_t.var(axis=axes)
            running_mean = (1 - momentum) * running_mean + momentum * mean
            running_var = (1 - momentum) * running_var + momentum * var
        else:
            mean, var = running_mean, running_var
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x_t - mean) * inv_std
        outs.append(xhat * scale + shift)
        grad_xhat = g_t * scale
        if training:
            grad_xhat = (grad_xhat - grad_xhat.mean(axis=axes)
                         - xhat * (grad_xhat * xhat).mean(axis=axes))
        grads_x.append(grad_xhat * inv_std)
        grad_weight = grad_weight + gamma_scale * (g_t * xhat).sum(axis=axes)
        grad_bias = grad_bias + g_t.sum(axis=axes)
    grads = [np.stack(grads_x)] + ([grad_weight, grad_bias] if affine else [])
    return np.stack(outs), grads, running_mean, running_var


class TestBatchNormSequenceFunction:
    """The fused kernel against the per-timestep expression in float64."""

    @pytest.mark.parametrize("shape", [(3, 4, 5, 5, 3), (3, 1, 1, 1, 4), (2, 3, 4, 4, 1)],
                             ids=["general", "one-row-per-step", "one-channel"])
    @pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
    @pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("gamma_scale", [1.0, 0.75])
    @pytest.mark.parametrize("entry", ["context", "op-table"])
    def test_matches_per_timestep_reference(self, shape, affine, training, gamma_scale, entry):
        """Directly on a context, and through the ``bn_seq`` entry compiled replays run."""
        rng = np.random.default_rng(11)
        channels = shape[-1]
        x = (rng.standard_normal(shape) * 2 + 1).astype(np.float32)
        grad = rng.standard_normal(shape).astype(np.float32)
        weight = (1 + 0.3 * rng.standard_normal(channels)).astype(np.float32) if affine else None
        bias = rng.standard_normal(channels).astype(np.float32) if affine else None
        running_mean = rng.standard_normal(channels).astype(np.float32)
        running_var = (0.5 + rng.random(channels)).astype(np.float32)
        before = (running_mean.copy(), running_var.copy())
        eps, momentum = 1e-5, 0.2
        want_out, want_grads, want_mean, want_var = _reference_bn_sequence(
            x, weight, bias, grad, training, gamma_scale, eps,
            running_mean, running_var, momentum)

        ctor = dict(eps=eps, training=training, running_mean=running_mean,
                    running_var=running_var, gamma_scale=gamma_scale)
        if entry == "context":
            ctx = BatchNormSequenceFunction(**ctor)
        else:
            # The entry's forward also applies the running-stat updates.
            ctx = OpTableContext("bn_seq", {"cls": BatchNormSequenceFunction,
                                            "ctor": dict(ctor, repeats=1),
                                            "momentum": momentum})
        inputs = (x, weight, bias) if affine else (x,)
        out = ctx.forward(*inputs)
        assert out.shape == shape and out.dtype == np.float32
        np.testing.assert_allclose(out, want_out, rtol=1e-5, atol=1e-5)
        if not training:
            np.testing.assert_allclose(ctx.forward_inference(*inputs), want_out,
                                       rtol=1e-5, atol=1e-5)
        grads = ctx.backward(grad)
        assert len(grads) == len(want_grads)
        for got, want in zip(grads, want_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

        if training and entry == "context":
            ctx.update_running_stats(running_mean, running_var, momentum)
        np.testing.assert_allclose(running_mean, want_mean, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(running_var, want_var, rtol=1e-5, atol=1e-5)
        if not training:
            np.testing.assert_array_equal(running_mean, before[0])
            np.testing.assert_array_equal(running_var, before[1])


    def test_input_gradient_is_adopted_without_a_copy(self):
        """The eager input gradient owns its storage, so the tape adopts it."""
        from repro.nn.layers import batch_norm_sequence

        rng = np.random.default_rng(12)
        shape = (3, 2, 4, 4, 5)
        x_val = rng.standard_normal(shape).astype(np.float32)
        grad = rng.standard_normal(shape).astype(np.float32)
        weight = Tensor(np.ones(5, np.float32), requires_grad=True)
        bias = Tensor(np.zeros(5, np.float32), requires_grad=True)
        x = Tensor(x_val, requires_grad=True)
        out = batch_norm_sequence(x, weight, bias, eps=1e-5, momentum=0.1, training=True,
                                  running_mean=np.zeros(5, np.float32),
                                  running_var=np.ones(5, np.float32))
        (out * Tensor(grad)).sum().backward()
        assert x.grad.base is None and not x._grad_owned

    def test_repeats_count_running_stat_updates(self):
        """A step declared as T copies updates the buffers as T copies would."""
        rng = np.random.default_rng(13)
        step = rng.standard_normal((1, 3, 2, 2, 4)).astype(np.float32)
        stats = {}
        for name, x, repeats in (("repeated", step, 3), ("copies", np.repeat(step, 3, 0), 1)):
            mean, var = np.zeros(4, np.float32), np.ones(4, np.float32)
            ctx = BatchNormSequenceFunction(1e-5, True, repeats=repeats)
            ctx.forward(x)
            ctx.update_running_stats(mean, var, 0.1)
            stats[name] = (mean, var)
        for got, want in zip(stats["repeated"], stats["copies"]):
            np.testing.assert_array_equal(got, want)


class TestPoolingLayers:
    def test_avg_and_max_pool_layers(self, small_image_batch):
        assert AvgPool2d(2)(Tensor(small_image_batch)).shape == (2, 3, 4, 4)
        assert MaxPool2d(2)(Tensor(small_image_batch)).shape == (2, 3, 4, 4)

    def test_adaptive_pool_layer(self, small_image_batch):
        assert AdaptiveAvgPool2d(1)(Tensor(small_image_batch)).shape == (2, 3, 1, 1)


class TestMiscLayers:
    def test_flatten(self, small_image_batch):
        assert Flatten()(Tensor(small_image_batch)).shape == (2, 3 * 64)

    def test_identity(self, small_image_batch):
        x = Tensor(small_image_batch)
        assert Identity()(x) is x

    def test_relu_layer(self):
        out = ReLU()(Tensor(np.array([-1.0, 1.0])))
        np.testing.assert_allclose(out.data, [0.0, 1.0])

    def test_dropout_layer_respects_training_flag(self, rng):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((100,), dtype=np.float32))
        drop.eval()
        np.testing.assert_array_equal(drop(x).data, x.data)
        drop.train()
        assert not np.array_equal(drop(x).data, x.data)


class TestInit:
    def test_fan_in_fan_out_conv(self):
        fan_in, fan_out = init.calculate_fan_in_fan_out((8, 4, 3, 3))
        assert fan_in == 4 * 9 and fan_out == 8 * 9

    def test_kaiming_normal_std(self):
        w = init.kaiming_normal((256, 128, 3, 3), rng=np.random.default_rng(0))
        expected_std = np.sqrt(2.0 / (256 * 9))
        assert w.std() == pytest.approx(expected_std, rel=0.05)

    def test_xavier_uniform_bound(self):
        w = init.xavier_uniform((64, 64), rng=np.random.default_rng(0))
        bound = np.sqrt(6.0 / 128)
        assert np.all(np.abs(w) <= bound + 1e-6)

    def test_fan_requires_2d(self):
        with pytest.raises(ValueError):
            init.calculate_fan_in_fan_out((5,))
