"""Batch norm in TT rank space: ``bn_proj_seq`` against ``conv4 -> bn_seq``.

A TT layer followed by a batch norm runs its last 1x1 core and the norm as
one node (:class:`repro.nn.layers.BatchNormProjectionFunction`) in fused step
mode.  The node must compute what the composed pair computes: the output,
every gradient (``dh`` reaches the layer input and the other cores, ``dW4``,
``dgamma``, ``dbeta``, TEBN's gains) and both running buffers, for every TT
format, stride placement, norm kind and mode.  It must also keep no state
between calls: two forwards before one backward give the gradients and the
``2 * T`` running-stat updates of two separate steps.
"""

import copy

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.models.blocks import conv_norm_sequence, make_norm
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.nn.module import sequence_forward
from repro.runtime.graph import GraphCapture
from repro.runtime.replay import CompiledTrainStep
from repro.snn.loss import mean_output_cross_entropy
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d

TIMESTEPS = 3
FORMATS = {"stt": STTConv2d, "ptt": PTTConv2d, "htt": HTTConv2d}


def _layer_pair(variant, stride_mode, norm_kind, training, dtype):
    """A stride-2 TT layer and its norm with non-trivial affine and running stats."""
    rng = np.random.default_rng(0)
    kwargs = dict(rank=3, stride=2, stride_mode=stride_mode, rng=rng)
    if variant == "htt":
        kwargs.update(timesteps=TIMESTEPS, schedule="FHF")
    conv = FORMATS[variant](4, 6, **kwargs)
    norm = make_norm(norm_kind, 6, timesteps=TIMESTEPS)
    for name, param in norm.named_parameters():
        param.data = rng.uniform(0.5, 1.5, param.shape) if name.endswith("weight") \
            else rng.uniform(-0.5, 0.5, param.shape)
    for name, buffer in norm.named_buffers():
        buffer.data = rng.uniform(0.5, 1.5, buffer.shape) if name.endswith("var") \
            else rng.uniform(-0.3, 0.3, buffer.shape)
    for tensor in list(conv.parameters()) + list(norm.parameters()) \
            + [b for _, b in norm.named_buffers()]:
        tensor.data = np.asarray(tensor.data, dtype=dtype)
    conv.train(training)
    norm.train(training)
    return conv, norm


def _run(conv, norm, x, upstream, fused):
    """Output, input gradient, parameter gradients and buffers of one call."""
    conv, norm = copy.deepcopy(conv), copy.deepcopy(norm)
    x_t = Tensor(x, requires_grad=True)
    with GraphCapture() as capture:
        if fused:
            out = conv_norm_sequence(conv, norm, x_t)
        else:
            out = sequence_forward(norm, sequence_forward(conv, x_t))
    ops = {node.op for node in capture.nodes}
    (out * Tensor(upstream)).sum().backward()
    values = {"out": out.data, "dx": x_t.grad}
    for prefix, module in (("conv", conv), ("norm", norm)):
        values.update({f"d{prefix}.{name}": p.grad for name, p in module.named_parameters()})
    values.update({name: b.data for name, b in norm.named_buffers()})
    return values, ops


def _compare(variant, stride_mode, norm_kind, training, dtype):
    conv, norm = _layer_pair(variant, stride_mode, norm_kind, training, dtype)
    rng = np.random.default_rng(1)
    x = rng.standard_normal((TIMESTEPS, 2, 6, 6, 4)).astype(dtype)
    upstream = rng.standard_normal((TIMESTEPS, 2, 3, 3, 6)).astype(dtype)
    composed, composed_ops = _run(conv, norm, x, upstream, fused=False)
    fused, fused_ops = _run(conv, norm, x, upstream, fused=True)
    assert "bn_proj_seq" in fused_ops and "bn_seq" not in fused_ops
    assert "bn_proj_seq" not in composed_ops
    assert fused.keys() == composed.keys()
    return fused, composed


def _worst_relative(fused, composed):
    worst = {}
    for key, want in composed.items():
        got = fused[key]
        assert (got is None) == (want is None), key
        if want is None:                  # a supernet weight the choice leaves unused
            continue
        assert got.dtype == want.dtype and got.shape == want.shape, key
        worst[key] = float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))
    return worst


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("norm_kind", ["bn", "tdbn", "tebn"])
@pytest.mark.parametrize("stride_mode", ["first", "last"])
@pytest.mark.parametrize("variant", sorted(FORMATS))
def test_rank_space_norm_matches_composed_float64(variant, stride_mode, norm_kind, training):
    """Every compared value within 1e-10 relative of ``conv4 -> bn_seq``."""
    fused, composed = _compare(variant, stride_mode, norm_kind, training, np.float64)
    worst = _worst_relative(fused, composed)
    assert max(worst.values()) <= 1e-10, worst


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("norm_kind", ["bn", "tebn"])
@pytest.mark.parametrize("variant", sorted(FORMATS))
def test_rank_space_norm_matches_composed_float32(variant, norm_kind, training):
    """In float32 each value stays within 1e-5 of its largest magnitude."""
    fused, composed = _compare(variant, "last", norm_kind, training, np.float32)
    worst = _worst_relative(fused, composed)
    assert max(worst.values()) <= 1e-5, worst


@pytest.mark.parametrize("choice", ["stt", "ptt", "htt", "dense"])
def test_supernet_choice_norm_matches_composed_float64(choice):
    """An entangled layer normalises its sliced rank-2 core's projection the same way."""
    from repro.nn.layers import Conv2d
    from repro.search import EntangledTTConv2d, LayerChoice
    from repro.search.space import LayerSearchSpace

    rng = np.random.default_rng(3)
    space = LayerSearchSpace("conv", 4, 6, (3, 3), (2, 2), ("dense", "stt", "ptt", "htt"),
                             (2, 3))
    layer = EntangledTTConv2d(Conv2d(4, 6, 3, stride=2, padding=1, rng=rng), space,
                              timesteps=TIMESTEPS, schedule="FHF", rng=rng)
    layer.set_choice(LayerChoice(choice, 0 if choice == "dense" else 2))
    _, norm = _layer_pair("ptt", "last", "tebn", True, np.float64)
    for param in layer.parameters():
        param.data = param.data.astype(np.float64)
    x = rng.standard_normal((TIMESTEPS, 2, 6, 6, 4))
    upstream = rng.standard_normal((TIMESTEPS, 2, 3, 3, 6))
    composed, _ = _run(layer, norm, x, upstream, fused=False)
    fused, fused_ops = _run(layer, norm, x, upstream, fused=True)
    assert ("bn_proj_seq" in fused_ops) == (choice != "dense")
    worst = _worst_relative(fused, composed)
    assert max(worst.values()) <= 1e-10, worst


def test_eval_inference_forward_is_the_folded_affine():
    """In eval mode the op is the affine map of the running statistics, and its
    no-grad entry gives the same bits as its forward."""
    from repro.autograd.ops import get_op
    from repro.nn.layers import BatchNormProjectionFunction

    conv, norm = _layer_pair("ptt", "first", "tdbn", False, np.float64)
    rng = np.random.default_rng(2)
    h = rng.standard_normal((TIMESTEPS, 2, 3, 3, 3))
    attrs = {"cls": BatchNormProjectionFunction, "momentum": norm.momentum,
             "ctor": dict(eps=norm.eps, training=False,
                          running_mean=norm.running_mean.data,
                          running_var=norm.running_var.data,
                          gamma_scale=norm.gamma_scale)}
    ins = [h, conv.conv4.weight.data, norm.weight.data, norm.bias.data]
    op = get_op("bn_proj_seq")
    eager, _ = op.forward(ins, attrs)
    np.testing.assert_array_equal(op.forward_inference(ins, attrs), eager)
    y = h @ conv.conv4.weight.data.reshape(6, 3).T
    xhat = (y - norm.running_mean.data) / np.sqrt(norm.running_var.data + norm.eps)
    np.testing.assert_allclose(eager, xhat * norm.gamma_scale * norm.weight.data
                               + norm.bias.data, rtol=1e-12, atol=1e-12)


# -- two forwards before one backward -----------------------------------------------


class _TwoForwards:
    """A model facade whose run is two forwards of ``model``: on the batch, then on
    its time-reversed copy.  One loss over both means one backward for two."""

    def __init__(self, model):
        self.model = model
        self.training = True
        self.timesteps = model.timesteps
        self.step_mode = model.step_mode

    def run_timesteps(self, batch, step_mode=None):
        first = self.model.run_timesteps(batch, step_mode=step_mode)
        return first + self.model.run_timesteps(batch[::-1], step_mode=step_mode)


def _resnet():
    model = spiking_resnet18(num_classes=4, in_channels=2, timesteps=TIMESTEPS,
                             width_scale=0.1, norm="tebn", rng=np.random.default_rng(0))
    convert_to_tt(model, variant="htt", rank=3, timesteps=TIMESTEPS, stride_mode="last",
                  rng=np.random.default_rng(1))
    return model


def _summed_loss(outputs, onehot):
    return (mean_output_cross_entropy(outputs[:TIMESTEPS], onehot)
            + mean_output_cross_entropy(outputs[TIMESTEPS:], onehot))


def _separate_steps(model, batch, labels):
    """Reference: one forward and backward per batch, gradients accumulating."""
    for param in model.parameters():
        param.grad = None
    onehot = Tensor(np.eye(4, dtype=np.float32)[labels])
    for data in (batch, batch[::-1]):
        mean_output_cross_entropy(model.run_timesteps(data), onehot).backward()
    return _state(model)


def _state(model):
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    buffers = {name: b.data.copy() for name, b in model.named_buffers()}
    return grads, buffers


def _assert_same_state(got, want):
    got_grads, got_buffers = got
    want_grads, want_buffers = want
    assert got_grads.keys() == want_grads.keys()
    for name, grad in want_grads.items():
        np.testing.assert_allclose(got_grads[name], grad, rtol=1e-5,
                                   atol=1e-6 * np.abs(grad).max(), err_msg=name)
    for name, buffer in want_buffers.items():
        np.testing.assert_array_equal(got_buffers[name], buffer, err_msg=name)


def _batch(step):
    rng = np.random.default_rng(10 + step)
    data = (rng.random((TIMESTEPS, 2, 2, 8, 8)) < 0.3).astype(np.float32)
    return data, rng.integers(0, 4, 2)


@pytest.mark.parametrize("engine", ["eager", "compiled"])
def test_two_forwards_before_one_backward(engine):
    """Summed gradients of two separate steps and ``2 * T`` running-stat updates."""
    model, reference = _resnet(), _resnet()
    initial = {name: b.data.copy() for name, b in model.named_buffers()}
    runtime = CompiledTrainStep(_TwoForwards(model), _summed_loss, optimize="O1")
    for step in range(3):          # the compiled engine captures, then replays twice
        data, labels = _batch(step)
        want = _separate_steps(reference, data, labels)
        for param in model.parameters():
            param.grad = None
        if engine == "eager":
            onehot = Tensor(np.eye(4, dtype=np.float32)[labels])
            _summed_loss(_TwoForwards(model).run_timesteps(data), onehot).backward()
        else:
            _, _, replayed = runtime.run(data, labels)
            assert replayed == (step > 0)
        _assert_same_state(_state(model), want)
    moved = [name for name, buffer in _state(model)[1].items()
             if not np.array_equal(buffer, initial[name])]
    assert len(moved) == len(initial) > 0
