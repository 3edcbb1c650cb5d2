"""Per-op parity of the op table: eager steps vs. compiled train-step replays.

Eager tensors and compiled replays run the same kernels from
:mod:`repro.autograd.ops`, but a replay still stores values differently:
out-capable kernels write into arena buffers through ``out=``, views alias
their sources, and gradients accumulate in plan-owned buffers.  Each case
here runs one op for ``STEPS`` steps with fresh inputs per step, once
eagerly and once as a capture followed by replays, and requires the last
step's forward value, every input gradient and every in-place side effect
(running statistics) to be bit-identical.
"""

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.autograd.conv import conv2d, cross_conv
from repro.autograd.ops import OPS
from repro.autograd.tensor import Tensor
from repro.nn.layers import BatchNorm2d, batch_norm_sequence
from repro.nn.module import repeat_time
from repro.runtime.graph import GraphCapture
from repro.runtime.planner import compile_plan
from repro.snn.norm import TDBatchNorm2d

STEPS = 4  # one capture + three replays
DTYPES = (np.float32, np.float64)


def _stateless(build):
    return lambda dtype: (build, [], [])


def _dropout(dtype):
    rng = np.random.default_rng(7)  # each engine gets an equally seeded generator
    return (lambda x: F.dropout(x, 0.3, True, rng=rng)), [], []


def _bn_seq(dtype):
    running_mean = np.zeros(3, dtype=dtype)
    running_var = np.ones(3, dtype=dtype)

    def build(x, weight, bias):
        return batch_norm_sequence(x, weight, bias, eps=1e-5, momentum=0.1,
                                   training=True, running_mean=running_mean,
                                   running_var=running_var, gamma_scale=0.7)

    return build, [], [running_mean, running_var]


def _bn_proj_seq(dtype):
    norm = TDBatchNorm2d(3)
    norm.train()
    for tensor in list(norm.parameters()) + [b for _, b in norm.named_buffers()]:
        tensor.data = tensor.data.astype(dtype)

    def build(h, weight):
        return norm.forward_projected(h, weight)

    return build, list(norm.parameters()), [norm.running_mean.data, norm.running_var.data]


def _module(cls):
    def factory(dtype):
        module = cls(3)
        module.train()
        for tensor in list(module.parameters()) + [b for _, b in module.named_buffers()]:
            tensor.data = tensor.data.astype(dtype)
        return module, list(module.parameters()), [module.running_mean.data,
                                                   module.running_var.data]
    return factory


# name -> (input shapes, input kind, factory(dtype) -> (build, params, state))
CASES = {
    "add_broadcast_row": ([(3, 4), (4,)], None, _stateless(lambda a, b: a + b)),
    "add_broadcast_both": ([(3, 1), (1, 4)], None, _stateless(lambda a, b: a + b)),
    "sub_neg": ([(3, 4), (3, 4)], None, _stateless(lambda a, b: a - b)),
    "mul_broadcast": ([(2, 3, 4), (3, 1)], None, _stateless(lambda a, b: a * b)),
    "div_broadcast": ([(3, 4), (4,)], "positive", _stateless(lambda a, b: a / b)),
    "pow": ([(3, 4)], None, _stateless(lambda a: a ** 3)),
    "matmul": ([(3, 4), (4, 5)], None, _stateless(lambda a, b: a @ b)),
    "matmul_batched": ([(2, 3, 4), (4, 5)], None, _stateless(lambda a, b: a @ b)),
    "matmul_vector": ([(3, 4), (4,)], None, _stateless(lambda a, b: a @ b)),
    "sum_axis": ([(3, 4)], None, _stateless(lambda a: a.sum(axis=1))),
    "sum_all": ([(3, 4)], None, _stateless(lambda a: a.sum())),
    "max_axis_ties": ([(3, 4)], "ties", _stateless(lambda a: a.max(axis=1))),
    "max_keepdims_ties": ([(2, 3, 4)], "ties",
                          _stateless(lambda a: a.max(axis=(0, 2), keepdims=True))),
    "reshape": ([(2, 3, 4)], None, _stateless(lambda a: a.reshape(4, -1))),
    "transpose": ([(2, 3, 4)], None, _stateless(lambda a: a.transpose(2, 0, 1))),
    "squeeze": ([(3, 1, 4)], None, _stateless(lambda a: a.squeeze(1))),
    "unsqueeze": ([(3, 4)], None, _stateless(lambda a: a.unsqueeze(1))),
    "getitem_repeated_index": ([(4, 3)], None,
                               _stateless(lambda a: a[np.array([0, 2, 0, 1])])),
    "getitem_repeated_column": ([(3, 5)], None, _stateless(lambda a: a[:, [1, 1, 3]])),
    "getitem_slice": ([(4, 5)], None, _stateless(lambda a: a[1:, ::2])),
    "exp": ([(3, 4)], None, _stateless(lambda a: a.exp())),
    "log": ([(3, 4)], "positive", _stateless(lambda a: a.log())),
    "sqrt": ([(3, 4)], "positive", _stateless(lambda a: a.sqrt())),
    "tanh": ([(3, 4)], None, _stateless(lambda a: a.tanh())),
    "sigmoid": ([(3, 4)], None, _stateless(lambda a: a.sigmoid())),
    "relu": ([(3, 4)], None, _stateless(lambda a: a.relu())),
    "abs": ([(3, 4)], None, _stateless(lambda a: a.abs())),
    "clip": ([(3, 4)], None, _stateless(lambda a: a.clip(-0.5, 0.5))),
    "stack": ([(3, 4), (3, 4)], None, _stateless(lambda a, b: Tensor.stack([a, b], axis=1))),
    "concatenate": ([(3, 2), (3, 4)], None,
                    _stateless(lambda a, b: Tensor.concatenate([a, b], axis=1))),
    "repeat_time": ([(1, 2, 3, 4)], None, _stateless(lambda a: repeat_time(a, 3))),
    "log_softmax": ([(3, 5)], None, _stateless(lambda a: F.log_softmax(a, axis=1))),
    "pad2d": ([(2, 3, 4, 5)], None, _stateless(lambda a: F.pad2d(a, (1, 2)))),
    "fn_max_pool2d": ([(2, 3, 4, 4)], None, _stateless(lambda a: F.max_pool2d(a, 2))),
    "fn_conv2d": ([(2, 3, 5, 5), (4, 3, 3, 3)], None,
                  _stateless(lambda x, w: conv2d(x, w, None, stride=1, padding=1))),
    "cross_conv": ([(4, 5, 4, 3), (3, 3, 3, 1), (3, 3, 1, 3)], None,
                   _stateless(lambda x, w2, w3: cross_conv(x, w2, w3))),
    "cross_conv_half_run": ([(4, 5, 4, 3), (3, 3, 3, 1), (3, 3, 1, 3)], None,
                            _stateless(lambda x, w2, w3: cross_conv(
                                x, w2, w3, (False, False, True, True)))),
    "cross_conv_half_interleaved": ([(4, 5, 4, 3), (3, 3, 3, 1), (3, 3, 1, 3)], None,
                                    _stateless(lambda x, w2, w3: cross_conv(
                                        x, w2, w3, (False, True, False, True)))),
    "dropout": ([(4, 6)], None, _dropout),
    "bn_seq": ([(2, 4, 2, 2, 3), (3,), (3,)], None, _bn_seq),
    "bn_proj_seq": ([(2, 4, 2, 2, 5), (3, 5, 1, 1)], None, _bn_proj_seq),
    "batch_norm2d_train": ([(4, 3, 2, 2)], None, _module(BatchNorm2d)),
    "td_batch_norm2d_train": ([(4, 3, 2, 2)], None, _module(TDBatchNorm2d)),
}


def _inputs(shapes, kind, dtype, step):
    """Inputs for one step: the same arrays on both engines, new each step."""
    rng = np.random.default_rng(100 + step)
    arrays = []
    for shape in shapes:
        array = rng.standard_normal(shape)
        if kind == "positive":
            array = np.abs(array) + 0.5
        elif kind == "ties":
            array = np.round(array)
        arrays.append(array.astype(dtype))
    return arrays


def _upstream(shape, dtype):
    return np.random.default_rng(99).standard_normal(shape).astype(dtype)


def _run_eager(case, dtype):
    shapes, kind, factory = CASES[case]
    build, params, state = factory(dtype)
    for step in range(STEPS):
        leaves = [Tensor(a, requires_grad=True) for a in _inputs(shapes, kind, dtype, step)]
        for param in params:
            param.grad = None
        out = build(*leaves)
        (out * Tensor(_upstream(out.shape, dtype))).sum().backward()
    grads = [leaf.grad for leaf in leaves + params]
    return out.data, grads, state


def _run_replayed(case, dtype, optimize):
    shapes, kind, factory = CASES[case]
    build, params, state = factory(dtype)
    leaves = [Tensor(a, requires_grad=True) for a in _inputs(shapes, kind, dtype, 0)]
    with GraphCapture() as capture:
        out = build(*leaves)
        capture.mark_output(out, "out")
        capture.mark_loss((out * Tensor(_upstream(out.shape, dtype))).sum())
    plan = compile_plan(capture, optimize=optimize)
    plan.backward_from_capture()
    value = out.data
    for step in range(1, STEPS):
        for leaf, array in zip(leaves, _inputs(shapes, kind, dtype, step)):
            leaf.data = array
        for tensor in leaves + params:
            tensor.grad = None
        (value,) = plan.replay({})
    grads = [leaf.grad for leaf in leaves + params]
    return value, grads, state


def _assert_bits_equal(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    as_int = {4: np.uint32, 8: np.uint64}[actual.dtype.itemsize]
    np.testing.assert_array_equal(np.ascontiguousarray(actual).view(as_int),
                                  np.ascontiguousarray(expected).view(as_int))


@pytest.mark.parametrize("optimize", ["O0", "O1"])
@pytest.mark.parametrize("dtype", DTYPES, ids=["float32", "float64"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_replay_matches_eager_bitwise(case, dtype, optimize):
    eager_out, eager_grads, eager_state = _run_eager(case, dtype)
    replay_out, replay_grads, replay_state = _run_replayed(case, dtype, optimize)
    _assert_bits_equal(replay_out, eager_out)
    assert eager_out.dtype == dtype
    assert len(replay_grads) == len(eager_grads)
    for replayed, eager in zip(replay_grads, eager_grads):
        assert eager is not None and replayed is not None
        _assert_bits_equal(replayed, eager)
    for replayed, eager in zip(replay_state, eager_state):
        _assert_bits_equal(replayed, eager)


def test_every_differentiable_table_op_has_a_parity_case():
    """Adding a differentiable op to the table without a case here fails."""
    recorded = set()
    for case, (shapes, kind, factory) in CASES.items():
        build, _, _ = factory(np.float32)
        leaves = [Tensor(a, requires_grad=True)
                  for a in _inputs(shapes, kind, np.float32, 0)]
        with GraphCapture() as capture:
            build(*leaves)
        recorded.update(node.op for node in capture.nodes)
    table_ops = {name for name, opdef in OPS.items()
                 if opdef.differentiable and opdef.forward.__module__ == "repro.autograd.ops"}
    assert table_ops - recorded == set()
