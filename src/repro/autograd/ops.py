"""Op table: the one definition of every op the autograd engine records.

Each entry pairs a *forward kernel* (pure function of the input arrays and
static attrs, optionally writing into a preallocated ``out`` buffer) with a
*backward kernel* (gradients of the inputs from the upstream gradient, the
forward arrays and any saved state).  Both engines run these functions: the
eager :class:`~repro.autograd.tensor.Tensor` methods call them through
:func:`~repro.autograd.tensor.apply_op`, and the compiled runtime
(:mod:`repro.runtime`) replays the recorded graph through the same entries.
A replayed step is therefore numerically equivalent to the eager step it was
captured from because there is only one copy of each op's math.

Custom :class:`~repro.autograd.tensor.Function` subclasses (convolutions,
pooling, the fused LIF recurrence) flow through the single generic ``"fn"``
entry: the kernel instantiates the context class with its constructor kwargs
and runs its ``forward``/``backward``.

This module is pure NumPy and imports nothing from the rest of the package.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["OpDef", "OPS", "register_op", "get_op"]


class OpDef:
    """Table entry for one traced op."""

    __slots__ = ("name", "forward", "backward", "forward_inference", "alias",
                 "out_capable", "inplace_safe", "differentiable")

    def __init__(self, name: str, forward: Callable, backward: Optional[Callable] = None,
                 forward_inference: Optional[Callable] = None,
                 alias: bool = False, out_capable: bool = False,
                 inplace_safe: bool = False, differentiable: bool = True):
        self.name = name
        self.forward = forward          # (inputs, attrs, out=None) -> array | (array, saved) | None
        self.backward = backward        # (grad, inputs, out, saved, attrs, needs) -> [grad | None]
        # Optional leaner forward for plans that will never run backward:
        # skips saved-state materialisation (im2col columns, argmax maps,
        # membrane histories) the gradient kernels would otherwise need.
        self.forward_inference = forward_inference
        self.alias = alias              # output is a view of inputs[0] (no buffer)
        self.out_capable = out_capable  # forward can write into a preallocated buffer
        self.inplace_safe = inplace_safe  # elementwise: out may alias a same-shape input
        self.differentiable = differentiable


OPS: Dict[str, OpDef] = {}


def register_op(name: str, forward: Callable, backward: Optional[Callable] = None,
                **flags) -> None:
    OPS[name] = OpDef(name, forward, backward, **flags)


def get_op(name: str) -> OpDef:
    try:
        return OPS[name]
    except KeyError:
        raise KeyError(
            f"traced op '{name}' has no kernel — register it in repro.autograd.ops"
        ) from None


# ---------------------------------------------------------------------------
# kernel helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it has ``shape``.

    NumPy broadcasting may have expanded an operand along leading axes or along
    axes of size one; the gradient of a broadcast is the sum over the expanded
    axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over the extra leading dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were of size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _index_repeats(index) -> bool:
    """Whether ``array[index]`` may select one element twice.

    Ints, slices, ``None``, ``...`` and a lone boolean mask never do.  A lone
    integer array does when two of its entries are equal, or when it mixes
    signs (``-1`` and ``dim - 1`` name the same element).  Any other index
    counts as repeating.
    """
    parts = index if isinstance(index, tuple) else (index,)
    arrays = [part for part in parts
              if part is not None and part is not Ellipsis
              and not isinstance(part, (slice, int, np.integer))]
    if not arrays:
        return False
    if len(arrays) > 1:
        return True
    array = np.asarray(arrays[0])
    if array.dtype == np.bool_:
        return False
    if array.dtype.kind not in "iu":
        return True
    flat = array.ravel().tolist()
    if flat and min(flat) < 0 <= max(flat):
        return True
    return len(set(flat)) != len(flat)


def _index_backward(like: np.ndarray, index, grad) -> np.ndarray:
    """Gradient of ``like[index]``: ``grad`` scattered into zeros shaped as ``like``.

    ``np.add.at`` accumulates an index that selects an element twice, but it
    is an unbuffered per-element loop; every other index is a plain
    assignment.  Adding 0 before the assignment turns ``-0.0`` into ``+0.0``
    as ``0 + grad`` in ``np.add.at`` does, so both routes agree bitwise.
    """
    full = np.zeros_like(like)
    grad = np.asarray(grad)
    if _index_repeats(index):
        np.add.at(full, index, grad)
    else:
        full[index] = grad + 0
    return full


# ---------------------------------------------------------------------------
# elementwise arithmetic
# ---------------------------------------------------------------------------


def _add_fwd(ins, attrs, out=None):
    if out is not None:
        return np.add(ins[0], ins[1], out=out)
    return ins[0] + ins[1]


def _add_bwd(g, ins, out, saved, attrs, needs):
    return [g if needs[0] else None, g if needs[1] else None]


def _neg_fwd(ins, attrs, out=None):
    if out is not None:
        return np.negative(ins[0], out=out)
    return -ins[0]


def _neg_bwd(g, ins, out, saved, attrs, needs):
    return [-g]


def _mul_fwd(ins, attrs, out=None):
    if out is not None:
        return np.multiply(ins[0], ins[1], out=out)
    return ins[0] * ins[1]


def _mul_bwd(g, ins, out, saved, attrs, needs):
    a, b = ins
    return [g * b if needs[0] else None, g * a if needs[1] else None]


def _div_fwd(ins, attrs, out=None):
    if out is not None:
        return np.divide(ins[0], ins[1], out=out)
    return ins[0] / ins[1]


def _div_bwd(g, ins, out, saved, attrs, needs):
    a, b = ins
    ga = g / b if needs[0] else None
    gb = -g * a / (b ** 2) if needs[1] else None
    return [ga, gb]


def _pow_fwd(ins, attrs, out=None):
    return ins[0] ** attrs["exponent"]


def _pow_bwd(g, ins, out, saved, attrs, needs):
    exponent = attrs["exponent"]
    return [g * exponent * ins[0] ** (exponent - 1)]


def _matmul_fwd(ins, attrs, out=None):
    return ins[0] @ ins[1]


def _matmul_bwd(g, ins, out, saved, attrs, needs):
    a, b = ins
    ga = gb = None
    if needs[0]:
        if b.ndim == 1:
            ga = np.outer(g, b) if a.ndim > 1 else g * b
        else:
            ga = g @ np.swapaxes(b, -1, -2)
        ga = _unbroadcast(np.asarray(ga), a.shape)
    if needs[1]:
        if a.ndim == 1:
            gb = np.outer(a, g) if b.ndim > 1 else a * g
        else:
            gb = np.swapaxes(a, -1, -2) @ g
        gb = _unbroadcast(np.asarray(gb), b.shape)
    return [ga, gb]


register_op("add", _add_fwd, _add_bwd, out_capable=True, inplace_safe=True)
register_op("neg", _neg_fwd, _neg_bwd, out_capable=True, inplace_safe=True)
register_op("mul", _mul_fwd, _mul_bwd, out_capable=True, inplace_safe=True)
register_op("div", _div_fwd, _div_bwd, out_capable=True, inplace_safe=True)
register_op("pow", _pow_fwd, _pow_bwd)
register_op("matmul", _matmul_fwd, _matmul_bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _reduced_grad_shape(g, a, axis, keepdims):
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(ax % a.ndim for ax in axes)
        shape = [1 if i in axes else s for i, s in enumerate(a.shape)]
        g = np.asarray(g).reshape(shape)
    return g


def _sum_fwd(ins, attrs, out=None):
    return ins[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"])


def _sum_bwd(g, ins, out, saved, attrs, needs):
    a = ins[0]
    g = _reduced_grad_shape(g, a, attrs["axis"], attrs["keepdims"])
    return [np.broadcast_to(g, a.shape)]


def _max_fwd(ins, attrs, out=None):
    return ins[0].max(axis=attrs["axis"], keepdims=attrs["keepdims"])


def _max_bwd(g, ins, out, saved, attrs, needs):
    a = ins[0]
    axis, keepdims = attrs["axis"], attrs["keepdims"]
    expanded = a.max(axis=axis, keepdims=True)
    g = _reduced_grad_shape(g, a, axis, keepdims)
    mask = (a == expanded).astype(a.dtype)
    # Ties share the gradient equally.
    denom = mask.sum(axis=axis, keepdims=True)
    return [mask * g / denom]


register_op("sum", _sum_fwd, _sum_bwd)
register_op("max", _max_fwd, _max_bwd)


# ---------------------------------------------------------------------------
# shape manipulation (views — aliased, zero-copy on replay)
# ---------------------------------------------------------------------------


def _reshape_fwd(ins, attrs, out=None):
    return ins[0].reshape(attrs["shape"])


def _transpose_fwd(ins, attrs, out=None):
    return ins[0].transpose(attrs["axes"])


def _transpose_bwd(g, ins, out, saved, attrs, needs):
    return [np.asarray(g).transpose(np.argsort(attrs["axes"]))]


def _squeeze_fwd(ins, attrs, out=None):
    return np.squeeze(ins[0], axis=attrs["axis"])


def _unsqueeze_fwd(ins, attrs, out=None):
    return np.expand_dims(ins[0], axis=attrs["axis"])


def _restore_shape_bwd(g, ins, out, saved, attrs, needs):
    return [np.asarray(g).reshape(ins[0].shape)]


def _getitem_fwd(ins, attrs, out=None):
    return ins[0][attrs["index"]]


def _getitem_bwd(g, ins, out, saved, attrs, needs):
    return [_index_backward(ins[0], attrs["index"], g)]


def _detach_fwd(ins, attrs, out=None):
    return ins[0]


register_op("reshape", _reshape_fwd, _restore_shape_bwd, alias=True)
register_op("transpose", _transpose_fwd, _transpose_bwd, alias=True)
register_op("squeeze", _squeeze_fwd, _restore_shape_bwd, alias=True)
register_op("unsqueeze", _unsqueeze_fwd, _restore_shape_bwd, alias=True)
register_op("getitem", _getitem_fwd, _getitem_bwd)
register_op("detach", _detach_fwd, None, alias=True, differentiable=False)
register_op("copy", lambda ins, attrs, out=None: ins[0].copy(), None, differentiable=False)


# ---------------------------------------------------------------------------
# elementwise math
# ---------------------------------------------------------------------------


def _exp_fwd(ins, attrs, out=None):
    if out is not None:
        return np.exp(ins[0], out=out)
    return np.exp(ins[0])


def _exp_bwd(g, ins, out, saved, attrs, needs):
    return [g * out]


def _log_fwd(ins, attrs, out=None):
    if out is not None:
        return np.log(ins[0], out=out)
    return np.log(ins[0])


def _log_bwd(g, ins, out, saved, attrs, needs):
    return [g / ins[0]]


def _sqrt_fwd(ins, attrs, out=None):
    if out is not None:
        return np.sqrt(ins[0], out=out)
    return np.sqrt(ins[0])


def _sqrt_bwd(g, ins, out, saved, attrs, needs):
    return [g * 0.5 / np.maximum(out, 1e-12)]


def _tanh_fwd(ins, attrs, out=None):
    if out is not None:
        return np.tanh(ins[0], out=out)
    return np.tanh(ins[0])


def _tanh_bwd(g, ins, out, saved, attrs, needs):
    return [g * (1.0 - out ** 2)]


def _sigmoid_fwd(ins, attrs, out=None):
    return 1.0 / (1.0 + np.exp(-ins[0]))


def _sigmoid_bwd(g, ins, out, saved, attrs, needs):
    return [g * out * (1.0 - out)]


def _relu_fwd(ins, attrs, out=None):
    a = ins[0]
    mask = (a > 0).astype(a.dtype)
    if out is not None:
        return np.multiply(a, mask, out=out)
    return a * mask


def _relu_bwd(g, ins, out, saved, attrs, needs):
    a = ins[0]
    return [g * (a > 0).astype(a.dtype)]


def _abs_fwd(ins, attrs, out=None):
    if out is not None:
        return np.abs(ins[0], out=out)
    return np.abs(ins[0])


def _abs_bwd(g, ins, out, saved, attrs, needs):
    return [g * np.sign(ins[0])]


def _clip_fwd(ins, attrs, out=None):
    return np.clip(ins[0], attrs["low"], attrs["high"])


def _clip_bwd(g, ins, out, saved, attrs, needs):
    a = ins[0]
    mask = ((a >= attrs["low"]) & (a <= attrs["high"])).astype(a.dtype)
    return [g * mask]


register_op("exp", _exp_fwd, _exp_bwd, out_capable=True, inplace_safe=True)
register_op("log", _log_fwd, _log_bwd, out_capable=True, inplace_safe=True)
register_op("sqrt", _sqrt_fwd, _sqrt_bwd, out_capable=True, inplace_safe=True)
register_op("tanh", _tanh_fwd, _tanh_bwd, out_capable=True, inplace_safe=True)
register_op("sigmoid", _sigmoid_fwd, _sigmoid_bwd)
register_op("relu", _relu_fwd, _relu_bwd, out_capable=True, inplace_safe=True)
register_op("abs", _abs_fwd, _abs_bwd, out_capable=True, inplace_safe=True)
register_op("clip", _clip_fwd, _clip_bwd)


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def _stack_fwd(ins, attrs, out=None):
    return np.stack(ins, axis=attrs["axis"])


def _stack_bwd(g, ins, out, saved, attrs, needs):
    axis = attrs["axis"]
    pieces = np.split(np.asarray(g), len(ins), axis=axis)
    return [np.squeeze(p, axis=axis) if needs[k] else None
            for k, p in enumerate(pieces)]


def _concat_fwd(ins, attrs, out=None):
    return np.concatenate(ins, axis=attrs["axis"])


def _concat_bwd(g, ins, out, saved, attrs, needs):
    axis = attrs["axis"]
    g = np.asarray(g)
    grads: List[Optional[np.ndarray]] = []
    offset = 0
    for k, a in enumerate(ins):
        size = a.shape[axis]
        if needs[k]:
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            grads.append(g[tuple(index)])
        else:
            grads.append(None)
        offset += size
    return grads


def _repeat_time_fwd(ins, attrs, out=None):
    x = ins[0]
    if out is None:
        out = np.empty((attrs["timesteps"],) + x.shape[1:], dtype=x.dtype)
    out[...] = x
    return out


def _repeat_time_bwd(g, ins, out, saved, attrs, needs):
    return [np.asarray(g).sum(axis=0, keepdims=True)]


register_op("stack", _stack_fwd, _stack_bwd)
register_op("concatenate", _concat_fwd, _concat_bwd)
# One timestep ``(1, N, ...)`` copied to ``(T, N, ...)``; backward sums over time.
register_op("repeat_time", _repeat_time_fwd, _repeat_time_bwd, out_capable=True)


# ---------------------------------------------------------------------------
# comparisons & other non-differentiable helpers
# ---------------------------------------------------------------------------


def _make_compare(ufunc):
    def fwd(ins, attrs, out=None):
        return ufunc(ins[0], ins[1]).astype(ins[0].dtype)

    def fwd_scalar(ins, attrs, out=None):
        return ufunc(ins[0], attrs["other"]).astype(ins[0].dtype)

    return fwd, fwd_scalar


for _name, _ufunc in (("greater", np.greater), ("greater_equal", np.greater_equal),
                      ("less", np.less), ("less_equal", np.less_equal)):
    _fwd, _fwd_scalar = _make_compare(_ufunc)
    register_op(_name, _fwd, None, differentiable=False)
    register_op(_name + "_scalar", _fwd_scalar, None, differentiable=False)


def _stopgrad_max_fwd(ins, attrs, out=None):
    return ins[0].max(axis=attrs["axis"], keepdims=True)


register_op("stopgrad_max", _stopgrad_max_fwd, None, differentiable=False)


# ---------------------------------------------------------------------------
# nn-level ops: padding, dropout, custom functions, batch-norm statistics
# ---------------------------------------------------------------------------


def _pad2d_fwd(ins, attrs, out=None):
    ph, pw = attrs["padding"]
    return np.pad(ins[0], ((0, 0), (0, 0), (ph, ph), (pw, pw)), mode="constant")


def _pad2d_bwd(g, ins, out, saved, attrs, needs):
    ph, pw = attrs["padding"]
    h, w = ins[0].shape[-2], ins[0].shape[-1]
    return [np.asarray(g)[..., ph:ph + h, pw:pw + w]]


register_op("pad2d", _pad2d_fwd, _pad2d_bwd)


def _dropout_fwd(ins, attrs, out=None):
    # The generator itself is the attr: every run draws a fresh mask from
    # the same stream instead of reusing one realisation.
    x = ins[0]
    p = attrs["p"]
    mask = (attrs["rng"].random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * mask, mask


def _dropout_bwd(g, ins, out, saved, attrs, needs):
    return [g * saved]


register_op("dropout", _dropout_fwd, _dropout_bwd)


def _fn_fwd(ins, attrs, out=None):
    kwargs = attrs["kwargs"]
    ctx = attrs["cls"](**kwargs) if kwargs else attrs["cls"]()
    return ctx.forward(*ins), ctx


def _fn_infer(ins, attrs, out=None):
    kwargs = attrs["kwargs"]
    ctx = attrs["cls"](**kwargs) if kwargs else attrs["cls"]()
    method = getattr(ctx, "forward_inference", None)
    if method is not None:
        return method(*ins)
    # The context (and whatever its forward stashed) dies right here.
    return ctx.forward(*ins)


def _fn_bwd(g, ins, out, saved, attrs, needs):
    if not needs[0] and getattr(saved, "input_needs_grad", False):
        # Nobody reads the first input's gradient (e.g. the network input):
        # the convolutions then skip the input-gradient gather and GEMM.
        saved.input_needs_grad = False
    grads = saved.backward(np.asarray(g))
    if not isinstance(grads, (tuple, list)):
        grads = (grads,)
    grads = list(grads)
    grads.extend([None] * (len(ins) - len(grads)))
    return grads


register_op("fn", _fn_fwd, _fn_bwd, forward_inference=_fn_infer)
# The PTT/HTT middle ``conv2 + conv3`` as one gather and one GEMM
# (``CrossConvFunction``): the ``fn`` context protocol under its own name,
# so profiles and plans show the cross as one node.
register_op("cross_conv", _fn_fwd, _fn_bwd, forward_inference=_fn_infer)


def _bn_seq_fwd(ins, attrs, out=None):
    ctx = attrs["cls"](**attrs["ctor"])
    result = ctx.forward(*ins)
    if attrs["ctor"]["training"]:
        ctx.update_running_stats(attrs["ctor"]["running_mean"],
                                 attrs["ctor"]["running_var"], attrs["momentum"])
    return result, ctx


def _bn_seq_infer(ins, attrs, out=None):
    if attrs["ctor"]["training"]:
        # Batch statistics and running-buffer updates must stay exact.
        result, _ = _bn_seq_fwd(ins, attrs)
        return result
    ctx = attrs["cls"](**attrs["ctor"])
    return ctx.forward_inference(*ins)


register_op("bn_seq", _bn_seq_fwd, _fn_bwd, forward_inference=_bn_seq_infer)
# A 1x1 projection and its batch norm as one node, normalised in rank space
# (``BatchNormProjectionFunction``): the same context protocol as ``bn_seq``.
register_op("bn_proj_seq", _bn_seq_fwd, _fn_bwd, forward_inference=_bn_seq_infer)


def _bn_stats_fwd(ins, attrs, out=None):
    """Side-effect op: one momentum update of the running buffers (in place)."""
    x = ins[0]
    axes = attrs["axes"]
    momentum = attrs["momentum"]
    batch_mean = x.mean(axis=axes)
    batch_var = x.var(axis=axes)
    attrs["running_mean"][...] = (
        (1 - momentum) * attrs["running_mean"] + momentum * batch_mean
    )
    attrs["running_var"][...] = (
        (1 - momentum) * attrs["running_var"] + momentum * batch_var
    )
    return None


register_op("bn_stats", _bn_stats_fwd, None, differentiable=False)
