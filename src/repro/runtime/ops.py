"""Optimizer-specialized kernels for the shared op table.

Every op the autograd engine records is defined once, in
:mod:`repro.autograd.ops`; eager steps and compiled replays run those same
kernels.  This module adds only the entries the graph optimizer
(:mod:`repro.runtime.optimizer`) rewrites nodes into — ``fn_cached``,
``bn_seq_cached`` and ``view_cached`` — and re-exports the table itself.
"""

from __future__ import annotations

from repro.autograd.ops import OPS, OpDef, _fn_bwd, get_op, register_op

__all__ = ["OpDef", "OPS", "register_op", "get_op"]


# ``fn_cached`` / ``bn_seq_cached`` are the workspace-backed variants of
# ``fn`` / ``bn_seq``: the graph optimizer replaces the per-replay context
# re-instantiation with ONE persistent context per graph node, carrying a
# :class:`~repro.autograd.tensor.Workspace` so the kernel's large temporaries
# (im2col columns, padded images, membrane histories, normalised activations)
# are allocated once and reused by every replay.


def _fn_cached_fwd(ins, attrs, out=None):
    ctx = attrs["ctx"]
    return ctx.forward(*ins), ctx


def _fn_cached_infer(ins, attrs, out=None):
    return attrs["infer"](*ins)


register_op("fn_cached", _fn_cached_fwd, _fn_bwd, forward_inference=_fn_cached_infer)


def _bn_cached_fwd(ins, attrs, out=None):
    ctx = attrs["ctx"]
    result = ctx.forward(*ins)
    if attrs["training"]:
        # Same helper as the ``bn_seq`` kernel — bitwise-equal statistics.
        ctx.update_running_stats(attrs["running_mean"], attrs["running_var"],
                                 attrs["momentum"])
    return result, ctx


def _bn_cached_infer(ins, attrs, out=None):
    if attrs["training"]:
        result, _ = _bn_cached_fwd(ins, attrs)
        return result
    return attrs["ctx"].forward_inference(*ins)


register_op("bn_seq_cached", _bn_cached_fwd, _fn_bwd, forward_inference=_bn_cached_infer)


def _view_cached_fwd(ins, attrs, out=None):
    """Alias-op forward memoised on the *identity* of the source array.

    Specialized kernels write into identity-stable workspace buffers, so in
    an optimized plan most view chains see the same base array every replay
    — the reshape/transpose view is then constructed once and reused (views
    share memory, so content updates flow through automatically).  Results
    that are *not* views (a reshape of a non-viewable layout returns a
    copy) are never cached: a frozen copy would go stale the moment the
    source array is rewritten in place.
    """
    source = ins[0]
    cache = attrs["cache"]
    if cache[0] is source:
        return cache[1]
    result = attrs["inner_fwd"]([source], attrs["inner"])
    if result.base is not None:
        cache[0] = source
        cache[1] = result
    return result


def _view_cached_bwd(g, ins, out, saved, attrs, needs):
    return attrs["inner_bwd"](g, ins, out, saved, attrs["inner"], needs)


register_op("view_cached", _view_cached_fwd, _view_cached_bwd, alias=True)
