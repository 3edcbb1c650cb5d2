"""Optimizer-only kernels for the shared op table.

Every op the autograd engine records is defined once, in
:mod:`repro.autograd.ops`; eager steps and compiled replays run those same
kernels.  This module adds only the entry the graph optimizer
(:mod:`repro.runtime.optimizer`) rewrites nodes into — ``fn_cached`` — and
re-exports the table itself.
"""

from __future__ import annotations

from repro.autograd.ops import OPS, OpDef, get_op, register_op

__all__ = ["OpDef", "OPS", "register_op", "get_op"]


def _fn_cached_infer(ins, attrs, out=None):
    """Forward through ONE persistent context kept across replays.

    ``O2`` gives each no-grad convolution with parameter weights such a
    context, with ``freeze_weights`` set, so its GEMM operand is gathered
    once.  Only no-grad plans hold these nodes, so there is no backward.
    """
    return attrs["ctx"].forward_inference(*ins)


register_op("fn_cached", _fn_cached_infer, differentiable=False)
