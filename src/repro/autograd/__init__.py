"""Reverse-mode automatic differentiation over NumPy arrays.

This subpackage is the computational substrate for the whole TT-SNN
reproduction.  The original paper trains spiking neural networks with
backpropagation-through-time (BPTT) in PyTorch; this environment has no
PyTorch, so an equivalent (CPU, NumPy-backed) autograd engine is provided
here.

Public API
----------
``Tensor``
    N-dimensional array with gradient tracking.  Supports broadcasting,
    arithmetic operators, matrix multiplication, reductions, reshaping and
    indexing; calling :meth:`Tensor.backward` on a scalar result populates
    ``.grad`` of every reachable leaf created with ``requires_grad=True``.
``Function``
    Base class for custom differentiable operations (used by the surrogate
    gradient spike function and by the im2col convolution kernels).
``no_grad``
    Context manager disabling graph construction (used for evaluation and
    for weight reconstruction after training).

The functional layer (convolution, pooling, activations, losses) lives in
:mod:`repro.autograd.functional` and :mod:`repro.autograd.conv`; the
forward and backward kernel of every op the engine records lives once, in
the op table of :mod:`repro.autograd.ops`, which the compiled runtime
replays as well.
"""

from repro.autograd.tensor import Tensor, Function, no_grad, is_grad_enabled, as_tensor
from repro.autograd import functional
from repro.autograd import conv

__all__ = [
    "Tensor",
    "Function",
    "no_grad",
    "is_grad_enabled",
    "as_tensor",
    "functional",
    "conv",
]
