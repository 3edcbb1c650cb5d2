"""Backend abstraction for the compiled runtime's kernel substitution.

A :class:`Backend` is a named provider of *node-specialized* kernels: at plan
time (:class:`~repro.runtime.planner.ExecutionPlan`) every graph node is
offered to the selected backend, which may return a :class:`NativeKernel`
(a drop-in replacement for the node's registry kernels, specialized to the
node's exact program, shapes and dtype) or decline it — declined nodes keep
the NumPy reference kernel from :mod:`repro.runtime.ops`, so a plan is always
complete and a backend only ever *adds* speed (per-node fallback).

Two backends exist, selected by
:func:`~repro.runtime.backends.resolve_backend`:

``numpy``
    The always-on reference backend (:data:`REFERENCE`).  Compiles nothing —
    every node replays the registry kernels, which are the parity oracle for
    everything else.
``numba``
    ``@njit``-compiled flat-loop kernels from the plan-time code generator
    (:mod:`repro.runtime.backends.numba_backend`).  Optional: where numba is
    not installed the name resolves to the reference backend.

Every kernel a native backend compiles is verified at plan time against the
reference kernel on the captured arrays (forward and, for training plans,
backward) — a mismatch or a compile error declines the node instead of
shipping a wrong kernel.
"""

from __future__ import annotations

from typing import Callable, Optional

__all__ = ["Backend", "NativeKernel", "REFERENCE"]


class NativeKernel:
    """A node-specialized kernel triple with registry-compatible signatures.

    ``forward(ins, attrs, out=None)`` / ``backward(grad, ins, out, saved,
    attrs, needs)`` / ``forward_inference(ins, attrs, out=None)`` — exactly
    the :class:`~repro.runtime.ops.OpDef` calling convention, so the planner
    can substitute a native kernel without changing step construction.
    """

    __slots__ = ("backend", "forward", "backward", "forward_inference", "label")

    def __init__(self, backend: str, forward: Callable,
                 backward: Optional[Callable] = None,
                 forward_inference: Optional[Callable] = None,
                 label: str = ""):
        self.backend = backend
        self.forward = forward
        self.backward = backward
        self.forward_inference = forward_inference
        self.label = label


class Backend:
    """A named kernel provider; subclasses implement :meth:`compile_node`."""

    #: backend name, used in ``op@<name>`` profiler labels
    name = "base"
    #: the reference backend replays registry kernels and never compiles
    is_reference = False

    def eligible(self, node) -> bool:
        """Whether ``node`` is of a kind this backend *could* compile.

        Eligible-but-declined nodes are what the planner reports as
        ``fallback`` (an unsupported program variant, a failed verification,
        a JIT error) — ineligible nodes are simply not the backend's
        business and stay unlabelled.
        """
        return False

    def compile_node(self, node, slots, needs, node_has_backward: bool
                     ) -> Optional[NativeKernel]:
        """Return a specialized kernel for ``node`` or ``None`` to decline.

        ``slots`` is the plan's slot table (capture arrays still attached —
        plans compile before :meth:`ExecutionPlan.seal`), ``needs`` the
        per-input needs-grad tuple, ``node_has_backward`` whether the node
        appears in the plan's backward schedule.  Must not raise: any
        internal failure is a decline.
        """
        return None


class _ReferenceBackend(Backend):
    """Registry kernels as-is; :meth:`compile_node` always declines."""

    name = "numpy"
    is_reference = True


#: the NumPy reference backend — the parity oracle and the fallback target
REFERENCE = _ReferenceBackend()
