"""``repro.runtime`` — capture/plan/replay execution engine.

Design note
-----------
The training loop and the serving path execute the *same* fused
forward/backward over and over with identical shapes, yet the eager engine
rebuilds the Python autograd tape — tensors, closures, topological sort —
and allocates fresh intermediates on every step.  This package eliminates
that steady-state overhead with a three-stage pipeline:

1. **Capture** (:mod:`~repro.runtime.graph`): one eager step runs with a
   per-thread op trace installed; every differentiable op reports an
   ``OpNode`` (op id, input/output slot refs, static attrs, saved state)
   while computing its usual result.  Placeholders mark replay-varying
   inputs; parameters become live leaf slots; everything else is a baked
   constant.
2. **Optimize** (:mod:`~repro.runtime.optimizer`): an ``optimize="O1"|"O2"``
   pass pipeline rewrites the captured graph before planning — workspace
   kernel specialization, elementwise-chain fusion, view collapse/CSE/DCE
   at O1 (value-exact, training-safe), plus eval-BN constant folding,
   Eq. 6 TT pre-contraction and schedule optimization on no-grad O2 plans.
3. **Plan** (:mod:`~repro.runtime.planner`): the recorded forward order is
   the topological schedule; the backward schedule is its reverse restricted
   to the loss→leaf gradient paths.  Liveness analysis assigns intermediates
   to a reusable **buffer arena** keyed by ``(shape, dtype)``
   (:mod:`~repro.runtime.arena`) with view-alias folding and in-place-safe
   slot aliasing for elementwise ops, so steady-state replays perform ~zero
   fresh arena allocations.
4. **Replay** (:mod:`~repro.runtime.replay`): ``CompiledTrainStep`` /
   ``CompiledForward`` re-execute the plan on new input arrays through the
   pure-kernel op registry (:mod:`~repro.runtime.ops`) — no tensors, no
   closures, no module dispatch — and re-capture automatically when the
   input signature (shape/dtype/train-mode/timesteps/step-mode) changes.

**Kernel backends** (:mod:`~repro.runtime.backends`) sit between plan and
replay: ``backend="numpy"`` (default) replays the reference kernels, and
``"numba"`` / ``"auto"`` swap the plan's fused ``ew_chain`` and
LIF-recurrence nodes for ``@njit`` kernels generated at plan time
(shape/dtype/constants baked in, verified against the NumPy reference on
the captured arrays, per-node fallback on decline) when numba is installed.
A ``dtype`` policy selects float32/float64 end to end.

Entry points: ``BPTTTrainer(..., compile=True)``, ``Module.compile()`` and
``InferenceEngine(..., compile=True)``; see the README "Compiled runtime"
and "Backends" sections for measured speedups.
"""

from repro.runtime.arena import BufferArena
from repro.runtime.backends import Backend, NativeKernel, resolve_backend
from repro.runtime.graph import CaptureError, GraphCapture, OpNode, Region, Slot
from repro.runtime.ops import OPS, OpDef, get_op, register_op
from repro.runtime.optimizer import OPT_LEVELS, OptimizerReport, optimize_capture
from repro.runtime.planner import ExecutionPlan, PlanSignatureError, compile_plan
from repro.runtime.replay import CompiledForward, CompiledTrainStep
from repro.runtime.streaming import StreamingForward, TemporalState

__all__ = [
    "Backend",
    "BufferArena",
    "NativeKernel",
    "resolve_backend",
    "CaptureError",
    "GraphCapture",
    "OpNode",
    "Region",
    "Slot",
    "OPS",
    "OpDef",
    "get_op",
    "register_op",
    "OPT_LEVELS",
    "OptimizerReport",
    "optimize_capture",
    "ExecutionPlan",
    "PlanSignatureError",
    "compile_plan",
    "CompiledForward",
    "CompiledTrainStep",
    "StreamingForward",
    "TemporalState",
]
