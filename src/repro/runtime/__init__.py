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
   pass pipeline rewrites the captured graph before planning — identity-pool
   elision at O1 (value-exact, training-safe), plus eval-BN constant folding
   (dense convolutions' norms; unmerged TT layers' ``bn_proj_seq`` is
   folded by construction) and frozen GEMM operands on no-grad O2 plans.
3. **Plan** (:mod:`~repro.runtime.planner`): the recorded forward order is
   the topological schedule; the backward schedule is its reverse restricted
   to the loss→leaf gradient paths.  Liveness analysis assigns intermediates
   to a reusable **buffer arena** keyed by ``(shape, dtype)``
   (:mod:`~repro.runtime.arena`) with view-alias folding and in-place-safe
   slot aliasing for elementwise ops, so steady-state replays perform ~zero
   fresh arena allocations.
4. **Replay** (:mod:`~repro.runtime.replay`): ``CompiledTrainStep`` /
   ``CompiledForward`` re-execute the plan on new input arrays through the
   op table (:mod:`repro.autograd.ops`) — no tensors, no closures, no
   module dispatch — and re-capture automatically when the input signature
   (shape/dtype/train-mode/timesteps/step-mode) changes.

One op table serves both engines: eager tensors run the same forward and
backward kernels a replay runs, allocations included, so there is one copy
of each op's math.  :mod:`~repro.runtime.ops` adds only the frozen-operand
convolution node (``fn_cached``) that ``O2`` rewrites no-grad plans into.
Replay runs these NumPy kernels in float32; there is no other kernel backend.

Entry points: ``BPTTTrainer(..., compile=True)``, ``Module.compile()`` and
``InferenceEngine(..., compile=True)``; see the README "Compiled runtime"
section for measured speedups.
"""

from repro.runtime.arena import BufferArena
from repro.runtime.graph import CaptureError, GraphCapture, OpNode, Slot
from repro.runtime.ops import OPS, OpDef, get_op, register_op
from repro.runtime.optimizer import OPT_LEVELS, OptimizerReport, optimize_capture
from repro.runtime.planner import ExecutionPlan, PlanSignatureError, compile_plan
from repro.runtime.replay import CompiledForward, CompiledTrainStep
from repro.runtime.streaming import StreamingForward, TemporalState

__all__ = [
    "BufferArena",
    "CaptureError",
    "GraphCapture",
    "OpNode",
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
