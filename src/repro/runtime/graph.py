"""Graph capture: turn one eager step into a structured op graph.

:class:`GraphCapture` installs itself as the autograd op trace (see
:func:`repro.autograd.tensor.set_trace`).  Every differentiable op executed
while the capture is active reports an :class:`OpNode` — op id, input/output
*slot* references, static attributes and optional saved forward state.  Slots
classify every array the step touches:

* ``INPUT``   — declared placeholders (batch data, one-hot labels); replays
  rebind them to fresh arrays.
* ``LEAF``    — autograd leaves that require grad (parameters); replays read
  ``tensor.data`` live, so optimizer updates between replays are visible, and
  the planned backward writes their gradients back.
* ``CONST``   — any other pre-existing tensor; its array is baked *by
  reference*, so in-place updates (e.g. batch-norm running buffers viewed
  through a reshape) stay visible.
* ``INTER``   — op outputs, owned by the plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, set_trace
from repro.runtime.ops import get_op

__all__ = ["CaptureError", "GraphCapture", "OpNode", "Slot",
           "INPUT", "LEAF", "CONST", "INTER", "compute_needs_grad"]

INPUT, LEAF, CONST, INTER = range(4)


class CaptureError(RuntimeError):
    """The executed step contains state the runtime cannot capture."""


class Slot:
    """One array position in the captured graph."""

    __slots__ = ("index", "kind", "shape", "dtype", "array", "tensor", "name", "producer")

    def __init__(self, index: int, kind: int, array: np.ndarray,
                 tensor: Optional[Tensor] = None, name: str = "",
                 producer: Optional[int] = None):
        self.index = index
        self.kind = kind
        self.shape = tuple(array.shape)
        self.dtype = array.dtype
        self.array = array          # captured value (by reference)
        self.tensor = tensor        # kept for LEAF slots (live .data / .grad)
        self.name = name
        self.producer = producer    # node index for INTER slots


class OpNode:
    """One recorded op: ``op(inputs) -> out`` plus static attrs and saved state."""

    __slots__ = ("op", "inputs", "out", "attrs", "saved", "rt_saved")

    def __init__(self, op: str, inputs: Tuple[int, ...], out: Optional[int],
                 attrs: dict, saved=None):
        self.op = op
        self.inputs = inputs
        self.out = out
        self.attrs = attrs
        self.saved = saved          # capture-time forward state (Function ctx, mask)
        self.rt_saved = saved       # refreshed by each replayed forward


def compute_needs_grad(slots: List[Slot], nodes: List[Optional[OpNode]]) -> List[bool]:
    """Per-slot flags: does a gradient flow into this slot?

    Grad-requiring LEAF slots seed the propagation; a differentiable node's
    output needs grad when any of its inputs does.  ``None`` entries
    (nodes an optimizer pass tombstoned) are skipped.
    """
    needs = [False] * len(slots)
    for slot in slots:
        if slot.kind == LEAF and slot.tensor is not None and slot.tensor.requires_grad:
            needs[slot.index] = True
    for node in nodes:
        if node is None or node.out is None or needs[node.out]:
            continue
        if get_op(node.op).differentiable and any(needs[i] for i in node.inputs):
            needs[node.out] = True
    return needs


class GraphCapture:
    """Record every traced op executed inside a ``with`` block.

    Use :meth:`placeholder` *before* running the step to declare which
    tensors are replay-varying inputs; everything else the step reads is
    classified automatically (LEAF for grad-requiring leaves, CONST
    otherwise).  A tensor that carries graph linkage but was created outside
    the capture would silently bake a stale value, so it raises
    :class:`CaptureError` instead.
    """

    def __init__(self):
        self.slots: List[Slot] = []
        self.nodes: List[OpNode] = []
        self._by_id: Dict[int, int] = {}
        self._keepalive: List[Tensor] = []   # keeps id() keys unique
        self.input_names: Dict[str, int] = {}
        self.outputs: List[Tuple[str, int]] = []
        self.loss_slot: Optional[int] = None
        self._prev_trace = None

    # -- context manager -----------------------------------------------------

    def __enter__(self) -> "GraphCapture":
        self._prev_trace = set_trace(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        set_trace(self._prev_trace)

    # -- declaration ----------------------------------------------------------

    def placeholder(self, tensor: Tensor, name: str) -> int:
        """Declare ``tensor`` as a named replay-varying input."""
        if id(tensor) in self._by_id:
            raise CaptureError(f"tensor already captured; declare placeholder '{name}' first")
        if name in self.input_names:
            raise CaptureError(f"duplicate placeholder name '{name}'")
        index = self._new_slot(INPUT, tensor.data, tensor=None, name=name)
        self._register(tensor, index)
        self.input_names[name] = index
        return index

    def mark_output(self, tensor: Tensor, name: str) -> int:
        """Mark ``tensor`` as a plan output returned by every replay."""
        index = self._slot_of(tensor)
        self.outputs.append((name, index))
        return index

    def mark_loss(self, tensor: Tensor) -> int:
        """Mark the scalar backward root of the captured step."""
        if tensor.size != 1:
            raise CaptureError(f"loss must be scalar, got shape {tensor.shape}")
        self.loss_slot = self._slot_of(tensor)
        return self.loss_slot

    # -- trace protocol (called from repro.autograd.tensor) -------------------

    def record(self, op: str, inputs: Tuple[Tensor, ...], out: Optional[Tensor],
               attrs: dict, saved) -> None:
        input_slots = tuple(self._slot_of(t) for t in inputs)
        if out is None:
            out_slot: Optional[int] = None
        else:
            out_slot = self._new_slot(INTER, out.data, producer=len(self.nodes))
            self._register(out, out_slot)
        self.nodes.append(OpNode(op, input_slots, out_slot, attrs, saved))

    # -- internals -------------------------------------------------------------

    def _register(self, tensor: Tensor, index: int) -> None:
        self._by_id[id(tensor)] = index
        self._keepalive.append(tensor)

    def _new_slot(self, kind: int, array: np.ndarray, tensor: Optional[Tensor] = None,
                  name: str = "", producer: Optional[int] = None) -> int:
        index = len(self.slots)
        self.slots.append(Slot(index, kind, array, tensor=tensor, name=name,
                               producer=producer))
        return index

    def _slot_of(self, tensor: Tensor) -> int:
        index = self._by_id.get(id(tensor))
        if index is not None:
            return index
        if tensor._prev or tensor._backward is not None:
            raise CaptureError(
                "encountered a graph tensor produced outside the capture (or by an "
                "untraced op); the runtime cannot replay it — pass it as a "
                "placeholder or keep it out of the compiled step"
            )
        if tensor.requires_grad:
            index = self._new_slot(LEAF, tensor.data, tensor=tensor)
        else:
            index = self._new_slot(CONST, tensor.data)
        self._register(tensor, index)
        return index

    # -- introspection -----------------------------------------------------------

    def op_histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for node in self.nodes:
            counts[node.op] = counts.get(node.op, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"GraphCapture(nodes={len(self.nodes)}, slots={len(self.slots)}, "
                f"inputs={sorted(self.input_names)}, outputs={len(self.outputs)})")
