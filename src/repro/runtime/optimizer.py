"""Plan-time graph optimizer: rewrite a captured op graph before planning.

:func:`optimize_capture` runs a pass pipeline over a finished
:class:`~repro.runtime.graph.GraphCapture`, between capture and
:func:`~repro.runtime.planner.compile_plan`'s schedule/arena construction.
Optimization levels:

``O0``
    No rewriting — the PR-3 behaviour, bit-for-bit.
``O1``
    **Identity-pool elision** — 1x1/stride-1 average pools (the adaptive
    pool on 1x1 maps) are dropped.  Value-exact, safe for training plans
    (gradients included).  Every kernel runs exactly as the eager engine
    runs it, allocations included.
``O2``
    Everything in O1, plus inference-only rewrites applied when the plan has
    no backward (training plans silently get O1 semantics):

    * **eval-BN constant folding** — an eval-mode ``bn_seq`` folds into the
      preceding convolution's weights/bias at plan time.  Those are the
      dense convolutions' norms (the stems, Eq. 6-merged engines): an
      unmerged TT layer normalises through ``bn_proj_seq``, whose eval
      forward already is the folded one-GEMM affine, so on unmerged TT
      plans the pass folds only the stem norm;
    * **frozen GEMM operands** — each channels-last convolution (and each
      TT ``cross_conv``) whose weights are plan constants or parameters gets
      ONE persistent context (a ``fn_cached`` node) that gathers its GEMM
      operand once.

Every pass preserves eager-vs-replay equivalence to <= 1e-6 (O1 is
value-exact; the BN fold refactors per-channel float math and stays inside
float32 rounding).  TT layers are not pre-contracted here: an engine built
with ``merge=True`` merges them once at model level (Eq. 6,
:func:`repro.tt.reconstruct.snapshot_merged`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.autograd.conv import Conv2dFunction, ConvChannelsLastFunction, _pair
from repro.autograd.functional import _AvgPool2dCLFunction, _AvgPool2dFunction
from repro.runtime.graph import CONST, LEAF, GraphCapture, OpNode

__all__ = ["OPT_LEVELS", "OptimizerReport", "optimize_capture"]

OPT_LEVELS = ("O0", "O1", "O2")

_CONV_CLASSES = (ConvChannelsLastFunction, Conv2dFunction)


@dataclass
class OptimizerReport:
    """What each pass did — exposed through ``runtime_stats()['optimizer']``."""

    level: str = "O0"
    nodes_before: int = 0
    nodes_after: int = 0
    folded_bn: int = 0
    frozen: int = 0

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class _Graph:
    """Mutable view over a capture: nodes may be tombstoned (``None``) and are
    compacted once at the end of the pipeline."""

    def __init__(self, capture: GraphCapture):
        self.capture = capture
        self.nodes: List[Optional[OpNode]] = list(capture.nodes)
        self.slots = capture.slots
        self.keep = {index for _, index in capture.outputs}
        if capture.loss_slot is not None:
            self.keep.add(capture.loss_slot)

    # -- queries ---------------------------------------------------------------

    def consumers(self) -> Dict[int, List[int]]:
        table: Dict[int, List[int]] = {}
        for index, node in enumerate(self.nodes):
            if node is None:
                continue
            for slot in node.inputs:
                table.setdefault(slot, []).append(index)
        return table

    def producer_map(self) -> Dict[int, int]:
        table: Dict[int, int] = {}
        for index, node in enumerate(self.nodes):
            if node is not None and node.out is not None:
                table[node.out] = index
        return table

    def slot_value(self, index: int) -> np.ndarray:
        """Current array behind a LEAF/CONST slot (LEAF reads the live tensor)."""
        slot = self.slots[index]
        if slot.kind == LEAF and slot.tensor is not None:
            return slot.tensor.data
        return slot.array

    def new_const(self, array: np.ndarray) -> int:
        return self.capture._new_slot(CONST, np.ascontiguousarray(array))

    # -- mutation --------------------------------------------------------------

    def kill(self, index: int) -> None:
        self.nodes[index] = None

    def remap_slot(self, old: int, new: int) -> None:
        """Redirect every read of slot ``old`` to slot ``new``."""
        for node in self.nodes:
            if node is None:
                continue
            if old in node.inputs:
                node.inputs = tuple(new if slot == old else slot for slot in node.inputs)
        self.capture.outputs = [(name, new if slot == old else slot)
                                for name, slot in self.capture.outputs]
        if self.capture.loss_slot == old:
            self.capture.loss_slot = new
        if old in self.keep:
            self.keep.discard(old)
            self.keep.add(new)

    def compact(self) -> None:
        """Write the surviving nodes back and refresh slot producer indices."""
        nodes = [node for node in self.nodes if node is not None]
        self.capture.nodes = nodes
        for slot in self.slots:
            slot.producer = None
        for index, node in enumerate(nodes):
            if node.out is not None:
                self.slots[node.out].producer = index
        self.nodes = list(nodes)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _is_conv(node: Optional[OpNode]) -> bool:
    return (node is not None and node.op == "fn"
            and node.attrs.get("cls") in _CONV_CLASSES)


def _single_consumer(consumers: Dict[int, List[int]], graph: _Graph, slot: int,
                     expected: int) -> bool:
    return slot not in graph.keep and consumers.get(slot, []) == [expected]


# ---------------------------------------------------------------------------
# pass: eval-BN constant folding into the preceding convolution (O2, no-grad)
# ---------------------------------------------------------------------------


def _walk_back_views(graph: _Graph, consumers, producers, slot: int) -> Optional[int]:
    """Follow single-consumer reshape links from ``slot`` back to a conv node.

    Every link must preserve the trailing (channel) axis, which guarantees
    the per-channel scale/shift commutes with the reshapes.  Returns the
    producing conv node index, or ``None``.
    """
    current = slot
    for _ in range(8):                     # fold/unfold chains are short
        producer = producers.get(current)
        if producer is None:
            return None
        node = graph.nodes[producer]
        if node is None:
            return None
        if _is_conv(node):
            return producer
        if node.op != "reshape":
            return None
        src = node.inputs[0]
        in_shape = graph.slots[src].shape
        out_shape = graph.slots[current].shape
        if not in_shape or not out_shape or in_shape[-1] != out_shape[-1]:
            return None
        if not _single_consumer(consumers, graph, src, producer):
            return None
        current = src
    return None


def _fold_bn_eval(graph: _Graph, report: OptimizerReport) -> None:
    consumers = graph.consumers()
    producers = graph.producer_map()
    for bn_index, node in enumerate(graph.nodes):
        if node is None or node.op != "bn_seq":
            continue
        ctor = node.attrs["ctor"]
        if ctor["training"]:
            continue
        x_slot = node.inputs[0]
        if not _single_consumer(consumers, graph, x_slot, bn_index):
            continue
        conv_index = _walk_back_views(graph, consumers, producers, x_slot)
        if conv_index is None:
            continue
        conv = graph.nodes[conv_index]
        if not _single_consumer(consumers, graph, conv.out, consumers[conv.out][0]):
            continue

        # Scale/shift exactly as BatchNormSequenceFunction.forward_inference.
        running_mean = ctor["running_mean"]
        running_var = ctor["running_var"]
        inv_std = 1.0 / np.sqrt(running_var + ctor["eps"])
        if len(node.inputs) == 3:
            weight = graph.slot_value(node.inputs[1])
            bias = graph.slot_value(node.inputs[2])
            scale = inv_std * (ctor["gamma_scale"] * weight)
            shift = bias - running_mean * scale
        else:
            scale = inv_std
            shift = -running_mean * inv_std

        conv_weight = graph.slot_value(conv.inputs[1])
        if conv_weight.shape[0] != scale.shape[0]:
            continue
        # Folded constants follow the conv weight's precision so float64
        # serve plans keep float64 parity with the unfolded graph.
        dtype = conv_weight.dtype
        new_weight = (conv_weight * scale.reshape(-1, 1, 1, 1)).astype(dtype)
        if len(conv.inputs) == 3:
            old_bias = graph.slot_value(conv.inputs[2])
            new_bias = (old_bias * scale + shift).astype(dtype)
        else:
            new_bias = shift.astype(dtype)

        weight_slot = graph.new_const(new_weight)
        bias_slot = graph.new_const(new_bias)
        graph.nodes[conv_index] = OpNode(conv.op, (conv.inputs[0], weight_slot, bias_slot),
                                         conv.out, conv.attrs)
        graph.remap_slot(node.out, x_slot)
        graph.kill(bn_index)
        report.folded_bn += 1
        # The remap/kill invalidated the lookup tables; refresh them only
        # after an actual fold (matches are few, candidates are many).
        consumers = graph.consumers()
        producers = graph.producer_map()


# ---------------------------------------------------------------------------
# pass: identity-pool elision (O1)
# ---------------------------------------------------------------------------


def _fold_identity_pools(graph: _Graph) -> None:
    """Drop 1x1/stride-1 average pools (the adaptive pool on 1x1 maps).

    A window of one element averages to itself — forward values and the
    ``grad / 1`` backward are bit-identical to the identity.  This is the
    one structural pass that measured a win: per-request (batch 1) serving
    pays a full pooling kernel for it otherwise.
    """
    for index, node in enumerate(graph.nodes):
        if node is None or node.op != "fn" or node.out in graph.keep:
            continue
        if node.attrs.get("cls") not in (_AvgPool2dCLFunction, _AvgPool2dFunction):
            continue
        kwargs = node.attrs["kwargs"]
        kernel = _pair(kwargs.get("kernel_size", 1))
        stride = kwargs.get("stride")
        stride = kernel if stride is None else _pair(stride)
        if kernel != (1, 1) or stride != (1, 1) or _pair(kwargs.get("padding", 0)) != (0, 0):
            continue
        graph.remap_slot(node.out, node.inputs[0])
        graph.kill(index)


# ---------------------------------------------------------------------------
# pass: frozen GEMM operands (O2, no-grad)
# ---------------------------------------------------------------------------


def _freeze_conv_operands(graph: _Graph, report: OptimizerReport) -> None:
    """Give each channels-last conv with parameter weights a frozen context.

    O2 no-grad plans bake parameter values (documented), so the GEMM operand
    is gathered once instead of per replay.  That covers the TT layers'
    ``cross_conv`` nodes, whose per-tap kernels are built once.  The NCHW
    conv's GEMM operand is already a free view, so there is nothing to
    freeze there.
    """
    for node in graph.nodes:
        if node is None:
            continue
        if node.op == "fn" and node.attrs.get("cls") is ConvChannelsLastFunction:
            weights = node.inputs[1:2]
        elif node.op == "cross_conv":
            weights = node.inputs[1:3]
        else:
            continue
        if any(graph.slots[slot].kind not in (CONST, LEAF) for slot in weights):
            continue
        cls = node.attrs["cls"]
        ctx = cls(**node.attrs["kwargs"])
        ctx.freeze_weights = True
        node.attrs = {"cls": cls, "ctx": ctx}
        node.op = "fn_cached"
        report.frozen += 1


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def optimize_capture(capture: GraphCapture, level: str = "O0") -> OptimizerReport:
    """Run the pass pipeline for ``level`` over ``capture`` (in place).

    The eval-BN fold and frozen operands require a no-grad graph, so they
    only run when the capture has no marked loss — a training capture at
    ``O2`` gets exactly the ``O1`` pipeline.  Returns the per-pass
    :class:`OptimizerReport` (also stored on ``capture.optimizer_report``).
    """
    if level not in OPT_LEVELS:
        raise ValueError(f"optimize must be one of {OPT_LEVELS}, got {level!r}")
    report = OptimizerReport(level=level, nodes_before=len(capture.nodes),
                             nodes_after=len(capture.nodes))
    capture.optimizer_report = report
    if level == "O0":
        return report

    no_grad_plan = capture.loss_slot is None
    graph = _Graph(capture)

    if level == "O2" and no_grad_plan:
        _fold_bn_eval(graph, report)
        _freeze_conv_operands(graph, report)
    _fold_identity_pools(graph)
    graph.compact()
    report.nodes_after = len(capture.nodes)
    return report
