"""Plan-time graph optimizer: rewrite a captured op graph before planning.

:func:`optimize_capture` runs a pass pipeline over a finished
:class:`~repro.runtime.graph.GraphCapture`, between capture and
:func:`~repro.runtime.planner.compile_plan`'s schedule/arena construction.
Optimization levels:

``O0``
    No rewriting — the PR-3 behaviour, bit-for-bit.
``O1``
    Value-preserving passes, safe for training plans (gradients included):

    * **kernel specialization** — every ``fn`` / ``bn_seq`` node gets ONE
      persistent kernel context with a :class:`~repro.autograd.tensor.Workspace`,
      so convolution columns, padded images, membrane histories and
      normalised activations live in reusable buffers instead of being
      reallocated every replay;
    * **elementwise-chain fusion** — single-consumer runs of elementwise ops
      collapse into one ``ew_chain`` node executing the identical ufunc
      sequence (with a fused backward), eliminating per-node dispatch and
      intermediate slots;
    * **view-chain collapse + CSE + DCE** — ``reshape∘reshape`` (and
      squeeze/unsqueeze) chains collapse to one reshape, duplicate view ops
      are shared, dead pure nodes are dropped.
``O2``
    Everything in O1, plus inference-only folds applied when the plan has no
    backward (training plans silently get O1 semantics):

    * **eval-BN constant folding** — an eval-mode ``bn_seq`` folds into the
      preceding convolution's weights/bias at plan time;
    * **TT pre-contraction** — the four sub-convolutions of an STT/PTT/HTT
      wiring (located via capture regions) pre-contract into ONE dense
      kernel per Eq. 6, so serve replays skip the core-by-core contraction;
    * **frozen kernel matrices** — convolutions whose weights are plan
      constants pre-gather their ``(kh*kw*C, O)`` GEMM operand once.

Every pass preserves eager-vs-replay equivalence to <= 1e-6 (O1 passes are
value-exact; O2 folds refactor per-channel float math and stay inside
float32 rounding).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.autograd.conv import Conv2dFunction, ConvChannelsLastFunction, _pair
from repro.autograd.functional import (
    _AvgPool2dCLFunction,
    _AvgPool2dFunction,
    _MaxPool2dCLFunction,
    _MaxPool2dFunction,
)
from repro.autograd.tensor import Workspace
from repro.nn.layers import BatchNormSequenceFunction
from repro.runtime.graph import CONST, LEAF, GraphCapture, OpNode, compute_needs_grad
from repro.runtime.ops import get_op
from repro.snn.neurons import _FusedLIFSequence

__all__ = ["OPT_LEVELS", "OptimizerReport", "optimize_capture"]

OPT_LEVELS = ("O0", "O1", "O2")

_CONV_CLASSES = (ConvChannelsLastFunction, Conv2dFunction)

#: Function classes that get a persistent workspace-backed context.
_SPECIALIZE_CLASSES = (
    ConvChannelsLastFunction,
    Conv2dFunction,
    _FusedLIFSequence,
    _MaxPool2dCLFunction,
    _AvgPool2dCLFunction,
    _MaxPool2dFunction,
    _AvgPool2dFunction,
)

#: Elementwise ops eligible for chain fusion (all differentiable, all pure).
_FUSIBLE = {"add", "mul", "div", "neg", "exp", "log", "sqrt", "tanh",
            "sigmoid", "relu", "abs", "clip", "pow"}

_VIEWLIKE = {"reshape", "squeeze", "unsqueeze"}

#: Ops safe for CSE (pure, deterministic, attrs hashable after canonicalising).
_CSE_OPS = {"reshape", "transpose", "squeeze", "unsqueeze", "getitem"}

#: Ops that must never be dead-code-eliminated even when their output is
#: unused: side effects (running-stat updates) or RNG-stream consumption.
_IMPURE = {"bn_stats", "dropout"}


@dataclass
class OptimizerReport:
    """What each pass did — exposed through ``runtime_stats()['optimizer']``."""

    level: str = "O0"
    nodes_before: int = 0
    nodes_after: int = 0
    folded_tt: int = 0
    folded_bn: int = 0
    views_collapsed: int = 0
    cse_removed: int = 0
    fused_chains: int = 0
    fused_ops: int = 0
    dce_removed: int = 0
    specialized: int = 0

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


def _conv_stride_padding(node: OpNode) -> Tuple[Tuple[int, int], Tuple[int, int]]:
    kwargs = node.attrs["kwargs"]
    return _pair(kwargs.get("stride", 1)), _pair(kwargs.get("padding", 0))


def _is_conv(node: Optional[OpNode]) -> bool:
    return (node is not None and node.op == "fn"
            and node.attrs.get("cls") in _CONV_CLASSES)


def _single_consumer(consumers: Dict[int, List[int]], graph: _Graph, slot: int,
                     expected: int) -> bool:
    return slot not in graph.keep and consumers.get(slot, []) == [expected]


# ---------------------------------------------------------------------------
# pass: TT region pre-contraction (O2, no-grad)
# ---------------------------------------------------------------------------


def _fold_tt_regions(graph: _Graph, report: OptimizerReport) -> None:
    from repro.tt.reconstruct import (
        merge_parallel_conv_weights,
        merge_parallel_tail_weights,
        merge_pointwise_conv_weights,
        merge_sequential_conv_weights,
    )

    memo: Dict[tuple, int] = {}

    for region in graph.capture.regions:
        if not region.tag.startswith("tt:") or region.stop < 0:
            continue
        consumers = graph.consumers()
        span = [index for index in range(region.start, region.stop)
                if graph.nodes[index] is not None]
        convs = [index for index in span if _is_conv(graph.nodes[index])]
        adds = [index for index in span if graph.nodes[index].op == "add"]
        kind = region.tag[3:]

        if kind in ("stt", "ptt") and len(convs) == 4:
            c1, c2, c3, c4 = convs
        elif kind == "ptt_tail" and len(convs) == 3:
            c1, (c2, c3, c4) = None, convs
        elif kind == "half" and len(convs) == 2:
            c1, c4 = convs
            c2 = c3 = None
        else:
            continue

        nodes = graph.nodes
        conv_cls = nodes[c4].attrs["cls"]
        if any(nodes[c].attrs["cls"] is not conv_cls for c in convs):
            continue

        weights = {c: graph.slot_value(nodes[c].inputs[1]) for c in convs}
        strides = {c: _conv_stride_padding(nodes[c])[0] for c in convs}
        paddings = {c: _conv_stride_padding(nodes[c])[1] for c in convs}
        # Any extra input (a bias) breaks the pure TT pattern.
        if any(len(nodes[c].inputs) != 2 for c in convs):
            continue
        # The merged kernel's padding is derived from the canonical "same"
        # sub-convolution paddings of the TT wiring; a region whose convs
        # were built differently must not fold.
        if c2 is not None:
            expected = {c2: (weights[c2].shape[2] // 2, 0),
                        c3: (0, weights[c3].shape[3] // 2)}
            if c1 is not None:
                expected[c1] = (0, 0)
            expected[c4] = (0, 0)
        else:
            expected = {c1: (0, 0), c4: (0, 0)}
        if any(paddings[c] != pad for c, pad in expected.items()):
            continue

        if kind == "half":
            # conv1 -> conv4, both 1x1: strides compose multiplicatively.
            if nodes[c4].inputs[0] != nodes[c1].out:
                continue
            if not _single_consumer(consumers, graph, nodes[c1].out, c4):
                continue
            merged = merge_pointwise_conv_weights(weights[c1], weights[c4])
            stride = (strides[c1][0] * strides[c4][0], strides[c1][1] * strides[c4][1])
            padding = (0, 0)
            entry, killed = nodes[c1].inputs[0], [c1]
        else:
            # The 3x1 / 1x3 mid-convolutions must be stride-1 for exactness.
            if strides[c2] != (1, 1) or strides[c3] != (1, 1):
                continue
            kh = weights[c2].shape[2]
            kw = weights[c3].shape[3]
            padding = (kh // 2, kw // 2)
            stride = strides[c4]

            if kind == "ptt_tail":
                if (nodes[c2].inputs[0] != nodes[c3].inputs[0]
                        or len(adds) != 1
                        or set(nodes[adds[0]].inputs) != {nodes[c2].out, nodes[c3].out}
                        or nodes[c4].inputs[0] != nodes[adds[0]].out):
                    continue
                if not (_single_consumer(consumers, graph, nodes[c2].out, adds[0])
                        and _single_consumer(consumers, graph, nodes[c3].out, adds[0])
                        and _single_consumer(consumers, graph, nodes[adds[0]].out, c4)):
                    continue
                merged = merge_parallel_tail_weights(weights[c2], weights[c3], weights[c4])
                entry, killed = nodes[c2].inputs[0], [c2, c3, adds[0]]
            else:
                # Full STT/PTT fold: exact only when the stride sits on the
                # last 1x1 (stride_mode="last") or the layer is stride-1.
                if strides[c1] != (1, 1):
                    shared = nodes[c1].out
                    if kind == "ptt":
                        # Stride-first layer: fold the conv2/conv3/conv4 tail
                        # only (exact — conv1 stays in the graph).
                        if (nodes[c2].inputs[0] != shared or nodes[c3].inputs[0] != shared
                                or len(adds) != 1
                                or set(nodes[adds[0]].inputs) != {nodes[c2].out, nodes[c3].out}
                                or nodes[c4].inputs[0] != nodes[adds[0]].out):
                            continue
                        if not (_single_consumer(consumers, graph, nodes[c2].out, adds[0])
                                and _single_consumer(consumers, graph, nodes[c3].out, adds[0])
                                and _single_consumer(consumers, graph, nodes[adds[0]].out, c4)):
                            continue
                        merged = merge_parallel_tail_weights(weights[c2], weights[c3],
                                                             weights[c4])
                        entry, killed = shared, [c2, c3, adds[0]]
                    else:
                        continue
                elif kind == "ptt":
                    shared = nodes[c1].out
                    if (nodes[c2].inputs[0] != shared or nodes[c3].inputs[0] != shared
                            or len(adds) != 1
                            or set(nodes[adds[0]].inputs) != {nodes[c2].out, nodes[c3].out}
                            or nodes[c4].inputs[0] != nodes[adds[0]].out):
                        continue
                    if not (consumers.get(shared, []) == [c2, c3]
                            and shared not in graph.keep
                            and _single_consumer(consumers, graph, nodes[c2].out, adds[0])
                            and _single_consumer(consumers, graph, nodes[c3].out, adds[0])
                            and _single_consumer(consumers, graph, nodes[adds[0]].out, c4)):
                        continue
                    merged = merge_parallel_conv_weights(weights[c1], weights[c2],
                                                         weights[c3], weights[c4])
                    entry, killed = nodes[c1].inputs[0], [c1, c2, c3, adds[0]]
                else:  # stt
                    if (nodes[c2].inputs[0] != nodes[c1].out
                            or nodes[c3].inputs[0] != nodes[c2].out
                            or nodes[c4].inputs[0] != nodes[c3].out):
                        continue
                    if not (_single_consumer(consumers, graph, nodes[c1].out, c2)
                            and _single_consumer(consumers, graph, nodes[c2].out, c3)
                            and _single_consumer(consumers, graph, nodes[c3].out, c4)):
                        continue
                    merged = merge_sequential_conv_weights(weights[c1], weights[c2],
                                                           weights[c3], weights[c4])
                    entry, killed = nodes[c1].inputs[0], [c1, c2, c3]

        memo_key = (kind,) + tuple(id(weights[c]) for c in convs) + (stride, padding)
        weight_slot = memo.get(memo_key)
        if weight_slot is None:
            # Follow the source weights' precision: a float64 plan must not
            # fold its TT cores down to float32.
            weight_slot = graph.new_const(merged.astype(weights[c4].dtype))
            memo[memo_key] = weight_slot

        graph.nodes[c4] = OpNode(
            "fn", (entry, weight_slot), nodes[c4].out,
            {"cls": conv_cls, "kwargs": {"stride": stride, "padding": padding}},
        )
        for index in killed:
            graph.kill(index)
        report.folded_tt += 1


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


def _fold_identity_pools(graph: _Graph, report: OptimizerReport) -> None:
    """Drop 1x1/stride-1 average pools (the adaptive pool on 1x1 maps).

    A window of one element averages to itself — forward values and the
    ``grad / 1`` backward are bit-identical to the identity.
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
        report.dce_removed += 1


# ---------------------------------------------------------------------------
# pass: view-chain collapse + CSE (O1)
# ---------------------------------------------------------------------------


def _collapse_views(graph: _Graph, report: OptimizerReport) -> None:
    producers = graph.producer_map()
    for index, node in enumerate(graph.nodes):
        if node is None or node.out is None:
            continue
        if node.op in _VIEWLIKE:
            parent = producers.get(node.inputs[0])
            if parent is not None and graph.nodes[parent] is not None \
                    and graph.nodes[parent].op in _VIEWLIKE:
                shape = graph.slots[node.out].shape
                graph.nodes[index] = OpNode("reshape",
                                            (graph.nodes[parent].inputs[0],),
                                            node.out, {"shape": shape})
                producers[node.out] = index
                report.views_collapsed += 1
        elif node.op == "transpose":
            parent = producers.get(node.inputs[0])
            if parent is not None and graph.nodes[parent] is not None \
                    and graph.nodes[parent].op == "transpose":
                inner = graph.nodes[parent].attrs["axes"]
                outer = node.attrs["axes"]
                composed = tuple(inner[axis] for axis in outer)
                graph.nodes[index] = OpNode("transpose",
                                            (graph.nodes[parent].inputs[0],),
                                            node.out, {"axes": composed})
                producers[node.out] = index
                report.views_collapsed += 1

    # Identity views: reshape/transpose that produce the input unchanged.
    for index, node in enumerate(graph.nodes):
        if node is None or node.out is None or node.out in graph.keep:
            continue
        identity = (
            (node.op == "reshape"
             and graph.slots[node.inputs[0]].shape == graph.slots[node.out].shape)
            or (node.op == "transpose"
                and node.attrs["axes"] == tuple(range(len(graph.slots[node.out].shape))))
        )
        if identity:
            graph.remap_slot(node.out, node.inputs[0])
            graph.kill(index)
            report.views_collapsed += 1


def _canonical_attrs(attrs: dict) -> Optional[tuple]:
    items = []
    for key in sorted(attrs):
        value = attrs[key]
        if isinstance(value, list):
            value = tuple(value)
        try:
            hash(value)
        except TypeError:
            return None
        items.append((key, value))
    return tuple(items)


def _cse(graph: _Graph, report: OptimizerReport) -> None:
    seen: Dict[tuple, int] = {}
    for index, node in enumerate(graph.nodes):
        if node is None or node.out is None or node.op not in _CSE_OPS:
            continue
        attrs_key = _canonical_attrs(node.attrs)
        if attrs_key is None:
            continue
        key = (node.op, node.inputs, attrs_key)
        first = seen.get(key)
        if first is None:
            seen[key] = node.out
        else:
            graph.remap_slot(node.out, first)
            graph.kill(index)
            report.cse_removed += 1


# ---------------------------------------------------------------------------
# pass: elementwise-chain fusion (O1)
# ---------------------------------------------------------------------------


def _fuse_elementwise(graph: _Graph, report: OptimizerReport) -> None:
    consumers = graph.consumers()
    in_chain = set()
    for start, node in enumerate(graph.nodes):
        if (node is None or start in in_chain or node.op not in _FUSIBLE
                or node.out is None):
            continue
        chain = [start]
        current = start
        while True:
            out = graph.nodes[current].out
            if out in graph.keep:
                break
            users = consumers.get(out, [])
            if len(users) != 1:
                break
            nxt = users[0]
            nxt_node = graph.nodes[nxt]
            if (nxt_node is None or nxt_node.op not in _FUSIBLE
                    or nxt in in_chain
                    or nxt_node.inputs.count(out) != 1):
                break
            chain.append(nxt)
            current = nxt
        if len(chain) < 2:
            continue

        node_inputs: List[int] = []

        def _slot_index(slot: int) -> int:
            try:
                return node_inputs.index(slot)
            except ValueError:
                node_inputs.append(slot)
                return len(node_inputs) - 1

        prog = []
        capture_saved = []
        prev_out = None
        for position, member in enumerate(chain):
            member_node = graph.nodes[member]
            opdef = get_op(member_node.op)
            spec = []
            for slot in member_node.inputs:
                if position > 0 and slot == prev_out:
                    spec.append(-1)
                else:
                    spec.append(_slot_index(slot))
            out_slot = graph.slots[member_node.out]
            prog.append({
                "op": member_node.op,
                "fwd": opdef.forward,
                "bwd": opdef.backward,
                "attrs": member_node.attrs,
                "ins": spec,
                "needs": (True,) * len(spec),
                "shape": out_slot.shape,
                "dtype": out_slot.dtype,
                "buffered": opdef.out_capable,
            })
            # Capture-time per-step state so the very first backward (which
            # follows the eagerly-executed capture forward) can run before
            # any replay refreshed the fused node.
            capture_saved.append(
                ([graph.slots[slot].array for slot in member_node.inputs],
                 out_slot.array))
            prev_out = member_node.out

        last = chain[-1]
        graph.nodes[last] = OpNode("ew_chain", tuple(node_inputs),
                                   graph.nodes[last].out,
                                   {"prog": prog, "ws": Workspace()},
                                   saved=capture_saved)
        for member in chain[:-1]:
            graph.kill(member)
        in_chain.update(chain)
        consumers = graph.consumers()
        report.fused_chains += 1
        report.fused_ops += len(chain)


# ---------------------------------------------------------------------------
# pass: dead-node elimination (O1)
# ---------------------------------------------------------------------------


def _dce(graph: _Graph, report: OptimizerReport) -> None:
    use_count = [0] * len(graph.slots)
    for node in graph.nodes:
        if node is None:
            continue
        for slot in node.inputs:
            use_count[slot] += 1
    changed = True
    while changed:
        changed = False
        for index in range(len(graph.nodes) - 1, -1, -1):
            node = graph.nodes[index]
            if (node is None or node.out is None or node.out in graph.keep
                    or use_count[node.out] > 0 or node.op in _IMPURE):
                continue
            if node.op == "bn_seq" and node.attrs["ctor"]["training"]:
                continue  # running-stat side effect
            if node.op == "bn_seq_cached" and node.attrs["training"]:
                continue
            for slot in node.inputs:
                use_count[slot] -= 1
            graph.kill(index)
            report.dce_removed += 1
            changed = True


# ---------------------------------------------------------------------------
# pass: kernel specialization (O1)
# ---------------------------------------------------------------------------


_CACHED_VIEW_OPS = {"reshape", "transpose", "squeeze", "unsqueeze"}


def _specialize_kernels(graph: _Graph, report: OptimizerReport,
                        freeze_constants: bool) -> None:
    needs = compute_needs_grad(graph.slots, graph.nodes)
    for node in graph.nodes:
        if node is None:
            continue
        if node.op == "fn" and node.attrs.get("cls") in _SPECIALIZE_CLASSES:
            cls = node.attrs["cls"]
            kwargs = node.attrs["kwargs"]
            ctx = cls(**kwargs) if kwargs else cls()
            ctx.set_workspace(Workspace())
            if cls in _CONV_CLASSES:
                if (freeze_constants and cls is ConvChannelsLastFunction
                        and graph.slots[node.inputs[1]].kind in (CONST, LEAF)):
                    # O2 no-grad plans bake parameter values (documented):
                    # the GEMM operand is gathered once instead of per replay.
                    # (The NCHW conv's GEMM operand is already a free view,
                    # so there is nothing to freeze there.)
                    ctx.freeze_weights = True
                if not needs[node.inputs[0]]:
                    # The input carries no gradient (e.g. the network input):
                    # backward skips the input-grad GEMM + column gather.
                    ctx.input_needs_grad = False
            node.attrs = {
                "cls": cls,
                "kwargs": kwargs,
                "ctx": ctx,
                "infer": getattr(ctx, "forward_inference", ctx.forward),
            }
            node.op = "fn_cached"
            report.specialized += 1
        elif node.op == "bn_seq":
            ctor = node.attrs["ctor"]
            ctx = node.attrs["cls"](**ctor)
            ctx.set_workspace(Workspace())
            node.attrs = {
                "cls": node.attrs["cls"],
                "ctor": ctor,
                "ctx": ctx,
                "training": ctor["training"],
                "running_mean": ctor["running_mean"],
                "running_var": ctor["running_var"],
                "momentum": node.attrs["momentum"],
            }
            node.op = "bn_seq_cached"
            report.specialized += 1
        elif node.op in _CACHED_VIEW_OPS:
            # Memoise the view on the identity of its base array: specialized
            # kernels write into identity-stable workspace buffers, so most
            # replays reuse the previously-constructed view for free.
            opdef = get_op(node.op)
            node.attrs = {
                "inner_fwd": opdef.forward,
                "inner_bwd": opdef.backward,
                "inner": node.attrs,
                "cache": [None, None],
            }
            node.op = "view_cached"
            report.specialized += 1


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def optimize_capture(capture: GraphCapture, level: str = "O0") -> OptimizerReport:
    """Run the pass pipeline for ``level`` over ``capture`` (in place).

    Folding passes that require a frozen, no-grad graph (eval-BN fold, TT
    pre-contraction) only run when the capture has no marked loss — a
    training capture at ``O2`` gets exactly the ``O1`` pipeline.  Returns the per-pass :class:`OptimizerReport` (also stored on
    ``capture.optimizer_report``).
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
        _fold_tt_regions(graph, report)
        _fold_bn_eval(graph, report)
    _fold_identity_pools(graph, report)
    _collapse_views(graph, report)
    _cse(graph, report)
    _fuse_elementwise(graph, report)
    _dce(graph, report)
    graph.compact()
    _specialize_kernels(graph, report,
                        freeze_constants=(level == "O2" and no_grad_plan))
    report.nodes_after = len(capture.nodes)
    return report
