"""Plan building: topological schedule, liveness analysis, arena binding.

:func:`compile_plan` turns a :class:`~repro.runtime.graph.GraphCapture` into
an :class:`ExecutionPlan`:

* the **forward schedule** is the capture order (already topological — ops
  were recorded as they executed);
* the **backward schedule** replicates the eager engine's stack-DFS
  topological order exactly, so per-slot gradient accumulation happens in
  the identical consumer order and grouping — replayed gradients are bitwise
  equal to eager ones (surrogate gradients are discontinuous, so even
  ulp-level accumulation drift would compound across optimizer steps);
* **liveness analysis** computes, per slot, the last point that reads it.
  Forward-only plans share arena buffers between non-overlapping live ranges
  — and elementwise ops whose input dies at the very node may write the
  result *in place* into the input's buffer (in-place-safe slot aliasing) —
  while training plans keep forward values alive exactly until their
  producer's backward consumes them.  Dead values are dropped eagerly during
  replay, so the steady-state working set matches the eager engine while the
  arena keeps the steady-state allocation count at ~0.
"""

from __future__ import annotations

import time

import numpy as np

from typing import Dict, List, Optional, Tuple

from repro.autograd.tensor import _unbroadcast
from repro.resilience import faults
from repro.resilience.errors import NumericFault
from repro.runtime.arena import BufferArena
from repro.runtime.graph import INTER, LEAF, CaptureError, GraphCapture, compute_needs_grad
from repro.runtime.ops import get_op
from repro.runtime.optimizer import optimize_capture

__all__ = ["ExecutionPlan", "PlanSignatureError", "compile_plan"]

_INFINITY = float("inf")


class PlanSignatureError(ValueError):
    """A replay input does not match the captured shape/dtype signature."""


class ExecutionPlan:
    """A replayable forward(+backward) schedule over a fixed-slot graph.

    Built by :func:`compile_plan`; replay with :meth:`replay`.  The plan owns
    its arena buffers until :meth:`release` returns them to the pool.
    """

    def __init__(self, capture: GraphCapture, arena: BufferArena,
                 profile: bool = False, backend: str = "numpy",
                 guard_numerics: bool = False):
        from repro.runtime import backends

        self._arena = arena
        # Kernel backend: the requested name degrades gracefully (an
        # unavailable backend resolves to the reference), and individual
        # nodes the backend declines fall back per node below.
        self.backend_request = backend
        self._backend = backends.resolve_backend(backend)
        self.backend = self._backend.name
        self.slots = capture.slots
        self.nodes = capture.nodes
        self.input_ids: Dict[str, int] = dict(capture.input_names)
        self.output_ids: List[Tuple[str, int]] = list(capture.outputs)
        self.loss_slot = capture.loss_slot
        self.optimizer_report = getattr(capture, "optimizer_report", None)
        self._profile = bool(profile)
        # Optimized plans adopt C-contiguous first-write gradient views by
        # reference: the layout matches the contiguous copy bit-for-bit, so
        # downstream pairwise reductions cannot drift — only O0 keeps the
        # (PR-3 exact) unconditional copy.
        self._adopt_contiguous_views = (
            self.optimizer_report is not None
            and getattr(self.optimizer_report, "level", "O0") != "O0"
        )
        self.kernel_seconds: Dict[str, float] = {}
        self.kernel_calls: Dict[str, int] = {}

        count = len(self.slots)
        self._vals: List[Optional[np.ndarray]] = [slot.array for slot in self.slots]
        self._gvals: List[Optional[np.ndarray]] = [None] * count
        self._gbuf: Dict[int, np.ndarray] = {}
        self._gout: Dict[int, np.ndarray] = {}
        self._leaf_slots = [(slot.index, slot.tensor) for slot in self.slots
                            if slot.kind == LEAF]
        self._buffers: List[np.ndarray] = []
        self._keep = {index for _, index in self.output_ids}
        if self.loss_slot is not None:
            self._keep.add(self.loss_slot)

        self._needs = compute_needs_grad(self.slots, self.nodes)
        self.has_backward = (
            self.loss_slot is not None and self._needs[self.loss_slot]
        )
        self._grad_targets: List[Tuple[int, object]] = []
        self._bwd_nodes = self._build_backward_schedule() if self.has_backward else []
        self._roots = self._alias_roots()
        self._last_use = self._compute_last_use()
        self._slot_buffer = self._bind_buffers()
        self._fwd_drops = self._build_forward_drops()
        self._post_drops = [
            slot.index for slot in self.slots
            if slot.kind == INTER and slot.index not in self._keep
            and slot.index not in self._slot_buffer
        ]
        self._compile_native_kernels()
        self._fwd_steps = [self._make_forward_step(position, node)
                           for position, node in enumerate(self.nodes)]
        self._bwd_steps = [self._make_backward_step(node) for node in self._bwd_nodes]
        self._fwd_labels = [
            self._decorated_label(node, self._native.get(position))
            for position, node in enumerate(self.nodes)
        ]
        self._bwd_labels = [
            "bwd:" + self._decorated_label(node, self._native_by_id.get(id(node)))
            for node in self._bwd_nodes
        ]
        if self.has_backward:
            loss = self.slots[self.loss_slot]
            self._seed = np.ones(loss.shape, dtype=loss.dtype)
        self._sealed = False
        self.replay_count = 0
        #: Numeric guard policy: check every node's forward output for
        #: non-finite values and raise :class:`NumericFault` (see
        #: :meth:`_run_forward_guarded`).  Quarantined kernel labels land in
        #: :attr:`quarantined` and move from native to fallback accounting.
        self.guard_numerics = bool(guard_numerics)
        self.quarantined: List[str] = []
        self._poison_target: Optional[int] = None
        self._poison_value = float("nan")

    @staticmethod
    def _node_label(node) -> str:
        if node.op in ("fn", "fn_cached"):
            return f"{node.op}:{node.attrs['cls'].__name__}"
        return node.op

    def _decorated_label(self, node, native) -> str:
        """Profiler label with the executing backend appended.

        Native-compiled nodes read ``op@<backend>``; nodes the selected
        native backend was *eligible* for but declined (unsupported program
        variant, failed plan-time verification) read ``op@fallback`` — the
        rest replay the reference kernels and keep their bare label.
        """
        label = self._node_label(node)
        if native is not None:
            return f"{label}@{native.backend}"
        if not self._backend.is_reference and self._backend.eligible(node):
            return f"{label}@fallback"
        return label

    def _compile_native_kernels(self) -> None:
        """Offer every node to the selected backend; keep what verifies.

        Runs before the capture is sealed, so backends can specialize and
        verify against the recorded slot arrays.  Declined nodes stay on
        their registry kernels (per-node fallback); the plan counts both
        populations so speedups are attributable.
        """
        self._native: Dict[int, object] = {}
        self._native_by_id: Dict[int, object] = {}
        self.native_nodes = 0
        self.fallback_nodes = 0
        backend = self._backend
        if backend.is_reference:
            return
        bwd_ids = {id(node) for node in self._bwd_nodes}
        for position, node in enumerate(self.nodes):
            if not backend.eligible(node):
                continue
            needs = tuple(self._needs[i] for i in node.inputs)
            kernel = backend.compile_node(node, self.slots, needs,
                                          id(node) in bwd_ids)
            if kernel is None:
                self.fallback_nodes += 1
                continue
            self.native_nodes += 1
            self._native[position] = kernel
            self._native_by_id[id(node)] = kernel

    # -- analysis ------------------------------------------------------------

    def _build_backward_schedule(self):
        """Backward node order replicating :meth:`Tensor.backward` exactly.

        Same stack-based DFS (inputs filtered by needs-grad, same push order,
        same visited checks), hence bitwise-identical gradient accumulation.
        """
        needs = self._needs
        producer: Dict[int, object] = {}
        for node in self.nodes:
            if node.out is not None and get_op(node.op).differentiable:
                producer[node.out] = node

        topo: List[int] = []
        visited = set()
        stack: List[Tuple[int, bool]] = [(self.loss_slot, False)]
        while stack:
            index, processed = stack.pop()
            if processed:
                topo.append(index)
                continue
            if index in visited:
                continue
            visited.add(index)
            stack.append((index, True))
            node = producer.get(index)
            if node is None:
                continue
            for parent in node.inputs:
                if needs[parent] and parent not in visited:
                    stack.append((parent, False))

        schedule = []
        reachable = set()
        for index in reversed(topo):
            node = producer.get(index)
            if node is None:
                continue
            schedule.append(node)
            for parent in node.inputs:
                if needs[parent]:
                    reachable.add(parent)
        self._grad_targets = [
            (slot.index, slot.tensor) for slot in self.slots
            if slot.kind == LEAF and slot.index in reachable
        ]
        return schedule

    def _alias_roots(self) -> List[int]:
        roots = list(range(len(self.slots)))
        for node in self.nodes:
            if node.out is not None and get_op(node.op).alias:
                roots[node.out] = roots[node.inputs[0]]
        return roots

    def _compute_last_use(self) -> Dict[int, float]:
        """Last forward position reading each slot directly (outputs: forever)."""
        last_use: Dict[int, float] = {}
        for position, node in enumerate(self.nodes):
            for index in node.inputs:
                last_use[index] = position
        for index in self._keep:
            last_use[index] = _INFINITY
        return last_use

    def _bind_buffers(self) -> Dict[int, np.ndarray]:
        """Assign arena buffers to out-capable op outputs.

        Forward-only plans run a linear scan over live ranges so buffers are
        shared between non-overlapping intermediates; training plans keep
        every forward value alive for the backward pass, so each managed slot
        gets a dedicated (but step-persistent) buffer.
        """
        managed: Dict[int, np.ndarray] = {}
        roots = self._roots

        candidates = []
        for position, node in enumerate(self.nodes):
            opdef = get_op(node.op)
            out = node.out
            if (out is None or opdef.alias or not opdef.out_capable
                    or self.slots[out].kind != INTER or roots[out] != out):
                continue
            candidates.append((position, node, opdef))
        if not candidates:
            return managed

        if self.has_backward:
            for _, node, _ in candidates:
                slot = self.slots[node.out]
                buffer = self._arena.acquire(slot.shape, slot.dtype)
                managed[node.out] = buffer
                self._buffers.append(buffer)
            return managed

        # Forward-only: alias-folded live ranges, linear-scan buffer sharing.
        root_last: Dict[int, float] = {}
        for index, use in self._last_use.items():
            root = roots[index]
            root_last[root] = max(root_last.get(root, -1), use)

        free: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        active: List[Tuple[float, int]] = []  # (last_use, slot) with a bound buffer

        def _release_until(limit: float) -> None:
            keep = []
            for use, slot_index in active:
                if use <= limit:
                    buffer = managed[slot_index]
                    key = (buffer.shape, buffer.dtype.str)
                    free.setdefault(key, []).append(buffer)
                else:
                    keep.append((use, slot_index))
            active[:] = keep

        for position, node, opdef in candidates:
            _release_until(position - 1)
            if opdef.inplace_safe:
                # An input that dies at this very node may donate its buffer:
                # elementwise kernels tolerate out aliasing a same-shape input.
                _release_until(position)
            slot = self.slots[node.out]
            key = (slot.shape, slot.dtype.str)
            bucket = free.get(key)
            if bucket:
                buffer = bucket.pop()
            else:
                buffer = self._arena.acquire(slot.shape, slot.dtype)
                self._buffers.append(buffer)
            managed[node.out] = buffer
            active.append((root_last.get(node.out, -1), node.out))
        return managed

    def _build_forward_drops(self) -> Dict[int, List[int]]:
        """Per-node lists of value entries to drop right after that node runs.

        Only forward-only plans drop during the forward sweep (training plans
        need every value for backward); dead entries release their arrays as
        soon as all aliases are gone, keeping the replay working set at the
        eager engine's level instead of pinning a full step of intermediates.
        """
        drops: Dict[int, List[int]] = {}
        if self.has_backward:
            return drops
        for slot in self.slots:
            if (slot.kind != INTER or slot.index in self._keep
                    or slot.index in self._slot_buffer):
                continue
            use = self._last_use.get(slot.index)
            if use is None:
                producer = slot.producer
                if producer is not None:
                    drops.setdefault(producer, []).append(slot.index)
            elif use != _INFINITY:
                drops.setdefault(int(use), []).append(slot.index)
        return drops

    # -- step construction -----------------------------------------------------

    def _make_forward_step(self, position: int, node):
        opdef = get_op(node.op)
        vals = self._vals
        native = self._native.get(position)
        if native is not None:
            forward = native.forward
            if not self.has_backward and native.forward_inference is not None:
                forward = native.forward_inference
        else:
            forward = opdef.forward
            if not self.has_backward and opdef.forward_inference is not None:
                # No backward will ever run: use the lean kernel that skips
                # saved-state materialisation (columns, argmax maps, histories).
                forward = opdef.forward_inference
        attrs = node.attrs
        inputs = node.inputs
        out = node.out
        buffer = self._slot_buffer.get(out) if out is not None else None
        drops = self._fwd_drops.get(position)

        if out is None:
            def step():
                forward([vals[i] for i in inputs], attrs)
                if drops is not None:
                    for index in drops:
                        vals[index] = None
            return step

        if drops is None:
            def step():
                result = forward([vals[i] for i in inputs], attrs, buffer)
                if type(result) is tuple:
                    result, node.rt_saved = result
                vals[out] = result
            return step

        def step():
            result = forward([vals[i] for i in inputs], attrs, buffer)
            if type(result) is tuple:
                result, node.rt_saved = result
            vals[out] = result
            for index in drops:
                vals[index] = None
        return step

    def _make_backward_step(self, node):
        opdef = get_op(node.op)
        vals, gvals = self._vals, self._gvals
        native = self._native_by_id.get(id(node))
        if native is not None and native.backward is not None:
            backward = native.backward
        else:
            backward = opdef.backward
        if backward is None:  # pragma: no cover - differentiable ops all have kernels
            raise CaptureError(f"op '{node.op}' is differentiable but has no backward kernel")
        attrs = node.attrs
        inputs = node.inputs
        out = node.out
        needs = tuple(self._needs[i] for i in inputs)
        accumulate = self._accumulate_grad
        # After this backward runs, neither the forward value nor the gradient
        # of `out` has any remaining reader (consumers' backwards all ran
        # earlier — reverse-topological order), so both entries are dropped.
        drop_val = out not in self._keep and out not in self._slot_buffer

        def step():
            grad = gvals[out]
            if grad is None:
                return
            grads = backward(grad, [vals[i] for i in inputs], vals[out],
                             node.rt_saved, attrs, needs)
            for position, index in enumerate(inputs):
                grad_i = grads[position]
                if grad_i is None or not needs[position]:
                    continue
                accumulate(index, grad_i)
            gvals[out] = None
            if drop_val:
                vals[out] = None
        return step

    def _grad_buffer(self, index: int, slot) -> np.ndarray:
        buffer = self._gbuf.get(index)
        if buffer is None:
            buffer = self._arena.acquire(slot.shape, slot.dtype)
            self._gbuf[index] = buffer
            self._buffers.append(buffer)
        return buffer

    def _accumulate_grad(self, index: int, grad: np.ndarray) -> None:
        slot = self.slots[index]
        grad = _unbroadcast(np.asarray(grad, dtype=slot.dtype), slot.shape)
        current = self._gvals[index]
        if current is None:
            if (grad.base is not None and self._adopt_contiguous_views
                    and grad.flags["C_CONTIGUOUS"]):
                # A contiguous view has the exact layout its copy would have;
                # the base array stays unwritten until the next replay, so
                # adopting it by reference is value- and bit-safe.
                self._gvals[index] = grad
                return
            if grad.base is not None:
                # Mirror the eager engine: first-write views are materialised
                # to a contiguous copy (here into a step-persistent buffer).
                # Keeping the view would be value-equal but layout-different,
                # and NumPy's pairwise reductions over a different memory
                # layout drift by an ulp — enough to flip a surrogate
                # gradient a few optimizer steps later.
                buffer = self._grad_buffer(index, slot)
                np.copyto(buffer, grad)
                grad = buffer
            self._gvals[index] = grad
            return
        buffer = self._grad_buffer(index, slot)
        if current is buffer:
            np.add(buffer, grad, out=buffer)
        else:
            np.add(current, grad, out=buffer)
            self._gvals[index] = buffer

    # -- execution ---------------------------------------------------------------

    def bind_inputs(self, inputs: Dict[str, np.ndarray]) -> None:
        vals = self._vals
        for name, array in inputs.items():
            index = self.input_ids.get(name)
            if index is None:
                raise PlanSignatureError(f"plan has no input named '{name}'")
            slot = self.slots[index]
            array = np.asarray(array)
            if array.shape != slot.shape or array.dtype != slot.dtype:
                raise PlanSignatureError(
                    f"input '{name}' expects {slot.shape}/{slot.dtype}, "
                    f"got {array.shape}/{array.dtype} — re-capture required"
                )
            vals[index] = array

    def replay(self, inputs: Dict[str, np.ndarray], grads: Optional[bool] = None):
        """Re-execute the plan on fresh input arrays; returns the output arrays.

        Parameter slots are re-read from their live tensors, so optimizer
        updates between replays are picked up automatically.  With
        ``grads=True`` (default when a loss was marked) the planned backward
        runs as well and leaf gradients are accumulated into ``tensor.grad``.
        Returned arrays live in plan-owned storage valid until the next replay.
        """
        if not self._sealed:
            self.seal()
        injector = faults.get_injector()
        if injector is not None and self._poison_target is None:
            action = injector.maybe("runtime.nan")
            if action is not None:
                self._arm_poison(action)
        self.bind_inputs(inputs)
        vals = self._vals
        for index, tensor in self._leaf_slots:
            vals[index] = tensor.data
        self._run_forward()
        if grads is None:
            grads = self.has_backward
        if grads:
            self._run_backward()
            self._drop_dead_values()
        self.replay_count += 1
        return [vals[index] for _, index in self.output_ids]

    def replay_profiled(self, inputs: Dict[str, np.ndarray],
                        grads: Optional[bool] = None):
        """One replay with per-kernel attribution, regardless of ``profile=``.

        Runs the profiled executor for this call only and returns
        ``(outputs, [(label, seconds, calls), ...])`` where the timing rows
        are the *deltas* this replay added to the cumulative profile — the
        feed for sampled per-kernel trace spans (:mod:`repro.obs`).  Labels
        follow schedule order for kernels first seen here; repeated labels
        (e.g. per-timestep LIF steps sharing one kernel) merge with their
        call count.
        """
        before_s = dict(self.kernel_seconds)
        before_c = dict(self.kernel_calls)
        was_profiling = self._profile
        self._profile = True
        try:
            outputs = self.replay(inputs, grads=grads)
        finally:
            self._profile = was_profiling
        timings = []
        for label, seconds in self.kernel_seconds.items():
            calls = self.kernel_calls.get(label, 0) - before_c.get(label, 0)
            if calls > 0:
                timings.append((label, seconds - before_s.get(label, 0.0), calls))
        if not was_profiling:
            # profile=False plans should not keep accumulating state from
            # sampled replays (runtime_stats() would report a misleading
            # partial profile); restore the cumulative dicts.
            self.kernel_seconds.clear()
            self.kernel_seconds.update(before_s)
            self.kernel_calls.clear()
            self.kernel_calls.update(before_c)
        return outputs, timings

    def _run_forward(self) -> None:
        if self.guard_numerics or self._poison_target is not None:
            # Guarded (and fault-poisoned) replays run the checked path.
            self._run_forward_guarded()
            return
        if self._profile:
            self._run_profiled(self._fwd_steps, self._fwd_labels)
        else:
            for step in self._fwd_steps:
                step()

    def _run_profiled(self, steps, labels) -> None:
        seconds = self.kernel_seconds
        calls = self.kernel_calls
        for step, label in zip(steps, labels):
            started = time.perf_counter()
            step()
            elapsed = time.perf_counter() - started
            seconds[label] = seconds.get(label, 0.0) + elapsed
            calls[label] = calls.get(label, 0) + 1

    # -- numeric guards / fault quarantine ----------------------------------------

    def _arm_poison(self, action: Dict[str, object]) -> None:
        """Arm one injected non-finite emission (``runtime.nan`` fault site).

        The poisoned node is chosen deterministically: an explicit
        ``position``, else the first node whose label contains ``label``,
        else the first native-compiled node (the scenario the quarantine
        machinery exists for), else the first float-producing node.
        """
        position = action.get("position")
        if position is None:
            want = action.get("label")
            candidates: List[int] = []
            if want is not None:
                candidates = [p for p, label in enumerate(self._fwd_labels)
                              if str(want) in label
                              and self.nodes[p].out is not None]
            if not candidates:
                candidates = sorted(self._native)
            if not candidates:
                candidates = [p for p, node in enumerate(self.nodes)
                              if node.out is not None]
            if not candidates:  # pragma: no cover - plans always have nodes
                return
            position = candidates[0]
        self._poison_target = int(position)
        self._poison_value = float(action.get("value", "nan"))

    def _run_forward_guarded(self) -> None:
        """Forward with per-node non-finite detection.

        Raises a typed :class:`NumericFault` naming the first offending
        node; the front-ends (:mod:`repro.runtime.replay`) use
        ``fault.native`` to decide between quarantining the kernel (native
        — retry on the reference path) and propagating (reference — a real
        numerical problem in model or data).  Injected poison is written
        into the target node's output *after* it runs, so detection
        exercises the same path a genuinely misbehaving kernel would.
        """
        vals = self._vals
        nodes = self.nodes
        check = self.guard_numerics
        for position, step in enumerate(self._fwd_steps):
            step()
            out = nodes[position].out
            if out is None:
                continue
            if self._poison_target == position:
                self._poison_target = None
                value = vals[out]
                if (value is not None and value.size
                        and np.issubdtype(value.dtype, np.floating)):
                    value.flat[0] = self._poison_value
            if not check:
                continue
            value = vals[out]
            if (value is not None
                    and np.issubdtype(value.dtype, np.floating)
                    and not np.isfinite(value).all()):
                raise NumericFault(self._fwd_labels[position], position,
                                   position in self._native)

    def quarantine_node(self, position: int) -> bool:
        """Demote one native-compiled node to its reference kernel, in place.

        Returns ``False`` when the node has no native kernel (nothing to
        quarantine).  The swap rebuilds just that node's forward step (and
        its backward step, when scheduled) and moves the node from native to
        fallback accounting, so ``runtime_stats()`` / the backend gauges
        show exactly which kernel was benched — extending the per-node
        fallback bookkeeping native backends already use at plan time.
        """
        kernel = self._native.pop(position, None)
        if kernel is None:
            return False
        node = self.nodes[position]
        self._native_by_id.pop(id(node), None)
        self.native_nodes -= 1
        self.fallback_nodes += 1
        self.quarantined.append(self._fwd_labels[position])
        self._fwd_steps[position] = self._make_forward_step(position, node)
        self._fwd_labels[position] = self._decorated_label(node, None)
        for index, bwd_node in enumerate(self._bwd_nodes):
            if bwd_node is node:
                self._bwd_steps[index] = self._make_backward_step(bwd_node)
                self._bwd_labels[index] = (
                    "bwd:" + self._decorated_label(bwd_node, None))
        return True

    def backward_from_capture(self) -> None:
        """Run the planned backward on the values recorded during capture.

        Used for the very first step: the forward already ran eagerly while
        being captured, so only the backward sweep (and the leaf-gradient
        write-back) is outstanding.
        """
        if not self.has_backward:
            raise CaptureError("plan has no backward (no loss was marked)")
        self._run_backward()

    def _run_backward(self) -> None:
        gvals = self._gvals
        gvals[self.loss_slot] = self._seed
        if self._profile:
            self._run_profiled(self._bwd_steps, self._bwd_labels)
        else:
            for step in self._bwd_steps:
                step()
        for index, tensor in self._grad_targets:
            grad = gvals[index]
            gvals[index] = None
            if grad is None:
                continue
            if tensor.grad is None:
                # Copy into a dedicated handout buffer: `grad` may alias a
                # plan accumulation buffer that the NEXT replay overwrites in
                # place, which would silently destroy cross-step gradient
                # accumulation (callers that skip zero_grad between steps).
                slot = self.slots[index]
                handout = self._gout.get(index)
                if handout is None:
                    handout = self._arena.acquire(slot.shape, slot.dtype)
                    self._gout[index] = handout
                    self._buffers.append(handout)
                np.copyto(handout, grad)
                tensor.grad = handout
                # Handout stays plan-owned: eager accumulation on top must
                # reallocate rather than mutate it in place.
                tensor._grad_owned = False
            else:
                tensor.grad = tensor.grad + grad
                tensor._grad_owned = True

    def _drop_dead_values(self) -> None:
        """Drop every transient value/gradient reference at end of step.

        Keeps the between-step working set at parity with eager execution
        (which frees its whole tape when the step's tensors go out of scope):
        only arena buffers, plan outputs and the loss survive.
        """
        vals, gvals = self._vals, self._gvals
        for index in self._post_drops:
            vals[index] = None
        for index in range(len(gvals)):
            gvals[index] = None

    def seal(self) -> None:
        """Release capture-time transients (arrays, saved contexts).

        Called automatically before the first replay; after sealing, the plan
        no longer pins the captured step's intermediate arrays — only the
        arena buffers, constants and live leaf references remain.
        """
        if self._sealed:
            return
        self._sealed = True
        for slot in self.slots:
            if slot.kind == INTER:
                slot.array = None
        for node in self.nodes:
            node.saved = None
            node.rt_saved = None
        for index in self._post_drops:
            self._vals[index] = None
        for index in self._keep:
            if self.slots[index].kind == INTER:
                self._vals[index] = None
        for index in range(len(self._gvals)):
            self._gvals[index] = None

    # -- bookkeeping ---------------------------------------------------------------

    def outputs(self) -> List[np.ndarray]:
        return [self._vals[index] for _, index in self.output_ids]

    def loss_value(self) -> float:
        if self.loss_slot is None:
            raise CaptureError("plan has no loss slot")
        return float(self._vals[self.loss_slot])

    def release(self) -> None:
        """Return all plan-owned buffers to the arena (call when invalidating)."""
        self._arena.release_all(self._buffers)
        self._buffers = []
        self._gbuf.clear()
        self._gout.clear()
        self._slot_buffer = {}

    def stats(self) -> Dict[str, float]:
        return {
            "nodes": float(len(self.nodes)),
            "backward_nodes": float(len(self._bwd_nodes)),
            "slots": float(len(self.slots)),
            "managed_slots": float(len(self._slot_buffer)),
            "forward_buffers": float(len({id(b) for b in self._slot_buffer.values()})),
            "grad_buffers": float(len(self._gbuf)),
            "replays": float(self.replay_count),
            "native_nodes": float(self.native_nodes),
            "fallback_nodes": float(self.fallback_nodes),
            "quarantined_nodes": float(len(self.quarantined)),
        }


def compile_plan(capture: GraphCapture, arena: Optional[BufferArena] = None,
                 optimize: str = "O0", profile: bool = False,
                 backend: str = "numpy",
                 guard_numerics: bool = False) -> ExecutionPlan:
    """Build an :class:`ExecutionPlan` from a finished capture.

    ``optimize`` selects the plan-time graph-optimizer level (``"O0"`` —
    none, ``"O1"`` — training-safe fusion/specialization, ``"O2"`` — adds
    inference-only constant folding and schedule optimization; see
    :mod:`repro.runtime.optimizer`).  ``profile=True`` records per-kernel
    replay timings (``ExecutionPlan.kernel_seconds`` / ``kernel_calls``,
    rendered as a top-k table by
    :func:`repro.metrics.profiler.summarize_runtime`).

    ``backend`` selects the kernel backend (:mod:`repro.runtime.backends`):
    ``"numpy"`` (reference, default), ``"numba"`` (native per-node kernels
    with plan-time verification and per-node fallback) or ``"auto"`` (numba
    when installed).  Without numba both degrade to the reference;
    ``plan.backend`` reports what actually runs.
    """
    optimize_capture(capture, optimize)
    return ExecutionPlan(capture, arena or BufferArena(), profile=profile,
                         backend=backend, guard_numerics=guard_numerics)
