"""Compiled steps: capture once, replay on fresh inputs until the shape changes.

Two front-ends wrap :func:`~repro.runtime.planner.compile_plan`:

* :class:`CompiledTrainStep` — captures one full ``forward + loss + backward``
  training step (Algorithm 1's inner loop) and replays it per batch; leaf
  gradients land on ``Parameter.grad`` exactly as eager backward would, so
  the (eager, cheap) optimizer update composes unchanged.
* :class:`CompiledForward` — captures a no-grad forward (a module call or a
  model's ``run_timesteps``) for serving-style replay.

Both keep a plan cache keyed by the input *signature* (shape, dtype, train
mode, timesteps, step mode): a signature change transparently triggers a
fresh capture — shape-change invalidation — while replays for known
signatures never touch Python autograd or module dispatch again.

Models can extend the signature through an optional ``runtime_signature()``
method (duck-typed): its return value is appended to the plan key, so
architectural state invisible to the input shape — e.g. the sampled
(format, rank) configuration of an entangled supernet
(:mod:`repro.search.supernet`) — re-captures when it changes.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.runtime.arena import BufferArena
from repro.runtime.graph import CaptureError, GraphCapture
from repro.runtime.planner import compile_plan

__all__ = ["CompiledTrainStep", "CompiledForward", "check_backend"]


def check_backend(backend: str) -> None:
    """Reject every kernel backend name but ``"numpy"``.

    Plans replay the NumPy reference kernels only; the ``backend`` argument
    of the trainer, train-step and engine constructors survives so callers
    that spell the default out keep working.
    """
    if backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}; only 'numpy' is supported")


class _CompiledBase:
    """Shared plan cache + capture/replay accounting."""

    def __init__(self, arena: Optional[BufferArena] = None, optimize: str = "O0",
                 profile: bool = False, guard_numerics: bool = False):
        from repro.runtime.optimizer import OPT_LEVELS

        if optimize not in OPT_LEVELS:
            raise ValueError(f"optimize must be one of {OPT_LEVELS}, got {optimize!r}")
        self.arena = arena or BufferArena()
        self.optimize = optimize
        self.profile = bool(profile)
        #: Numeric guard policy: per-node non-finite detection during replay
        #: (typed :class:`~repro.resilience.errors.NumericFault`).
        self.guard_numerics = bool(guard_numerics)
        self._plans: Dict[tuple, tuple] = {}
        self.capture_count = 0
        self.capture_time_s = 0.0
        self.replay_count = 0
        self.replay_time_s = 0.0
        # Bounded window: long-running servers replay millions of times.
        self.replay_durations: "deque[float]" = deque(maxlen=1024)
        # Process-wide instruments (get-or-create: shared across runtimes).
        self._m_captures = _metrics.counter(
            "repro_runtime_captures_total", "Compiled-plan captures")
        self._m_replays = _metrics.counter(
            "repro_runtime_replays_total", "Compiled-plan replays")
        self._m_replay_seconds = _metrics.histogram(
            "repro_runtime_replay_seconds", "Replay wall-clock seconds")

    def _compile(self, capture: GraphCapture):
        return compile_plan(capture, self.arena, optimize=self.optimize,
                            profile=self.profile, guard_numerics=self.guard_numerics)

    def invalidate(self) -> None:
        """Drop every cached plan (buffers return to the arena free lists)."""
        for entry in self._plans.values():
            entry[0].release()
        self._plans.clear()

    @property
    def plan_count(self) -> int:
        return len(self._plans)

    def runtime_stats(self) -> Dict[str, object]:
        """Capture-vs-replay accounting plus arena and latest-plan statistics."""
        stats: Dict[str, object] = {
            "captures": self.capture_count,
            "capture_time_s": self.capture_time_s,
            "replays": self.replay_count,
            "replay_time_s": self.replay_time_s,
            "mean_capture_s": self.capture_time_s / max(1, self.capture_count),
            "mean_replay_s": self.replay_time_s / max(1, self.replay_count),
            "plans": len(self._plans),
            "optimize": self.optimize,
            "arena": self.arena.stats(),
        }
        if self._plans:
            last_plan = next(reversed(self._plans.values()))[0]
            stats["plan"] = last_plan.stats()
            if last_plan.optimizer_report is not None:
                stats["optimizer"] = last_plan.optimizer_report.as_dict()
        if self.profile:
            merged_seconds: Dict[str, float] = {}
            merged_calls: Dict[str, int] = {}
            for entry in self._plans.values():
                plan = entry[0]
                for label, seconds in plan.kernel_seconds.items():
                    merged_seconds[label] = merged_seconds.get(label, 0.0) + seconds
                    merged_calls[label] = (merged_calls.get(label, 0)
                                           + plan.kernel_calls[label])
            stats["kernels"] = {label: {"seconds": merged_seconds[label],
                                        "calls": merged_calls[label]}
                                for label in merged_seconds}
        return stats


class CompiledTrainStep(_CompiledBase):
    """Capture/replay engine for one BPTT training step.

    The first call with a given input signature runs the step *eagerly under
    the trace* (producing a plan) and finishes it with the planned backward;
    subsequent calls replay the plan on the new batch without building any
    autograd graph.  Integer labels enter the plan as a one-hot placeholder,
    so the loss must accept a one-hot :class:`Tensor` in place of the label
    vector (the built-in losses do).

    The optimizer stays eager: replays deposit gradients on ``param.grad``
    and the caller runs ``optimizer.step()`` as usual — parameter updates are
    picked up by the next replay because parameter slots re-read ``.data``.

    ``backend`` accepts only ``"numpy"`` (see :func:`check_backend`).
    """

    def __init__(self, model, loss_fn: Callable, step_mode: Optional[str] = None,
                 arena: Optional[BufferArena] = None, optimize: str = "O0",
                 profile: bool = False, backend: str = "numpy",
                 guard_numerics: bool = False):
        check_backend(backend)
        super().__init__(arena, optimize=optimize, profile=profile,
                         guard_numerics=guard_numerics)
        self.model = model
        self.loss_fn = loss_fn
        self.step_mode = step_mode

    def signature(self, batch: np.ndarray) -> tuple:
        mode = self.step_mode if self.step_mode is not None else self.model.step_mode
        base = (tuple(batch.shape), batch.dtype.str, bool(self.model.training),
                int(self.model.timesteps), mode)
        hook = getattr(self.model, "runtime_signature", None)
        if callable(hook):
            base = base + (hook(),)
        return base

    def run(self, batch: np.ndarray, labels: np.ndarray) -> Tuple[float, List[np.ndarray], bool]:
        """Execute one training step; returns ``(loss, per-timestep logits, replayed)``.

        ``replayed`` is ``False`` on capture steps (first occurrence of the
        input signature) and ``True`` afterwards.
        """
        batch = np.asarray(batch, dtype=np.float32)
        labels = np.asarray(labels)
        key = self.signature(batch)
        entry = self._plans.get(key)
        if entry is None:
            return self._capture(key, batch, labels)
        plan, num_classes = entry
        inputs = {
            "batch": batch,
            "labels_onehot": _one_hot(labels, num_classes),
        }
        tracer = get_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            with tracer.span("runtime.replay", kind="train",
                             optimize=self.optimize) as sp:
                if tracer.sample_kernels():
                    outputs, timings = plan.replay_profiled(inputs)
                    tracer.add_timed_children(sp, timings)
                else:
                    outputs = plan.replay(inputs)
        else:
            outputs = plan.replay(inputs)
        loss = plan.loss_value()
        elapsed = time.perf_counter() - start
        self.replay_count += 1
        self.replay_time_s += elapsed
        self.replay_durations.append(elapsed)
        self._m_replays.inc()
        self._m_replay_seconds.observe(elapsed)
        return loss, outputs, True

    def _capture(self, key: tuple, batch: np.ndarray,
                 labels: np.ndarray) -> Tuple[float, List[np.ndarray], bool]:
        mode = self.step_mode if self.step_mode is not None else self.model.step_mode
        start = time.perf_counter()
        with get_tracer().span("runtime.capture", kind="train"):
            with GraphCapture() as capture:
                batch_t = Tensor(batch)
                capture.placeholder(batch_t, "batch")
                # 4-D static images run direct-coded (their own plan key).
                run = self.model.run_images if batch.ndim == 4 else self.model.run_timesteps
                outputs = run(batch_t, step_mode=mode)
                num_classes = int(outputs[0].shape[-1])
                onehot_t = Tensor(_one_hot(labels, num_classes))
                capture.placeholder(onehot_t, "labels_onehot")
                loss = self.loss_fn(outputs, onehot_t)
                capture.mark_loss(loss)
                for index, out in enumerate(outputs):
                    capture.mark_output(out, f"logits_t{index}")
            plan = self._compile(capture)
            plan.backward_from_capture()
        self.capture_time_s += time.perf_counter() - start
        self.capture_count += 1
        self._m_captures.inc()
        self._plans[key] = (plan, num_classes)
        return float(loss.data), [out.data for out in outputs], False


class CompiledForward(_CompiledBase):
    """Capture/replay engine for a no-grad forward (inference hot path).

    ``fn`` maps one input :class:`Tensor` to a :class:`Tensor` or a sequence
    of tensors (e.g. per-timestep logits).  Plans are keyed by the input's
    shape/dtype plus the owner's train flag and timestep count, so shape
    changes re-capture automatically.  Accessible as ``module.compile()``.
    """

    def __init__(self, fn: Callable[[Tensor], Union[Tensor, Sequence[Tensor]]],
                 owner=None, arena: Optional[BufferArena] = None,
                 optimize: str = "O0", profile: bool = False,
                 guard_numerics: bool = False):
        super().__init__(arena, optimize=optimize, profile=profile,
                         guard_numerics=guard_numerics)
        self.fn = fn
        self.owner = owner

    def signature(self, array: np.ndarray) -> tuple:
        extras: tuple = ()
        if self.owner is not None:
            extras = (bool(getattr(self.owner, "training", False)),
                      getattr(self.owner, "timesteps", None))
            hook = getattr(self.owner, "runtime_signature", None)
            if callable(hook):
                extras = extras + (hook(),)
        return (tuple(array.shape), array.dtype.str) + extras

    def __call__(self, array: np.ndarray) -> Union[np.ndarray, List[np.ndarray]]:
        """Run the compiled forward; output arrays are valid until the next call."""
        array = np.asarray(array, dtype=np.float32)
        key = self.signature(array)
        entry = self._plans.get(key)
        if entry is None:
            return self._capture(key, array)
        plan, is_sequence = entry
        tracer = get_tracer()
        start = time.perf_counter()
        if tracer.enabled:
            with tracer.span("runtime.replay", kind="forward",
                             optimize=self.optimize) as sp:
                if tracer.sample_kernels():
                    outputs, timings = plan.replay_profiled({"input": array},
                                                            grads=False)
                    tracer.add_timed_children(sp, timings)
                else:
                    outputs = plan.replay({"input": array}, grads=False)
        else:
            outputs = plan.replay({"input": array}, grads=False)
        elapsed = time.perf_counter() - start
        self.replay_count += 1
        self.replay_time_s += elapsed
        self.replay_durations.append(elapsed)
        self._m_replays.inc()
        self._m_replay_seconds.observe(elapsed)
        return outputs if is_sequence else outputs[0]

    def _capture(self, key: tuple, array: np.ndarray):
        start = time.perf_counter()
        with get_tracer().span("runtime.capture", kind="forward"):
            with no_grad():
                with GraphCapture() as capture:
                    input_t = Tensor(array)
                    capture.placeholder(input_t, "input")
                    result = self.fn(input_t)
                    is_sequence = isinstance(result, (list, tuple))
                    tensors = list(result) if is_sequence else [result]
                    for index, out in enumerate(tensors):
                        if not isinstance(out, Tensor):
                            raise CaptureError(
                                f"compiled forward must return Tensors, got {type(out).__name__}"
                            )
                        capture.mark_output(out, f"out{index}")
            plan = self._compile(capture)
        self.capture_time_s += time.perf_counter() - start
        self.capture_count += 1
        self._m_captures.inc()
        self._plans[key] = (plan, is_sequence)
        arrays = [out.data for out in tensors]
        return arrays if is_sequence else arrays[0]


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out
