"""Serving snapshot of a trained spiking model (Algorithm 1, lines 19-22).

The paper's deployment story ends with the trained TT cores merged back into
dense kernels so that inference runs as an ordinary spike-driven CNN (Eq. 6).
:class:`InferenceEngine` packages exactly that state transition:

1. **snapshot** — deep-copy the model so serving never mutates (and is never
   mutated by) a live training loop;
2. **merge** — replace every STT / PTT / HTT module in the copy by its dense
   equivalent via :func:`repro.tt.reconstruct.snapshot_merged`;
3. **freeze** — force ``eval()`` mode (batch norms use running statistics)
   and drop leftover gradients;
4. **serve** — every request runs the fused ``(T, N, ...)`` engine from PR 1
   under ``no_grad`` as the *only* code path.

The engine accepts raw ``(N, C, H, W)`` images (direct-coded to the model's
timestep count), pre-encoded ``(T, N, C, H, W)`` sequences, or a single
``(C, H, W)`` sample, and returns time-averaged logits.  Because the spiking
state (LIF membranes, HTT counters) lives inside the model, a lock serialises
concurrent ``infer`` calls — throughput scaling comes from batching requests
(:class:`repro.serve.batcher.MicroBatcher`), not from re-entrancy.
"""

from __future__ import annotations

import copy
import threading
from typing import Optional, Tuple, Union

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.models.base import SpikingModel
from repro.obs.trace import get_tracer
from repro.snn.encoding import encode_batch

__all__ = ["InferenceEngine"]


class InferenceEngine:
    """An immutable, merged, eval-mode snapshot of a model, ready to serve.

    Parameters
    ----------
    model:
        A (possibly TT-decomposed) :class:`~repro.models.base.SpikingModel`.
    merge:
        Merge TT modules into dense kernels (Eq. 6).  Default ``True``; the
        merge is a no-op on models that are already dense.
    copy_model:
        Deep-copy ``model`` before merging so the caller's instance keeps
        training untouched.  Pass ``False`` to adopt the instance (it will be
        switched to ``eval()`` and merged in place).
    timesteps:
        Override the simulation length for serving (anytime inference: fewer
        timesteps trade accuracy for latency); defaults to the model's own
        ``timesteps``.  The snapshot model is re-timed to match, so this does
        not affect the source model.
    compile:
        Serve through the capture/replay runtime (:mod:`repro.runtime`):
        request batches are zero-padded up to the next power-of-two batch
        size and executed by a compiled no-grad forward plan cached per
        padded shape, so :class:`~repro.serve.batcher.MicroBatcher` bursts of
        any fill level hit a replayed plan instead of rebuilding the Python
        forward.  Padding is exact — eval-mode layers are per-sample
        independent, and the pad rows are sliced off before returning.
    optimize:
        Plan-time graph-optimizer level for the compiled path
        (:mod:`repro.runtime.optimizer`).  Defaults to ``"O2"`` when the
        engine owns its snapshot (``copy_model=True``): the inference-only
        folds (eval-BN into conv weights, TT pre-contraction per Eq. 6,
        frozen GEMM operands, memory-aware scheduling) bake the snapshot's
        parameters into the plans, which is safe because the engine never
        mutates it.  With ``copy_model=False`` the *caller's* instance is
        adopted and may keep training, so the default drops to ``"O1"``,
        whose plans re-read parameter tensors on every replay; pass
        ``optimize="O2"`` explicitly to accept baked weights (then
        ``invalidate()`` / re-capture after mutating them).
    profile:
        Record per-kernel replay timings for
        :func:`repro.metrics.profiler.summarize_runtime`'s hot-op table.
    backend:
        Kernel backend for the compiled path (:mod:`repro.runtime.backends`):
        ``"numpy"`` (reference, default), ``"numba"`` (native per-node
        kernels with per-node fallback) or ``"auto"`` (numba when installed,
        else the reference).  Ignored without ``compile=True``.
    dtype:
        Serving precision (``"float32"`` / ``"float64"``); the default keeps
        the snapshot's current precision.  The snapshot model is recast in
        place (safe under ``copy_model=True``) and request payloads are cast
        to match.
    guard_numerics:
        Numeric-guard policy (:mod:`repro.resilience`).  Compiled replays
        check every node output for NaN/Inf (quarantining a misbehaving
        native kernel to the reference path); the eager path checks the final
        logits.  Genuinely bad numerics raise a typed
        :class:`~repro.resilience.errors.NumericFault` instead of handing a
        caller NaN logits.
    """

    def __init__(
        self,
        model: SpikingModel,
        merge: bool = True,
        copy_model: bool = True,
        timesteps: Optional[int] = None,
        compile: bool = False,
        optimize: Optional[str] = None,
        profile: bool = False,
        backend: str = "numpy",
        dtype=None,
        guard_numerics: bool = False,
    ):
        if not isinstance(model, SpikingModel):
            raise TypeError(
                f"InferenceEngine serves SpikingModel instances, got {type(model).__name__}"
            )
        from repro.tt.reconstruct import merge_model, snapshot_merged

        if merge:
            if copy_model:
                model, merged = snapshot_merged(model)
            else:
                model.reset()
                merged = merge_model(model)
        else:
            if copy_model:
                model.reset()
                model = copy.deepcopy(model)
            merged = 0
        if timesteps is not None:
            if timesteps < 1:
                raise ValueError(f"timesteps must be >= 1, got {timesteps}")
            # Re-time the snapshot so run_timesteps simulates exactly this long.
            model.timesteps = int(timesteps)
        self.dtype = np.dtype(dtype) if dtype is not None else np.dtype(np.float32)
        if dtype is not None:
            model.astype(self.dtype)
        model.zero_grad()
        model.eval()
        model.step_mode = "fused"
        self.model = model
        self.merged_layers = merged
        self.timesteps = model.timesteps
        self._lock = threading.Lock()
        self._requests_served = 0
        self.compile = bool(compile)
        self.guard_numerics = bool(guard_numerics)
        self._compiled = None
        self._streaming = None
        self._pad_buffers = {}
        if optimize is None:
            # Baked-parameter folds are only safe on an engine-owned
            # snapshot; an adopted instance may keep training.
            optimize = "O2" if copy_model else "O1"
        if self.compile:
            from repro.runtime.replay import CompiledForward

            self._compiled = CompiledForward(
                lambda batch_t: self.model.run_timesteps(batch_t, step_mode="fused"),
                owner=self.model,
                optimize=optimize,
                profile=profile,
                backend=backend,
                dtype=dtype,
                guard_numerics=guard_numerics,
            )

    # -- properties --------------------------------------------------------------

    @property
    def requests_served(self) -> int:
        """Total number of samples that went through :meth:`infer`."""
        return self._requests_served

    # -- execution ---------------------------------------------------------------

    def _shape_batch(self, inputs: Union[np.ndarray, Tensor]) -> Tuple[np.ndarray, bool]:
        """Normalise a request payload to ``(N, C, H, W)`` or ``(T, N, C, H, W)``.

        Returns the array plus a flag marking a single ``(C, H, W)`` sample
        (so the caller can squeeze the batch axis back out).
        """
        if isinstance(inputs, Tensor):
            inputs = inputs.data
        data = np.asarray(inputs, dtype=self.dtype)
        if data.ndim == 3:
            return data[None], True
        if data.ndim in (4, 5):
            return data, False
        raise ValueError(
            f"expected (C,H,W), (N,C,H,W) or (T,N,C,H,W) input, got shape {data.shape}"
        )

    def infer(self, inputs: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Time-averaged logits for a request batch, shape ``(N, num_classes)``.

        A single ``(C, H, W)`` sample returns ``(num_classes,)`` logits.
        """
        data, single = self._shape_batch(inputs)
        with get_tracer().span("engine.infer", compiled=self.compile) as sp:
            batch = encode_batch(data, self.timesteps)
            if batch.dtype != self.dtype:
                # The encoders emit float32; recast for float64 serving policies.
                batch = batch.astype(self.dtype)
            sp.set_attr("batch_size", int(batch.shape[1]))
            with self._lock:
                if self._compiled is not None:
                    logits = self._infer_compiled(batch)
                else:
                    with no_grad():
                        outputs = self.model.run_timesteps(batch, step_mode="fused")
                        logits = sum(o.data for o in outputs) / len(outputs)
                    if self.guard_numerics and not np.isfinite(logits).all():
                        from repro.resilience.errors import NumericFault

                        raise NumericFault("engine.logits", -1, False,
                                           detail="non-finite serving logits")
                self._requests_served += logits.shape[0]
        return logits[0] if single else logits

    def _infer_compiled(self, batch: np.ndarray) -> np.ndarray:
        """Replay the compiled forward plan for the padded batch size."""
        n = batch.shape[1]
        n_padded = 1 << max(0, n - 1).bit_length() if n > 1 else 1
        if n_padded != n:
            # One persistent buffer per padded shape (serialised by the engine
            # lock): the hot path stays allocation-free, only the pad rows are
            # re-zeroed in case a previous larger request left samples there.
            shape = batch.shape[:1] + (n_padded,) + batch.shape[2:]
            # Keyed by dtype as well: a float32 request must never write
            # into a float64 pad buffer captured for the same shapes.
            key = (shape, batch.dtype.str)
            padded = self._pad_buffers.get(key)
            if padded is None:
                padded = self._pad_buffers[key] = np.zeros(shape, dtype=batch.dtype)
            padded[:, :n] = batch
            padded[:, n:] = 0.0
            batch = padded
        outputs = self._compiled(batch)
        # The mean allocates a fresh array, so the returned logits stay valid
        # after the plan buffers are overwritten by the next replay.
        logits = sum(outputs) / len(outputs)
        return logits[:n] if n_padded != n else logits

    # -- streaming ----------------------------------------------------------------

    def stream_state(self):
        """Fresh :class:`~repro.runtime.streaming.TemporalState` for a new stream."""
        return self._streaming_forward().initial_state()

    def infer_stream(self, chunk: Union[np.ndarray, Tensor], state):
        """Advance a persistent-membrane stream by one chunk of event frames.

        ``chunk`` is ``(T, C, H, W)`` (a single stream — the common session
        shape) or ``(T, N, C, H, W)``; frames are consumed as-is, *without*
        direct-coding, because a stream's timesteps genuinely differ.
        ``state`` is a :class:`~repro.runtime.streaming.TemporalState` from
        :meth:`stream_state` or a previous ``infer_stream`` call.

        Returns ``(logits_sum, new_state)``: the sum of the chunk's
        per-timestep logits (``(num_classes,)`` for a single stream,
        ``(N, num_classes)`` otherwise) and the carried state.  Accumulating
        the sums and dividing by ``new_state.timesteps_seen`` yields exactly
        the time-averaged logits the one-shot fixed-``T`` forward computes —
        chunk boundaries are invisible to the LIF recurrence.
        """
        if isinstance(chunk, Tensor):
            chunk = chunk.data
        data = np.asarray(chunk, dtype=self.dtype)
        single = data.ndim == 4
        if single:
            data = data[:, None]
        if data.ndim != 5:
            raise ValueError(
                f"expected a (T, C, H, W) or (T, N, C, H, W) chunk, got shape {chunk.shape}"
            )
        with get_tracer().span("engine.infer_stream", timesteps=int(data.shape[0])):
            with self._lock:
                streaming = self._streaming_forward()
                logits_sum, new_state = streaming.run_chunk(data, state)
                self._requests_served += logits_sum.shape[0]
        return (logits_sum[0] if single else logits_sum), new_state

    def _streaming_forward(self):
        """Lazily-built persistent-membrane executor over the snapshot model."""
        if self._streaming is None:
            from repro.runtime.streaming import StreamingForward

            self._streaming = StreamingForward(self.model)
        return self._streaming

    def runtime_stats(self) -> Optional[dict]:
        """Capture-vs-replay accounting of the compiled path (``None`` if eager)."""
        if self._compiled is None:
            return None
        return self._compiled.runtime_stats()

    __call__ = infer

    def predict(self, inputs: Union[np.ndarray, Tensor]) -> np.ndarray:
        """Class predictions (argmax of the time-averaged logits)."""
        logits = self.infer(inputs)
        return np.argmax(logits, axis=-1)

    def warmup(self, sample: Optional[np.ndarray] = None,
               input_shape: Optional[Tuple[int, int, int]] = None) -> None:
        """Run one throw-away inference to populate caches / im2col buffers.

        Provide either a representative ``sample`` (any accepted shape) or an
        ``input_shape`` ``(C, H, W)`` from which a zero sample is built.
        """
        if sample is None:
            if input_shape is None:
                raise ValueError("warmup needs a sample or an input_shape (C, H, W)")
            sample = np.zeros(input_shape, dtype=np.float32)
        with get_tracer().span("engine.warmup",
                               model=self.model.__class__.__name__):
            self.infer(sample)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceEngine(model={self.model.__class__.__name__}, "
                f"timesteps={self.timesteps}, merged_layers={self.merged_layers})")
