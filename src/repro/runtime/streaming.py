"""Persistent-membrane streaming execution for continuous event streams.

Fixed-``T`` serving treats every request as an independent window: state is
reset, ``T`` frames run, logits come back.  Event-camera workloads
(``examples/event_data_ncaltech.py``) are *streams* — frames keep arriving,
and the informative quantity is the network's running temporal state, not a
window boundary.  The inference LIF kernels already keep a rolling membrane
(:meth:`repro.snn.neurons._FusedLIFSequence.forward_inference`), so the only
missing piece is an entry point that carries that membrane *between* calls.

:class:`StreamingForward` is that entry point.  It executes chunks of a
``(T, N, C, H, W)`` stream through a model's fused no-grad forward while the
caller holds the temporal state as an explicit, detached
:class:`TemporalState` value:

* the state is *data*, not hidden module state — sessions can be suspended,
  migrated to another replica holding an identical snapshot (all fleet
  replicas are copies of one engine), or dropped, without touching
  the model;
* the model is left reset after every chunk, so interleaving streaming
  chunks with ordinary fixed-``T`` batch requests on the same engine is
  safe (the engine's lock provides the mutual exclusion);
* chunked execution is *equivalent* to the one-shot run: the fused LIF
  node seeds its recurrence from the carried membrane, and every
  :class:`~repro.nn.module.TimedModule` (TEBN, HTT layers, entangled
  supernet layers) resumes at the stream position ``timesteps_seen``, so
  the concatenated per-timestep logits of consecutive chunks match a single
  ``run_timesteps`` over the full sequence (asserted to 1e-6 in
  ``tests/test_fleet.py`` and the fleet benchmarks).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.nn.module import TimedModule
from repro.snn.functional import reset_model_state
from repro.snn.neurons import LIFNeuron

__all__ = ["TemporalState", "StreamingForward"]


class TemporalState:
    """Detached snapshot of a model's temporal state between stream chunks.

    ``membranes`` holds one entry per LIF layer (traversal order): ``None``
    before the first chunk, afterwards the post-reset membrane array carried
    into the next chunk.  ``timesteps_seen`` counts how many stream frames
    produced this state — the denominator for running-mean logits, and the
    timestep index every timed layer resumes at, since each one advances
    once per frame.
    """

    __slots__ = ("membranes", "timesteps_seen")

    def __init__(self, membranes: List[Optional[np.ndarray]], timesteps_seen: int = 0):
        self.membranes = membranes
        self.timesteps_seen = timesteps_seen

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        live = sum(1 for m in self.membranes if m is not None)
        return (f"TemporalState(lif_layers={len(self.membranes)}, live={live}, "
                f"timesteps_seen={self.timesteps_seen})")


class StreamingForward:
    """Run a model chunk-by-chunk with explicit, persistent temporal state.

    The caller is responsible for serialising calls per model instance (the
    serving engine wraps this behind its lock).  ``run_chunk`` installs the
    supplied state, executes the chunk through the fused no-grad forward
    (which uses the rolling-membrane LIF inference kernels), captures the
    updated state, and resets the model so no session state leaks into the
    next batch-path forward.
    """

    def __init__(self, model):
        self.model = model
        self._lifs = [m for m in model.modules() if isinstance(m, LIFNeuron)]
        self._timed = [m for m in model.modules() if isinstance(m, TimedModule)]

    # -- state management ---------------------------------------------------------

    def initial_state(self) -> TemporalState:
        """The state of a brand-new stream (no membrane, ``t = 0``)."""
        return TemporalState([None] * len(self._lifs), 0)

    def _install(self, state: TemporalState) -> None:
        if len(state.membranes) != len(self._lifs):
            raise ValueError(
                f"TemporalState shape mismatch: state has {len(state.membranes)} "
                f"membranes, model has {len(self._lifs)} LIF layers"
            )
        for lif, membrane in zip(self._lifs, state.membranes):
            lif.state.membrane = None if membrane is None else Tensor(membrane)
        for module in self._timed:
            module.time_index = state.timesteps_seen

    def _capture(self, state: TemporalState, chunk_steps: int) -> TemporalState:
        membranes = []
        for lif in self._lifs:
            held = lif.state.membrane
            membranes.append(None if held is None else np.array(held.data, copy=True))
        return TemporalState(membranes, state.timesteps_seen + chunk_steps)

    # -- execution ----------------------------------------------------------------

    def run_chunk(self, chunk: np.ndarray,
                  state: TemporalState) -> Tuple[np.ndarray, TemporalState]:
        """Advance the stream by one ``(T, N, C, H, W)`` chunk.

        Returns ``(logits_sum, new_state)`` where ``logits_sum`` is the
        ``(N, num_classes)`` sum of the chunk's per-timestep logits (the
        caller accumulates sums across chunks and divides by
        ``new_state.timesteps_seen`` for the running mean — identical
        arithmetic to the one-shot time-average), and ``new_state`` is the
        temporal state to pass into the next chunk.  The input ``state`` is
        not mutated.
        """
        chunk = np.asarray(chunk)
        if chunk.ndim != 5:
            raise ValueError(f"expected a (T, N, C, H, W) chunk, got shape {chunk.shape}")
        self._install(state)
        try:
            with no_grad():
                outputs = self.model.stream_timesteps(chunk, step_mode="fused")
            logits_sum = outputs[0].data.copy()
            for out in outputs[1:]:
                logits_sum += out.data
            new_state = self._capture(state, chunk.shape[0])
        finally:
            # Leave the model pristine: the next fixed-T batch forward (or
            # another session's chunk) must not observe this stream's state.
            reset_model_state(self.model)
        return logits_sum, new_state
