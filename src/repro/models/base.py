"""Base class shared by every spiking model in the zoo.

A spiking model processes *one timestep at a time*: ``forward(x_t)`` maps a
``(N, C, H, W)`` input for timestep ``t`` to ``(N, num_classes)`` logits,
relying on the stateful LIF layers to carry membrane potentials between
calls.  :meth:`SpikingModel.run_timesteps` wraps the timestep loop (resetting
all state first) and returns the list of per-timestep logits, which is what
the loss functions in :mod:`repro.snn.loss` consume.

Two execution engines ("step modes") are available:

* ``"single"`` — the reference engine: the whole network is replayed once per
  timestep through a Python loop, rebuilding im2col buffers and the autograd
  tape ``T`` times.
* ``"fused"`` — the default engine: layer-by-layer propagation.  Each layer
  consumes the whole ``(T, N, ...)`` sequence before the next layer runs;
  stateless layers (conv/linear/pool/norm) fold the time axis into the batch
  axis and execute once, and the LIF recurrence runs as one fused BPTT
  autograd node (:meth:`repro.snn.neurons.LIFNeuron.forward_sequence`).

Both engines produce the same logits and parameter gradients (to float32
rounding); ``tests/test_step_modes.py`` asserts the equivalence at ``1e-5``.

Static images enter through :meth:`SpikingModel.run_images` instead: direct
coding feeds the same ``(N, C, H, W)`` image at every timestep, so the fused
engine runs the time-invariant stem (convolution and batch norm) once on
``N`` images and copies its output to ``T`` timesteps right before the first
time-dependent layer.  :meth:`SpikingModel.run_batch` dispatches on the
input's rank.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

from repro.autograd.tensor import Tensor, as_tensor
from repro.nn.module import Module, repeat_time
from repro.snn.functional import reset_model_state

__all__ = ["SpikingModel", "STEP_MODES"]

#: Valid execution engines for :meth:`SpikingModel.run_timesteps`.
STEP_MODES = ("single", "fused")


class SpikingModel(Module):
    """Common timestep-loop behaviour for spiking networks."""

    def __init__(self, timesteps: int, step_mode: str = "fused"):
        super().__init__()
        if timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {timesteps}")
        self.timesteps = timesteps
        self.step_mode = step_mode

    # -- step mode ---------------------------------------------------------------

    @property
    def step_mode(self) -> str:
        """Execution engine used by :meth:`run_timesteps` (``"single"`` / ``"fused"``)."""
        return self._step_mode

    @step_mode.setter
    def step_mode(self, mode: str) -> None:
        if mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {mode!r}")
        object.__setattr__(self, "_step_mode", mode)

    def set_step_mode(self, mode: str) -> "SpikingModel":
        """Select the execution engine; returns ``self`` for chaining."""
        self.step_mode = mode
        return self

    # -- state -------------------------------------------------------------------

    def reset(self) -> None:
        """Reset all membrane potentials and temporal counters."""
        reset_model_state(self)

    # -- execution ---------------------------------------------------------------

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Map a ``(T, N, C, H, W)`` sequence to ``(T, N, num_classes)`` logits.

        The zoo models override this with true layer-by-layer propagation;
        this fallback replays :meth:`forward` per timestep so that any
        subclass works in fused mode (at single-mode speed).
        """
        timesteps = x_seq.shape[0]
        return Tensor.stack([self.forward(x_seq[t]) for t in range(timesteps)], axis=0)

    def forward_images(self, images: Tensor, timesteps: int) -> Tensor:
        """Map static ``(N, C, H, W)`` images to ``(T, N, num_classes)`` logits.

        The fused direct-coded forward.  The zoo models override it to run
        their stem once on ``N`` images (:func:`repro.models.blocks.direct_coded_stem`);
        this fallback copies the images to ``T`` timesteps and runs
        :meth:`forward_sequence`.
        """
        return self.forward_sequence(repeat_time(images.reshape((1,) + images.shape), timesteps))

    def run_timesteps(
        self,
        inputs: Union[np.ndarray, Tensor],
        step_mode: Optional[str] = None,
    ) -> List[Tensor]:
        """Run the full simulation over a ``(T, N, C, H, W)`` input sequence.

        Static-image datasets pass the output of
        :class:`~repro.snn.encoding.DirectEncoder` (the same image repeated
        ``T`` times); event datasets pass genuinely different frames per
        timestep.  Returns one ``(N, num_classes)`` logits tensor per
        timestep.

        ``step_mode`` overrides the model's configured engine for this call.
        """
        tensor_in = isinstance(inputs, Tensor)
        data = inputs.data if tensor_in else np.asarray(inputs, dtype=np.float32)
        if data.ndim != 5:
            raise ValueError(f"expected (T, N, C, H, W) input, got shape {data.shape}")
        if data.shape[0] < self.timesteps:
            raise ValueError(
                f"input provides {data.shape[0]} timesteps but the model needs {self.timesteps}"
            )
        self.reset()
        # A Tensor input stays in the graph (sliced via traced getitem ops), so
        # the compiled runtime can capture the step against a replayable
        # placeholder; plain ndarrays keep the detached fast path.
        sequence = inputs if tensor_in else data
        if data.shape[0] > self.timesteps:
            sequence = sequence[: self.timesteps]
        return self.stream_timesteps(sequence, step_mode=step_mode)

    def run_images(
        self,
        images: Union[np.ndarray, Tensor],
        step_mode: Optional[str] = None,
    ) -> List[Tensor]:
        """Direct-coded simulation of static ``(N, C, H, W)`` images.

        The same image is the input at each of the model's ``timesteps``
        steps, so the result equals :meth:`run_timesteps` on the
        :class:`~repro.snn.encoding.DirectEncoder` output: the logits and the
        batch-norm running buffers bitwise, the gradients to float rounding
        (the stem's gradients are summed over time in a different order).
        In fused mode the stem convolution and its batch norm run once, on
        ``N`` images instead of ``T * N``; the single-step engine feeds the
        image at each step.  Returns one ``(N, num_classes)`` logits tensor
        per timestep.
        """
        mode = step_mode if step_mode is not None else self.step_mode
        if mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {mode!r}")
        image_t = as_tensor(images)
        if image_t.ndim != 4:
            raise ValueError(f"expected (N, C, H, W) images, got shape {image_t.shape}")
        self.reset()
        if mode == "fused":
            logits_seq = self.forward_images(image_t, self.timesteps)
            return [logits_seq[t] for t in range(self.timesteps)]
        return [self.forward(image_t) for _ in range(self.timesteps)]

    def run_batch(
        self,
        inputs: Union[np.ndarray, Tensor],
        step_mode: Optional[str] = None,
    ) -> List[Tensor]:
        """:meth:`run_images` for 4-D static images, :meth:`run_timesteps` for 5-D sequences.

        :func:`repro.snn.encoding.prepare_batch` decides which of the two a
        batch becomes.
        """
        ndim = inputs.ndim if isinstance(inputs, Tensor) else np.ndim(inputs)
        if ndim == 4:
            return self.run_images(inputs, step_mode=step_mode)
        return self.run_timesteps(inputs, step_mode=step_mode)

    def stream_timesteps(
        self,
        inputs: Union[np.ndarray, Tensor],
        step_mode: Optional[str] = None,
    ) -> List[Tensor]:
        """Run one *chunk* of an ongoing stream WITHOUT resetting state.

        The streaming counterpart of :meth:`run_timesteps`: membrane
        potentials and temporal counters carry over from the previous call,
        and the simulation runs for exactly the chunk's length (the leading
        axis) instead of the model's configured ``timesteps``.  Feeding a
        ``T``-step sequence in consecutive chunks therefore reproduces the
        per-timestep logits of one ``run_timesteps`` call over the whole
        sequence — the LIF recurrence is chunk-oblivious because each fused
        node seeds itself from the carried membrane
        (:meth:`repro.snn.neurons.LIFNeuron.forward_sequence`).  Call
        :meth:`reset` (or :meth:`run_timesteps`, which resets) to start a
        new stream.
        """
        mode = step_mode if step_mode is not None else self.step_mode
        if mode not in STEP_MODES:
            raise ValueError(f"step_mode must be one of {STEP_MODES}, got {mode!r}")
        tensor_in = inputs if isinstance(inputs, Tensor) else None
        data = tensor_in.data if tensor_in is not None else np.asarray(inputs, dtype=np.float32)
        if data.ndim != 5:
            raise ValueError(f"expected (T, N, C, H, W) chunk, got shape {data.shape}")
        if data.shape[0] < 1:
            raise ValueError("streaming chunk must provide at least one timestep")
        chunk_steps = data.shape[0]
        if mode == "fused":
            sequence = tensor_in if tensor_in is not None else as_tensor(data)
            logits_seq = self.forward_sequence(sequence)
            return [logits_seq[t] for t in range(chunk_steps)]
        outputs: List[Tensor] = []
        for t in range(chunk_steps):
            frame = tensor_in[t] if tensor_in is not None else as_tensor(data[t])
            outputs.append(self.forward(frame))
        return outputs

    def predict(self, inputs: Union[np.ndarray, Tensor],
                step_mode: Optional[str] = None) -> np.ndarray:
        """Class predictions from time-averaged logits (no gradient tracking).

        ``inputs`` is a ``(T, N, C, H, W)`` sequence or ``(N, C, H, W)``
        static images (see :meth:`run_batch`).

        Prediction always runs in ``eval()`` mode — batch norms use their
        running statistics instead of (and without updating) batch
        statistics — and the previous ``training`` flag is restored
        afterwards, so calling ``predict`` mid-training is side-effect free.
        """
        from repro.autograd.tensor import no_grad

        was_training = self.training
        self.eval()
        try:
            with no_grad():
                outputs = self.run_batch(inputs, step_mode=step_mode)
                mean_logits = sum(o.data for o in outputs) / len(outputs)
        finally:
            if was_training:
                self.train()
        return np.argmax(mean_logits, axis=1)
