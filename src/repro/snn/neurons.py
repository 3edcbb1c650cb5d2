"""Leaky-Integrate-and-Fire neurons with surrogate-gradient spike functions.

The paper uses the iterative LIF model of Wu et al. (STBP), Eq. (1):

.. math::

    u^{l,t}_i = \\tau_m\\, u^{l,t-1}_i (1 - s^{l,t-1}_i) + \\sum_j w_{ij} x^{l-1,t}_j,
    \\qquad s^{l,t}_i = H(u^{l,t}_i - V_{th})

with a hard reset to zero after a spike, leak factor ``tau_m = 0.25`` and
threshold ``V_th = 0.5`` (the paper's settings).  The Heaviside function is
non-differentiable, so backpropagation-through-time uses a *surrogate
gradient*: the backward pass replaces ``dH/du`` with a smooth window around
the threshold.  Three standard surrogates are provided; the rectangular
window (STBP's choice) is the default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.autograd.tensor import Function, Tensor, as_tensor, is_grad_enabled, record_op
from repro.nn.module import StatefulModule

__all__ = [
    "SurrogateRectangular",
    "SurrogateArctan",
    "SurrogateSigmoid",
    "spike_function",
    "lif_sequence",
    "LIFState",
    "LIFNeuron",
]


class _SurrogateSpike(Function):
    """Heaviside forward / surrogate-derivative backward.

    ``forward`` receives the membrane potential minus threshold and emits a
    binary spike map.  ``backward`` multiplies the upstream gradient by the
    chosen surrogate derivative evaluated at the same pre-activation.
    """

    def __init__(self, surrogate: "SurrogateBase"):
        self.surrogate = surrogate
        self._pre: Optional[np.ndarray] = None

    def forward(self, pre_activation: np.ndarray) -> np.ndarray:
        self._pre = pre_activation
        return (pre_activation >= 0.0).astype(pre_activation.dtype)

    def backward(self, grad_output: np.ndarray):
        return (grad_output * self.surrogate.derivative(self._pre),)


class SurrogateBase:
    """Interface for surrogate gradient shapes."""

    name = "base"

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError


class SurrogateRectangular(SurrogateBase):
    """Rectangular window surrogate (STBP): ``1/width`` inside ``|u - V_th| < width/2``."""

    name = "rectangular"

    def __init__(self, width: float = 1.0):
        if width <= 0:
            raise ValueError(f"surrogate width must be positive, got {width}")
        self.width = width

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        window = np.abs(pre_activation)
        np.less(window, self.width / 2.0, out=window)
        if self.width != 1.0:
            window /= self.width
        return window


class SurrogateArctan(SurrogateBase):
    """Arctan surrogate: ``alpha / (2 * (1 + (pi/2 * alpha * u)^2))``."""

    name = "arctan"

    def __init__(self, alpha: float = 2.0):
        self.alpha = alpha

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        scaled = (math.pi / 2.0) * self.alpha * pre_activation
        return (self.alpha / 2.0) / (1.0 + scaled * scaled)


class SurrogateSigmoid(SurrogateBase):
    """Sigmoid surrogate: derivative of a steep logistic centred at threshold."""

    name = "sigmoid"

    def __init__(self, slope: float = 4.0):
        self.slope = slope

    def derivative(self, pre_activation: np.ndarray) -> np.ndarray:
        sig = 1.0 / (1.0 + np.exp(-self.slope * pre_activation))
        return self.slope * sig * (1.0 - sig)


_SURROGATES = {
    "rectangular": SurrogateRectangular,
    "arctan": SurrogateArctan,
    "sigmoid": SurrogateSigmoid,
}


def spike_function(pre_activation: Tensor, surrogate: Optional[SurrogateBase] = None) -> Tensor:
    """Emit binary spikes from ``membrane - threshold`` with a surrogate gradient."""
    surrogate = surrogate or SurrogateRectangular()
    return _SurrogateSpike.apply(as_tensor(pre_activation), surrogate=surrogate)


class _FusedLIFSequence(Function):
    """The full ``T``-step LIF recurrence as ONE autograd node.

    Consumes the whole pre-activation sequence ``(T, N, ...)`` and emits the
    spike sequence of the same shape.  The forward pass iterates the membrane
    update on raw ndarrays (no per-step graph nodes); the backward pass
    implements the surrogate-gradient BPTT recurrence explicitly:

    .. math::

        \\frac{\\partial L}{\\partial m_t} =
            \\frac{\\partial L}{\\partial s_t}\\, g_t
            + \\frac{\\partial L}{\\partial p_t}\\, \\frac{\\partial p_t}{\\partial m_t},
        \\qquad
        \\frac{\\partial L}{\\partial p_{t-1}} = \\tau_m \\frac{\\partial L}{\\partial m_t}

    where ``m_t`` is the pre-reset membrane, ``s_t`` the spike, ``p_t`` the
    post-reset membrane and ``g_t`` the surrogate derivative at
    ``m_t - V_th``.  This produces gradients identical to backpropagating
    through the ``T`` per-step tape nodes of the single-step path.
    """

    def __init__(
        self,
        tau_m: float,
        v_threshold: float,
        surrogate: "SurrogateBase",
        hard_reset: bool,
        detach_reset: bool,
        initial_membrane: Optional[np.ndarray] = None,
    ):
        self.tau_m = tau_m
        self.v_threshold = v_threshold
        self.surrogate = surrogate
        self.hard_reset = hard_reset
        self.detach_reset = detach_reset
        self.initial_membrane = initial_membrane
        self._membranes: Optional[np.ndarray] = None   # pre-reset m_t, (T, N, ...)
        self._spikes: Optional[np.ndarray] = None
        self.final_membrane: Optional[np.ndarray] = None

    def forward(self, currents: np.ndarray) -> np.ndarray:
        return self._recurrence(currents, keep_history=True)

    def forward_inference(self, currents: np.ndarray) -> np.ndarray:
        """Forward without BPTT bookkeeping (compiled no-grad replay path).

        Emits bitwise-identical spikes to :meth:`forward` but keeps only a
        rolling membrane instead of the full ``(T, ...)`` history, so
        forward-only plans allocate one output and three frame-sized
        scratches per call.
        """
        return self._recurrence(currents, keep_history=False)

    def _recurrence(self, currents: np.ndarray, keep_history: bool) -> np.ndarray:
        """The membrane recurrence; ``keep_history`` saves what backward needs."""
        frame = currents.shape[1:]
        if keep_history:
            membranes = np.empty(currents.shape, currents.dtype)
        else:
            membrane = np.empty(frame, currents.dtype)
        spikes = np.empty(currents.shape, currents.dtype)
        post = np.empty(frame, currents.dtype)
        scratch = np.empty(frame, currents.dtype)
        np.copyto(post, 0.0 if self.initial_membrane is None else self.initial_membrane)
        for t in range(currents.shape[0]):
            if keep_history:
                membrane = membranes[t]
            np.multiply(post, self.tau_m, out=membrane)
            membrane += currents[t]
            spike = spikes[t]
            np.greater_equal(membrane, self.v_threshold, out=spike, casting="unsafe")
            if self.hard_reset:
                np.subtract(1.0, spike, out=scratch)
                np.multiply(membrane, scratch, out=post)
            else:
                np.multiply(spike, self.v_threshold, out=scratch)
                np.subtract(membrane, scratch, out=post)
        if keep_history:
            self._membranes = membranes
            self._spikes = spikes
        self.final_membrane = post
        return spikes

    def backward(self, grad_output: np.ndarray):
        membranes = self._membranes
        spikes = self._spikes
        timesteps = grad_output.shape[0]
        # The surrogate derivative of the whole membrane history in one call.
        surrogate_grad = self.surrogate.derivative(membranes - self.v_threshold)
        scratch = np.empty(grad_output.shape[1:], grad_output.dtype)
        if self.detach_reset:
            # dL/dm_t = dL/ds_t * g_t + tau * keep_t * dL/dm_{t+1}, where
            # keep_t = 1 - s_t (hard reset) or 1 (soft reset).  tau * keep_t
            # is exactly tau or 0, so each step is two ufuncs with the
            # rounding of the per-step form.
            grad_input = np.multiply(grad_output, surrogate_grad)
            # The per-step form adds a zero carry to the last step, which
            # turns -0.0 into +0.0; keep its bits.
            grad_input[-1] += 0.0
            if self.hard_reset:
                decay = surrogate_grad
                np.subtract(1.0, spikes, out=decay)
                decay *= self.tau_m
            for t in range(timesteps - 2, -1, -1):
                if self.hard_reset:
                    np.multiply(decay[t], grad_input[t + 1], out=scratch)
                else:
                    np.multiply(grad_input[t + 1], self.tau_m, out=scratch)
                grad_input[t] += scratch
            return (grad_input,)
        grad_input = np.empty(grad_output.shape, grad_output.dtype)
        grad_post = np.zeros(grad_output.shape[1:], grad_output.dtype)  # dL/dp_t from t+1
        for t in range(timesteps - 1, -1, -1):
            membrane = membranes[t]
            grad_spike = grad_output[t]
            if self.hard_reset:
                grad_spike = grad_spike - grad_post * membrane
            else:
                grad_spike = grad_spike - grad_post * self.v_threshold
            grad_membrane = grad_input[t]
            np.multiply(grad_spike, surrogate_grad[t], out=grad_membrane)
            if self.hard_reset:
                np.subtract(1.0, spikes[t], out=scratch)
                scratch *= grad_post
                grad_membrane += scratch
            else:
                grad_membrane += grad_post
            np.multiply(grad_membrane, self.tau_m, out=grad_post)
        return (grad_input,)


def lif_sequence(
    currents: Tensor,
    tau_m: float = 0.25,
    v_threshold: float = 0.5,
    surrogate: Optional[SurrogateBase] = None,
    hard_reset: bool = True,
    detach_reset: bool = True,
    initial_membrane: Optional[np.ndarray] = None,
) -> Tensor:
    """Functional fused LIF: ``(T, N, ...)`` currents -> ``(T, N, ...)`` spikes."""
    surrogate = surrogate or SurrogateRectangular()
    return _FusedLIFSequence.apply(
        as_tensor(currents), tau_m=tau_m, v_threshold=v_threshold, surrogate=surrogate,
        hard_reset=hard_reset, detach_reset=detach_reset, initial_membrane=initial_membrane,
    )


@dataclass
class LIFState:
    """Membrane state carried between timesteps of one LIF layer."""

    membrane: Optional[Tensor] = None

    def reset(self) -> None:
        self.membrane = None


class LIFNeuron(StatefulModule):
    """Iterative LIF neuron layer (Eq. 1 of the paper).

    Parameters
    ----------
    tau_m:
        Membrane leak factor in ``(0, 1]``; the paper uses 0.25.
    v_threshold:
        Firing threshold; the paper uses 0.5.
    surrogate:
        Name of the surrogate gradient (``"rectangular"``, ``"arctan"`` or
        ``"sigmoid"``) or a :class:`SurrogateBase` instance.
    hard_reset:
        When ``True`` (paper setting) the membrane is reset to zero after a
        spike; otherwise the threshold is subtracted (soft reset).
    detach_reset:
        Detach the reset term from the graph (common BPTT stabilisation).

    The layer is *stateful*: call :meth:`reset_state` (or
    :func:`repro.snn.functional.reset_model_state`) before each new input
    sequence.
    """

    def __init__(
        self,
        tau_m: float = 0.25,
        v_threshold: float = 0.5,
        surrogate="rectangular",
        hard_reset: bool = True,
        detach_reset: bool = True,
    ):
        super().__init__()
        if not 0.0 < tau_m <= 1.0:
            raise ValueError(f"tau_m must lie in (0, 1], got {tau_m}")
        if v_threshold <= 0:
            raise ValueError(f"v_threshold must be positive, got {v_threshold}")
        self.tau_m = tau_m
        self.v_threshold = v_threshold
        if isinstance(surrogate, str):
            if surrogate not in _SURROGATES:
                raise ValueError(f"unknown surrogate '{surrogate}'; options: {sorted(_SURROGATES)}")
            surrogate = _SURROGATES[surrogate]()
        self.surrogate: SurrogateBase = surrogate
        self.hard_reset = hard_reset
        self.detach_reset = detach_reset
        self.state = LIFState()

    def reset_state(self) -> None:
        """Forget the membrane potential (call between input sequences)."""
        self.state.reset()

    def forward(self, current: Tensor) -> Tensor:
        """Integrate one timestep of input current and emit spikes."""
        current = as_tensor(current)
        if self.state.membrane is None:
            membrane = current
        else:
            prev = self.state.membrane
            membrane = prev * self.tau_m + current
        spikes = spike_function(membrane - self.v_threshold, self.surrogate)

        reset_signal = spikes.detach() if self.detach_reset else spikes
        if self.hard_reset:
            next_membrane = membrane * (1.0 - reset_signal)
        else:
            next_membrane = membrane - reset_signal * self.v_threshold
        self.state.membrane = next_membrane
        return spikes

    def forward_sequence(self, currents: Tensor) -> Tensor:
        """Integrate a whole ``(T, N, ...)`` pre-activation sequence at once.

        Implements the same recurrence (and the same surrogate-gradient BPTT)
        as ``T`` successive :meth:`forward` calls, but as a single fused
        autograd node — the hot path of the ``"fused"`` step mode.  Any
        membrane potential carried over from a previous call enters the
        recurrence as a constant (the graph does not extend across
        ``forward_sequence`` calls); call :meth:`reset_state` between input
        sequences exactly as with the single-step path.
        """
        currents = as_tensor(currents)
        initial = None
        if self.state.membrane is not None:
            initial = self.state.membrane.data
        lif_kwargs = dict(
            tau_m=self.tau_m, v_threshold=self.v_threshold, surrogate=self.surrogate,
            hard_reset=self.hard_reset, detach_reset=self.detach_reset,
            initial_membrane=initial,
        )
        ctx = _FusedLIFSequence(**lif_kwargs)
        if is_grad_enabled():
            out_data = ctx.forward(currents.data)

            def backward(grad: np.ndarray) -> None:
                (grad_input,) = ctx.backward(np.asarray(grad))
                if currents.requires_grad or currents._prev:
                    currents._accumulate_grad(grad_input)

            spikes = Tensor._make(out_data, (currents,), backward)
        else:
            # Inference (no_grad) runs the rolling-membrane kernel: bitwise
            # the same spikes, but only one frame of membrane state instead
            # of the full (T, ...) history — the streaming/serving hot path.
            # Compiled-forward captures happen under no_grad too; the
            # recorded node replays through the same forward_inference.
            out_data = ctx.forward_inference(currents.data)
            spikes = Tensor(out_data)
        # Same record shape as Function.apply: a replay re-instantiates a
        # fresh context with these kwargs and re-runs the fused recurrence.
        record_op("fn", (currents,), spikes,
                  {"cls": _FusedLIFSequence, "kwargs": lif_kwargs}, saved=ctx)
        # Expose the final membrane for observability (detached, like the data
        # any caller would read after the sequence).
        self.state.membrane = Tensor(ctx.final_membrane)
        return spikes

    @property
    def membrane_potential(self) -> Optional[Tensor]:
        """Current membrane potential (``None`` before the first timestep)."""
        return self.state.membrane

    def extra_repr(self) -> str:
        return (
            f"tau_m={self.tau_m}, v_threshold={self.v_threshold}, "
            f"surrogate={self.surrogate.name}, hard_reset={self.hard_reset}"
        )
