"""Spiking-specific normalisation layers: tdBN and TEBN.

These are needed to reproduce Table III (plug-in compatibility of the PTT
module with prior SNN training methods):

* **tdBN** (threshold-dependent batch norm, Zheng et al., AAAI 2021)
  normalises activations jointly over the batch *and* time dimensions and
  rescales them by ``alpha * V_th`` so that pre-activations match the firing
  threshold statistics of deep residual SNNs.
* **TEBN** (temporal effective batch norm, Duan et al., NeurIPS 2022)
  additionally learns one scaling factor per timestep, letting the effective
  learning rate differ across timesteps.

tdBN is a :class:`~repro.nn.layers.BatchNorm2d` whose gain is scaled by
``alpha * V_th``.  TEBN is a :class:`~repro.nn.module.TimedModule`: the
shared timestep counter of that base class picks the gain of the current
timestep, in the per-step loop, the fused sequence path and streaming alike.
Running statistics are shared across timesteps exactly as in the reference
implementations.
"""

from __future__ import annotations

from repro.autograd.tensor import Tensor
from repro.nn import init
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Parameter, TimedModule

__all__ = ["TDBatchNorm2d", "TEBatchNorm2d"]


class TDBatchNorm2d(BatchNorm2d):
    """Threshold-dependent batch normalisation (tdBN).

    Normalised activations are scaled by ``alpha * v_threshold * gamma`` so
    that the membrane potential distribution sits around the firing threshold
    (Zheng et al., 2021).  ``alpha`` is 1 for ordinary blocks and
    ``1/sqrt(2)`` on residual branches that merge two paths.  The layer is a
    :class:`BatchNorm2d` whose ``gamma_scale`` is ``alpha * v_threshold``.
    """

    def __init__(
        self,
        num_features: int,
        v_threshold: float = 0.5,
        alpha: float = 1.0,
        eps: float = 1e-5,
        momentum: float = 0.1,
    ):
        super().__init__(num_features, eps=eps, momentum=momentum)
        self.v_threshold = v_threshold
        self.alpha = alpha

    @property
    def gamma_scale(self) -> float:
        return self.alpha * self.v_threshold

    def extra_repr(self) -> str:
        return f"{self.num_features}, v_th={self.v_threshold}, alpha={self.alpha}"


class TEBatchNorm2d(TimedModule):
    """Temporal effective batch normalisation (TEBN).

    Wraps an ordinary :class:`BatchNorm2d` (statistics shared over time) and
    multiplies the output of timestep ``t`` by a learnable per-timestep gain
    ``p_t`` (initialised to 1).  The caller advances time implicitly: each
    ``forward`` consumes the next timestep; :meth:`reset_time` rewinds to
    ``t = 0`` and is invoked by
    :func:`repro.snn.functional.reset_model_state`.
    """

    def __init__(self, num_features: int, timesteps: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        if timesteps < 1:
            raise ValueError(f"timesteps must be >= 1, got {timesteps}")
        self.num_features = num_features
        self.timesteps = timesteps
        self.bn = BatchNorm2d(num_features, eps=eps, momentum=momentum)
        self.temporal_weight = Parameter(init.ones((timesteps,)))

    def forward(self, x: Tensor) -> Tensor:
        (t,) = self.advance_time()
        scale = self.temporal_weight[min(t, self.timesteps - 1)]
        return self.bn(x) * scale.reshape(1, 1, 1, 1)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Vectorised TEBN over a channels-last ``(T, N, H, W, C)`` sequence.

        Applies the shared batch norm with per-timestep statistics, then one
        learnable gain per timestep — equivalent to ``T`` counter-driven
        :meth:`forward` calls starting from ``t = 0``.  Like the other norm
        layers, the fused path uses the engine's channels-last layout
        (see :mod:`repro.nn.module`); :meth:`forward` keeps ``(N, C, H, W)``.
        """
        if x_seq.ndim != 5:
            raise ValueError(f"expected (T, N, H, W, C) sequence, got {x_seq.shape}")
        if x_seq.shape[-1] != self.num_features:
            raise ValueError(
                f"channels-last sequence has {x_seq.shape[-1]} channels in the last axis, "
                f"expected {self.num_features} — the fused engine is channels-last"
            )
        gains = self._gains(x_seq.shape[0])
        return self.bn.forward_sequence(x_seq) * gains

    def forward_projected(self, h_seq: Tensor, weight: Tensor, stride=1) -> Tensor:
        """TEBN of a 1x1 projection of ``h_seq``, normalised in rank space.

        The shared batch norm runs through
        :meth:`~repro.nn.layers.BatchNorm2d.forward_projected`; the
        per-timestep gains then apply as in :meth:`forward_sequence`.
        """
        gains = self._gains(h_seq.shape[0])
        return self.bn.forward_projected(h_seq, weight, stride) * gains

    def forward_repeated(self, x_step: Tensor, timesteps: int) -> Tensor:
        """TEBN over ``timesteps`` copies of one ``(1, N, H, W, C)`` step.

        The shared batch norm runs once on the step
        (:meth:`~repro.nn.layers.BatchNorm2d.forward_repeated`); the
        per-timestep gains then see ``T`` copies, as in :meth:`forward_sequence`.
        """
        gains = self._gains(timesteps)
        return self.bn.forward_repeated(x_step, timesteps) * gains

    def _gains(self, timesteps: int) -> Tensor:
        """The ``(T, 1, 1, 1, 1)`` gains of the next ``timesteps`` timesteps."""
        indices = [min(t, self.timesteps - 1) for t in self.advance_time(timesteps)]
        return self.temporal_weight[indices].reshape(timesteps, 1, 1, 1, 1)

    def extra_repr(self) -> str:
        return f"{self.num_features}, timesteps={self.timesteps}"
