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

Both layers operate on single-timestep tensors ``(N, C, H, W)`` but keep an
internal timestep counter so they can be dropped into the same
layer-by-timestep loop the rest of the code base uses; running statistics are
shared across timesteps exactly as in the reference implementations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd.tensor import Tensor, apply_op
from repro.nn import init
from repro.nn.layers import BatchNorm2d, batch_norm_sequence
from repro.nn.module import Module, Parameter

__all__ = ["TDBatchNorm2d", "TEBatchNorm2d"]


class TDBatchNorm2d(Module):
    """Threshold-dependent batch normalisation (tdBN).

    Normalised activations are scaled by ``alpha * v_threshold * gamma`` so
    that the membrane potential distribution sits around the firing threshold
    (Zheng et al., 2021).  ``alpha`` is 1 for ordinary blocks and
    ``1/sqrt(2)`` on residual branches that merge two paths.
    """

    def __init__(
        self,
        num_features: int,
        v_threshold: float = 0.5,
        alpha: float = 1.0,
        eps: float = 1e-5,
        momentum: float = 0.1,
    ):
        super().__init__()
        self.num_features = num_features
        self.v_threshold = v_threshold
        self.alpha = alpha
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.register_buffer("running_mean", Tensor(np.zeros(num_features, dtype=np.float32)))
        self.register_buffer("running_var", Tensor(np.ones(num_features, dtype=np.float32)))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"TDBatchNorm2d expects (N, C, H, W), got {x.shape}")
        axes = (0, 2, 3)
        if self.training:
            # Side-effect op: replays repeat the running-stat momentum
            # update from the live input.
            apply_op("bn_stats", (x,), {
                "running_mean": self.running_mean.data,
                "running_var": self.running_var.data,
                "momentum": self.momentum, "axes": axes,
            })
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
        else:
            mean = Tensor(self.running_mean.data.reshape(1, -1, 1, 1))
            var = Tensor(self.running_var.data.reshape(1, -1, 1, 1))
        normalised = (x - mean) / (var + self.eps).sqrt()
        gamma = self.weight.reshape(1, -1, 1, 1) * (self.alpha * self.v_threshold)
        beta = self.bias.reshape(1, -1, 1, 1)
        return normalised * gamma + beta

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused per-timestep tdBN over a channels-last ``(T, N, H, W, C)`` sequence.

        Matches ``T`` successive :meth:`forward` calls exactly (statistics per
        timestep, sequential running-buffer updates, threshold rescaling) as
        one fused autograd node; the ``alpha * V_th`` rescaling folds into
        the affine transform via ``gamma_scale``.
        """
        return batch_norm_sequence(
            x_seq, self.weight, self.bias,
            eps=self.eps, momentum=self.momentum, training=self.training,
            running_mean=self.running_mean.data, running_var=self.running_var.data,
            gamma_scale=self.alpha * self.v_threshold,
        )

    def extra_repr(self) -> str:
        return f"{self.num_features}, v_th={self.v_threshold}, alpha={self.alpha}"


class TEBatchNorm2d(Module):
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
        self._t = 0

    def reset_time(self) -> None:
        """Rewind the internal timestep counter (new input sequence)."""
        self._t = 0

    @property
    def time_index(self) -> int:
        """The timestep the next ``forward`` call will consume.

        Exposed so streaming execution
        (:class:`repro.runtime.streaming.StreamingForward`) can snapshot and
        restore the temporal position between chunks of one input sequence.
        """
        return self._t

    @time_index.setter
    def time_index(self, t: int) -> None:
        if t < 0:
            raise ValueError(f"time_index must be >= 0, got {t}")
        self._t = int(t)

    def forward(self, x: Tensor) -> Tensor:
        scale = self.temporal_weight[min(self._t, self.timesteps - 1)]
        self._t += 1
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
        timesteps = x_seq.shape[0]
        indices = [min(self._t + t, self.timesteps - 1) for t in range(timesteps)]
        self._t += timesteps
        scale = self.temporal_weight[indices].reshape(timesteps, 1, 1, 1, 1)
        return self.bn.forward_sequence(x_seq) * scale

    def extra_repr(self) -> str:
        return f"{self.num_features}, timesteps={self.timesteps}"
