"""Building blocks: spiking convolution stages and MS-ResNet residual blocks.

The paper adopts MS-ResNet (Hu et al., "Advancing spiking neural networks
towards deep residual learning") as its baseline SNN backbone: residual
blocks where the LIF non-linearity sits on the main path and the shortcut
carries the (real-valued) block input, so that gradients flow through the
identity connection without passing a spiking non-linearity.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import BatchNorm2d, Conv2d, Identity, Sequential
from repro.nn.module import Module, repeat_time, sequence_forward
from repro.snn.neurons import LIFNeuron
from repro.snn.norm import TDBatchNorm2d, TEBatchNorm2d

__all__ = ["make_norm", "conv_norm_sequence", "direct_coded_stem", "SpikingConvBlock",
           "MSBasicBlock"]


def make_norm(kind: str, num_features: int, timesteps: int = 4,
              v_threshold: float = 0.5, alpha: float = 1.0) -> Module:
    """Factory for the normalisation layer variants used across experiments.

    ``kind`` is one of ``"bn"`` (plain batch norm, the paper's default),
    ``"tdbn"`` (threshold-dependent BN, Table III row 1), ``"tebn"``
    (temporal effective BN, Table III row 2) or ``"none"`` (identity — for
    ablations and for data-parallel parity checks, where batch statistics
    would otherwise differ between shard sizes).
    """
    kind = kind.lower()
    if kind == "bn":
        return BatchNorm2d(num_features)
    if kind == "tdbn":
        return TDBatchNorm2d(num_features, v_threshold=v_threshold, alpha=alpha)
    if kind == "tebn":
        return TEBatchNorm2d(num_features, timesteps=timesteps)
    if kind == "none":
        return Identity()
    raise ValueError(f"unknown norm kind '{kind}'; options: bn, tdbn, tebn, none")


def conv_norm_sequence(conv: Module, norm: Module, x_seq: Tensor) -> Tensor:
    """Fused ``conv -> norm`` over a channels-last ``(T, N, H, W, C)`` sequence.

    A TT convolution followed by a batch norm (plain, tdBN or TEBN) hands
    the norm to its own ``forward_sequence``, which normalises the last 1x1
    core's projection in rank space
    (:meth:`~repro.nn.layers.BatchNorm2d.forward_projected`) instead of
    running a full-width norm over the convolution's output.  Dense
    convolutions and ``norm="none"`` run the two layers one after the
    other, as does a convolution whose ``forward_sequence`` is replaced on
    the instance (a recording or timing wrapper then sees both calls).
    """
    if (getattr(conv, "fuses_norm", False) and hasattr(norm, "forward_projected")
            and "forward_sequence" not in vars(conv)):
        return conv.forward_sequence(x_seq, norm=norm)
    return sequence_forward(norm, sequence_forward(conv, x_seq))


def direct_coded_stem(conv: Module, norm: Module, neuron: Module, images: Tensor,
                      timesteps: int) -> Tensor:
    """Fused ``conv -> norm -> LIF`` stem over static ``(N, C, H, W)`` images.

    Direct coding feeds the same image at every timestep, so the convolution
    and a norm without per-timestep parameters would compute ``T`` identical
    copies.  They run once, on a one-step ``(1, N, H, W, C)`` sequence; the
    result is copied to ``T`` timesteps right before the first
    time-dependent part — inside the norm when it has one
    (``forward_repeated``: batch norms count ``T`` running-stat updates,
    TEBN applies its per-timestep gains to the copies), else before it.
    Returns the stem's ``(T, N, H', W', C')`` channels-last spikes.
    """
    x_step = images.reshape((1,) + images.shape).transpose(0, 1, 3, 4, 2)
    out = sequence_forward(conv, x_step)
    forward_repeated = getattr(norm, "forward_repeated", None)
    if forward_repeated is not None:
        out = forward_repeated(out, timesteps)
    else:
        out = sequence_forward(norm, repeat_time(out, timesteps))
    return sequence_forward(neuron, out)


class SpikingConvBlock(Module):
    """``conv -> norm -> LIF`` stage (the paper's per-layer computation).

    Algorithm 1 lines 10-12 express one layer as a convolution on the spikes
    produced by the previous layer's LIF + BN; this block packages that
    pattern so VGG-style plain networks are a simple stack of blocks.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        norm: str = "bn",
        timesteps: int = 4,
        neuron_factory: Optional[Callable[[], LIFNeuron]] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        padding = kernel_size // 2
        self.conv = Conv2d(in_channels, out_channels, kernel_size, stride=stride,
                           padding=padding, bias=False, rng=rng)
        self.norm = make_norm(norm, out_channels, timesteps=timesteps)
        self.neuron = (neuron_factory or LIFNeuron)()

    def forward(self, x: Tensor) -> Tensor:
        return self.neuron(self.norm(self.conv(x)))

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused step-mode path: each stage consumes the whole ``(T, N, ...)`` sequence."""
        return sequence_forward(self.neuron, conv_norm_sequence(self.conv, self.norm, x_seq))


class MSBasicBlock(Module):
    """MS-ResNet basic residual block with two 3x3 convolutions.

    Layout (membrane-shortcut style)::

        out = LIF(BN(conv1(x)))
        out = BN(conv2(out))
        out = out + shortcut(x)      # shortcut: identity or 1x1 conv + BN
        out = LIF(out)

    Both 3x3 convolutions are decomposable by the TT modules; the optional
    1x1 downsample convolution is not (matching the paper, which only
    decomposes the square-kernel layers).
    """

    expansion = 1

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        norm: str = "bn",
        timesteps: int = 4,
        neuron_factory: Optional[Callable[[], LIFNeuron]] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        neuron_factory = neuron_factory or LIFNeuron
        self.conv1 = Conv2d(in_channels, out_channels, 3, stride=stride, padding=1,
                            bias=False, rng=rng)
        self.bn1 = make_norm(norm, out_channels, timesteps=timesteps)
        self.neuron1 = neuron_factory()
        self.conv2 = Conv2d(out_channels, out_channels, 3, stride=1, padding=1,
                            bias=False, rng=rng)
        self.bn2 = make_norm(norm, out_channels, timesteps=timesteps)
        self.neuron2 = neuron_factory()

        if stride != 1 or in_channels != out_channels * self.expansion:
            self.shortcut = Sequential(
                Conv2d(in_channels, out_channels * self.expansion, 1, stride=stride,
                       padding=0, bias=False, rng=rng),
                make_norm(norm, out_channels * self.expansion, timesteps=timesteps),
            )
        else:
            self.shortcut = Identity()

    def forward(self, x: Tensor) -> Tensor:
        out = self.neuron1(self.bn1(self.conv1(x)))
        out = self.bn2(self.conv2(out))
        out = out + self.shortcut(x)
        return self.neuron2(out)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Fused step-mode path mirroring :meth:`forward` layer by layer."""
        out = sequence_forward(self.neuron1, conv_norm_sequence(self.conv1, self.bn1, x_seq))
        out = conv_norm_sequence(self.conv2, self.bn2, out)
        out = out + sequence_forward(self.shortcut, x_seq)
        return sequence_forward(self.neuron2, out)
