"""Spiking MS-ResNet backbones (ResNet-18 / 34 / 20).

The paper trains:

* ResNet-18 on CIFAR-10/100 (4 timesteps),
* ResNet-34 on N-Caltech101 (6 timesteps),
* ResNet-20 on CIFAR-10 for the tdBN compatibility row of Table III.

Every backbone accepts a ``width_scale`` so laptop-scale synthetic
experiments can shrink channel counts while keeping the topology (and hence
the compression *structure*) identical; the analytical paper-scale metrics in
:mod:`repro.models.specs` always use ``width_scale = 1``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import AdaptiveAvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, Sequential
from repro.nn.module import Module, ModuleList, sequence_forward
from repro.snn.neurons import LIFNeuron
from repro.models.base import SpikingModel
from repro.models.blocks import MSBasicBlock, direct_coded_stem, make_norm
from repro.models.specs import scaled_width as _scaled

__all__ = ["SpikingResNet", "spiking_resnet18", "spiking_resnet34", "spiking_resnet20"]


class SpikingResNet(SpikingModel):
    """MS-ResNet with LIF neurons, parameterised by blocks-per-stage.

    Parameters
    ----------
    blocks_per_stage:
        e.g. ``[2, 2, 2, 2]`` for ResNet-18, ``[3, 4, 6, 3]`` for ResNet-34,
        ``[3, 3, 3]`` for ResNet-20 (three stages).
    stage_widths:
        Output channels of each stage before ``width_scale``.
    num_classes, in_channels, timesteps:
        Task configuration.  Event datasets use ``in_channels = 2``
        (ON/OFF polarities).
    width_scale:
        Multiplier on every channel count (laptop-scale runs use < 1).
    norm:
        ``"bn"`` / ``"tdbn"`` / ``"tebn"``.
    """

    def __init__(
        self,
        blocks_per_stage: Sequence[int],
        stage_widths: Sequence[int] = (64, 128, 256, 512),
        num_classes: int = 10,
        in_channels: int = 3,
        timesteps: int = 4,
        width_scale: float = 1.0,
        norm: str = "bn",
        tau_m: float = 0.25,
        v_threshold: float = 0.5,
        surrogate: str = "rectangular",
        step_mode: str = "fused",
        rng: Optional[np.random.Generator] = None,
        name: str = "resnet",
    ):
        super().__init__(timesteps, step_mode=step_mode)
        if len(blocks_per_stage) != len(stage_widths):
            raise ValueError("blocks_per_stage and stage_widths must have the same length")
        self.name = name
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.width_scale = width_scale
        self.norm_kind = norm

        def neuron_factory() -> LIFNeuron:
            return LIFNeuron(tau_m=tau_m, v_threshold=v_threshold, surrogate=surrogate)

        self._neuron_factory = neuron_factory

        widths = [_scaled(w, width_scale) for w in stage_widths]
        stem_width = widths[0]

        # Stem: the first convolution is never decomposed (paper, Sec. III).
        self.stem_conv = Conv2d(in_channels, stem_width, 3, stride=1, padding=1, bias=False, rng=rng)
        self.stem_norm = make_norm(norm, stem_width, timesteps=timesteps)
        self.stem_neuron = neuron_factory()

        self.stages = ModuleList()
        current = stem_width
        for stage_index, (depth, width) in enumerate(zip(blocks_per_stage, widths)):
            stride = 1 if stage_index == 0 else 2
            blocks = ModuleList()
            for block_index in range(depth):
                block_stride = stride if block_index == 0 else 1
                blocks.append(
                    MSBasicBlock(current, width, stride=block_stride, norm=norm,
                                 timesteps=timesteps, neuron_factory=neuron_factory, rng=rng)
                )
                current = width
            self.stages.append(blocks)

        self.pool = AdaptiveAvgPool2d(1)
        self.flatten = Flatten()
        self.classifier = Linear(current, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = self.stem_neuron(self.stem_norm(self.stem_conv(x)))
        for stage in self.stages:
            for block in stage:
                out = block(out)
        out = self.flatten(self.pool(out))
        return self.classifier(out)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Layer-by-layer propagation of the whole ``(T, N, C, H, W)`` sequence.

        Internally the fused engine runs channels-last — the input converts
        to ``(T, N, H, W, C)`` once here, and the spatial axes vanish before
        the classifier, so no conversion back is needed.
        """
        out = sequence_forward(self.stem_conv, x_seq.transpose(0, 1, 3, 4, 2))
        out = sequence_forward(self.stem_neuron, sequence_forward(self.stem_norm, out))
        return self._propagate(out)

    def forward_images(self, images: Tensor, timesteps: int) -> Tensor:
        """Direct-coded fused forward: the stem runs once on ``N`` images.

        See :func:`repro.models.blocks.direct_coded_stem`.
        """
        out = direct_coded_stem(self.stem_conv, self.stem_norm, self.stem_neuron,
                                images, timesteps)
        return self._propagate(out)

    def _propagate(self, out: Tensor) -> Tensor:
        """Run the stem's ``(T, N, H, W, C)`` spikes through the stages and the head."""
        for stage in self.stages:
            for block in stage:
                out = sequence_forward(block, out)
        out = sequence_forward(self.pool, out)
        out = sequence_forward(self.flatten, out)
        return sequence_forward(self.classifier, out)

    # -- introspection used by the TT conversion ------------------------------

    def decomposable_layer_names(self) -> List[str]:
        """Names of the 3x3 convolutions eligible for TT decomposition.

        The stem convolution and the classifier are excluded (the paper found
        decomposing them hurts accuracy); 1x1 shortcut convolutions are not
        square-kernel layers and are excluded automatically.
        """
        names: List[str] = []
        for name, module in self.named_modules():
            if not isinstance(module, Conv2d):
                continue
            if module.kernel_size != (3, 3):
                continue
            if name == "stem_conv":
                continue
            names.append(name)
        return names


def spiking_resnet18(num_classes: int = 10, in_channels: int = 3, timesteps: int = 4,
                     width_scale: float = 1.0, norm: str = "bn",
                     rng: Optional[np.random.Generator] = None, **kwargs) -> SpikingResNet:
    """ResNet-18 backbone (paper: CIFAR-10/100, T=4, 16 decomposable convolutions)."""
    return SpikingResNet([2, 2, 2, 2], (64, 128, 256, 512), num_classes=num_classes,
                         in_channels=in_channels, timesteps=timesteps, width_scale=width_scale,
                         norm=norm, rng=rng, name="resnet18", **kwargs)


def spiking_resnet34(num_classes: int = 101, in_channels: int = 2, timesteps: int = 6,
                     width_scale: float = 1.0, norm: str = "bn",
                     rng: Optional[np.random.Generator] = None, **kwargs) -> SpikingResNet:
    """ResNet-34 backbone (paper: N-Caltech101, T=6, 32 decomposable convolutions)."""
    return SpikingResNet([3, 4, 6, 3], (64, 128, 256, 512), num_classes=num_classes,
                         in_channels=in_channels, timesteps=timesteps, width_scale=width_scale,
                         norm=norm, rng=rng, name="resnet34", **kwargs)


def spiking_resnet20(num_classes: int = 10, in_channels: int = 3, timesteps: int = 4,
                     width_scale: float = 1.0, norm: str = "tdbn",
                     rng: Optional[np.random.Generator] = None, **kwargs) -> SpikingResNet:
    """ResNet-20 backbone with tdBN (Table III compatibility row for Zheng et al.)."""
    return SpikingResNet([3, 3, 3], (16, 32, 64), num_classes=num_classes,
                         in_channels=in_channels, timesteps=timesteps, width_scale=width_scale,
                         norm=norm, rng=rng, name="resnet20", **kwargs)
