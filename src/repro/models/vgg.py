"""Spiking VGG backbones (VGG-9 and VGG-11).

Used for the Table III compatibility rows: TEBN and TET train VGG-9 on
CIFAR-10 / DVS Gesture, NDA trains VGG-11 on DVS Gesture.  The networks are
plain stacks of ``conv -> norm -> LIF`` blocks with max-pool downsampling and
a small spiking classifier head.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.autograd.tensor import Tensor
from repro.nn.layers import AdaptiveAvgPool2d, Conv2d, Flatten, Linear, MaxPool2d
from repro.nn.module import ModuleList, sequence_forward
from repro.models.base import SpikingModel
from repro.models.blocks import SpikingConvBlock, direct_coded_stem
from repro.models.specs import scaled_width as _scaled
from repro.snn.neurons import LIFNeuron

__all__ = ["SpikingVGG", "spiking_vgg9", "spiking_vgg11", "VGG9_CONFIG", "VGG11_CONFIG"]

# 'M' entries are 2x2 max-pool downsampling stages.
VGG9_CONFIG: List[Union[int, str]] = [64, "M", 128, 256, "M", 256, 512, "M", 512, "M"]
VGG11_CONFIG: List[Union[int, str]] = [64, "M", 128, "M", 256, 256, "M", 512, 512, "M", 512, 512, "M"]


class SpikingVGG(SpikingModel):
    """Plain spiking VGG: a stack of conv/norm/LIF blocks with max-pooling."""

    def __init__(
        self,
        config: Sequence[Union[int, str]],
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
        name: str = "vgg",
    ):
        super().__init__(timesteps, step_mode=step_mode)
        self.name = name
        self.num_classes = num_classes
        self.in_channels = in_channels
        self.width_scale = width_scale
        self.norm_kind = norm
        self.config = list(config)

        def neuron_factory() -> LIFNeuron:
            return LIFNeuron(tau_m=tau_m, v_threshold=v_threshold, surrogate=surrogate)

        self.features = ModuleList()
        current = in_channels
        first_conv = True
        for entry in config:
            if entry == "M":
                self.features.append(MaxPool2d(2, 2))
                continue
            width = _scaled(int(entry), width_scale)
            block = SpikingConvBlock(current, width, kernel_size=3, stride=1, norm=norm,
                                     timesteps=timesteps, neuron_factory=neuron_factory, rng=rng)
            if first_conv:
                # Mark the stem so the TT conversion can skip it.
                block.conv.is_stem = True
                first_conv = False
            self.features.append(block)
            current = width

        self.pool = AdaptiveAvgPool2d(1)
        self.flatten = Flatten()
        self.classifier = Linear(current, num_classes, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.features:
            if isinstance(layer, MaxPool2d) and (out.shape[-2] < 2 or out.shape[-1] < 2):
                # Scaled-down inputs (laptop-scale runs) can exhaust the spatial
                # resolution before all pooling stages; skip the remaining pools
                # rather than producing an empty feature map.
                continue
            out = layer(out)
        out = self.flatten(self.pool(out))
        return self.classifier(out)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        """Layer-by-layer propagation of the whole ``(T, N, C, H, W)`` sequence.

        Internally the fused engine runs channels-last — the input converts
        to ``(T, N, H, W, C)`` once here, and the spatial axes vanish before
        the classifier, so no conversion back is needed.
        """
        return self._propagate(x_seq.transpose(0, 1, 3, 4, 2), self.features)

    def forward_images(self, images: Tensor, timesteps: int) -> Tensor:
        """Direct-coded fused forward: the first block runs as the stem.

        See :func:`repro.models.blocks.direct_coded_stem`.
        """
        first = self.features[0]
        if not isinstance(first, SpikingConvBlock):
            return super().forward_images(images, timesteps)
        out = direct_coded_stem(first.conv, first.norm, first.neuron, images, timesteps)
        return self._propagate(out, list(self.features)[1:])

    def _propagate(self, out: Tensor, layers) -> Tensor:
        """Run a channels-last ``(T, N, H, W, C)`` sequence through ``layers`` and the head."""
        for layer in layers:
            if isinstance(layer, MaxPool2d) and (out.shape[2] < 2 or out.shape[3] < 2):
                # Same guard as forward(): skip pools once the spatial
                # resolution is exhausted on scaled-down inputs.
                continue
            out = sequence_forward(layer, out)
        out = sequence_forward(self.pool, out)
        out = sequence_forward(self.flatten, out)
        return sequence_forward(self.classifier, out)

    def decomposable_layer_names(self) -> List[str]:
        """All 3x3 convolutions except the stem (same policy as the ResNets)."""
        names: List[str] = []
        for name, module in self.named_modules():
            if not isinstance(module, Conv2d):
                continue
            if module.kernel_size != (3, 3):
                continue
            if getattr(module, "is_stem", False):
                continue
            names.append(name)
        return names


def spiking_vgg9(num_classes: int = 10, in_channels: int = 3, timesteps: int = 4,
                 width_scale: float = 1.0, norm: str = "bn",
                 rng: Optional[np.random.Generator] = None, **kwargs) -> SpikingVGG:
    """VGG-9 (Table III: TEBN on CIFAR-10, TET on DVS Gesture)."""
    return SpikingVGG(VGG9_CONFIG, num_classes=num_classes, in_channels=in_channels,
                      timesteps=timesteps, width_scale=width_scale, norm=norm, rng=rng,
                      name="vgg9", **kwargs)


def spiking_vgg11(num_classes: int = 11, in_channels: int = 2, timesteps: int = 4,
                  width_scale: float = 1.0, norm: str = "bn",
                  rng: Optional[np.random.Generator] = None, **kwargs) -> SpikingVGG:
    """VGG-11 (Table III: NDA on DVS Gesture, 11 gesture classes)."""
    return SpikingVGG(VGG11_CONFIG, num_classes=num_classes, in_channels=in_channels,
                      timesteps=timesteps, width_scale=width_scale, norm=norm, rng=rng,
                      name="vgg11", **kwargs)
