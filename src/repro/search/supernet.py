"""Weight-entangled one-shot supernet over the TT (format, rank) search space.

TangleNAS-style weight entanglement maps perfectly onto TT cores: a rank-``r``
core is a *leading slice* of a rank-``R`` core, so one set of max-rank cores
can parameterise every rank candidate at once, and the three decomposed
formats (STT / PTT / HTT) are just different wirings of the same four cores.
:class:`EntangledTTConv2d` holds

* the original dense convolution (the ``"dense"`` choice), and
* four max-rank sub-convolutions initialised by TT-decomposing the dense
  weight (Algorithm 1 line 4, at the supernet's core rank),

and executes whichever (format, rank) choice is currently sampled by slicing
views of the shared weights through the exact wiring functions the standalone
TT layers use (:func:`repro.tt.layers.stt_wiring` et al.).  Because slicing
is a traced autograd op, training a sampled subnet accumulates gradients into
the shared cores — every rank choice trains the leading slice it shares with
all larger ranks.

A sampled subnet is *bitwise identical* to a standalone ``STTConv2d`` /
``PTTConv2d`` / ``HTTConv2d`` built with the same (format, rank) and copied
core slices (the entanglement invariant, asserted in
``tests/test_supernet.py``): same values, same operations, same order.

:class:`TTSupernet` applies the conversion to a whole spiking backbone,
exposes configuration sampling, and :meth:`TTSupernet.materialise` to turn
a chosen configuration into a concrete standalone model that :mod:`repro.serve`
serves as is, or merged through :func:`repro.tt.reconstruct.snapshot_merged`.
"""

from __future__ import annotations

import copy
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd.conv import conv2d, conv2d_channels_last
from repro.autograd.tensor import Tensor
from repro.models.base import SpikingModel
from repro.models.builder import _resolve_parent, decomposable_convolutions
from repro.nn.layers import Conv2d
from repro.nn.module import Module, TimedModule, fold_time, unfold_time
from repro.search.space import FORMATS, LayerChoice, LayerSearchSpace, SearchSpace
from repro.snn.functional import reset_model_state
from repro.tt.decomposition import max_tt_ranks, tt_decompose_conv
from repro.tt.layers import (
    HTTConv2d,
    PTTConv2d,
    STTConv2d,
    cross_callable,
    htt_sequence_wiring,
    htt_step_wiring,
    normalised_projection,
    parse_htt_schedule,
    ptt_wiring,
    stt_wiring,
    summed_cross,
)

__all__ = ["EntangledTTConv2d", "TTSupernet"]

_CONCRETE = {"stt": STTConv2d, "ptt": PTTConv2d, "htt": HTTConv2d}


class _SlicedConv:
    """Apply a convolution through an externally sliced weight view.

    Mirrors :class:`repro.nn.layers.Conv2d`'s two call paths (NCHW forward
    and folded channels-last forward) over a weight that is a slice of a
    shared max-rank parameter, so the wiring functions can treat it exactly
    like a sub-convolution module.
    """

    __slots__ = ("weight", "stride", "padding")

    def __init__(self, weight: Tensor, stride: Tuple[int, int], padding: Tuple[int, int]):
        self.weight = weight
        self.stride = stride
        self.padding = padding

    def __call__(self, x: Tensor) -> Tensor:
        return conv2d(x, self.weight, None, stride=self.stride, padding=self.padding)

    def forward_channels_last(self, x: Tensor) -> Tensor:
        return conv2d_channels_last(x, self.weight, None,
                                    stride=self.stride, padding=self.padding)


class EntangledTTConv2d(TimedModule):
    """One supernet convolution: all (format, rank) choices share its weights.

    Parameters
    ----------
    dense_conv:
        The dense convolution being made searchable.  The module is adopted
        as-is (its weights become the ``"dense"`` choice) and additionally
        TT-decomposed into the shared max-rank cores.
    space:
        The layer's :class:`~repro.search.space.LayerSearchSpace`; its
        largest rank candidate sets the core rank.
    timesteps, schedule:
        Simulation length and the HTT full/half placement (defaults to full
        for the first half of the timesteps), used by the ``"htt"`` choices.
    stride_mode:
        Stride placement for the TT paths (see :mod:`repro.tt.layers`).
        Defaults to ``"last"`` — unlike :func:`repro.models.builder.convert_to_tt`
        (which defaults to the paper's FLOP-accounting convention) — because
        the search pipeline may end in :func:`repro.tt.reconstruct.snapshot_merged`
        serving, and the Eq.-6 merge is only exact for strided layers when
        the stride sits on the final 1x1.  The two modes are identical for
        stride-1 layers.
    decompose_weights:
        Initialise the cores from the dense weight (Algorithm 1 line 4);
        otherwise keep their fresh Kaiming initialisation.
    """

    #: ``forward_sequence(x_seq, norm)`` takes the layer's norm, as the
    #: standalone TT layers do (see :func:`repro.models.blocks.conv_norm_sequence`).
    fuses_norm = True

    def __init__(
        self,
        dense_conv: Conv2d,
        space: LayerSearchSpace,
        timesteps: int = 4,
        schedule: Optional[Union[str, Sequence[bool]]] = None,
        stride_mode: str = "last",
        decompose_weights: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        kh, kw = dense_conv.kernel_size
        if kh != kw:
            raise ValueError(f"TT choices decompose square kernels, got {dense_conv.kernel_size}")
        if stride_mode not in ("first", "last"):
            raise ValueError(f"stride_mode must be 'first' or 'last', got {stride_mode!r}")
        self.layer_space = space
        self.in_channels = dense_conv.in_channels
        self.out_channels = dense_conv.out_channels
        self.kernel_size = dense_conv.kernel_size
        self.stride = dense_conv.stride
        self.padding = dense_conv.padding
        self.stride_mode = stride_mode

        limit = min(max_tt_ranks(self.in_channels, self.out_channels, (kh, kw)))
        max_rank = space.max_rank
        if max_rank < 1 or max_rank > limit:
            raise ValueError(
                f"layer '{space.name}' core rank {max_rank} is outside [1, {limit}]"
            )
        self.max_rank = max_rank

        self.dense = dense_conv
        first_stride = self.stride if stride_mode == "first" else (1, 1)
        last_stride = self.stride if stride_mode == "last" else (1, 1)
        self.conv1 = Conv2d(self.in_channels, max_rank, kernel_size=(1, 1),
                            stride=first_stride, padding=0, bias=False, rng=rng)
        self.conv2 = Conv2d(max_rank, max_rank, kernel_size=(kh, 1), stride=1,
                            padding=(kh // 2, 0), bias=False, rng=rng)
        self.conv3 = Conv2d(max_rank, max_rank, kernel_size=(1, kw), stride=1,
                            padding=(0, kw // 2), bias=False, rng=rng)
        self.conv4 = Conv2d(max_rank, self.out_channels, kernel_size=(1, 1),
                            stride=last_stride, padding=0, bias=False, rng=rng)
        if decompose_weights:
            cores = tt_decompose_conv(dense_conv.weight.data, (max_rank,) * 3)
            conv_weights = cores.conv_weights()
            for conv, weight in zip((self.conv1, self.conv2, self.conv3, self.conv4),
                                    conv_weights):
                conv.weight.data[...] = weight.astype(np.float32)

        self.schedule = parse_htt_schedule(schedule, int(timesteps))
        self.timesteps = int(timesteps)
        # Default to the highest-capacity TT choice (or dense if TT-free).
        tt_formats = [f for f in space.formats if f != "dense"]
        if tt_formats:
            self._choice = LayerChoice(tt_formats[0], max_rank)
        else:
            self._choice = LayerChoice("dense", 0)

    # -- choice management ---------------------------------------------------

    @property
    def choice(self) -> LayerChoice:
        """The currently sampled (format, rank) choice."""
        return self._choice

    def set_choice(self, choice: Union[LayerChoice, str], rank: Optional[int] = None) -> None:
        """Sample one (format, rank) choice."""
        if not isinstance(choice, LayerChoice):
            choice = LayerChoice(str(choice), 0 if rank is None else int(rank))
        if choice.format not in self.layer_space.formats:
            raise ValueError(
                f"format '{choice.format}' is not searchable for layer "
                f"'{self.layer_space.name}' (options: {self.layer_space.formats})"
            )
        if choice.format != "dense" and not 1 <= choice.rank <= self.max_rank:
            raise ValueError(
                f"rank {choice.rank} is outside the entangled range [1, {self.max_rank}]"
            )
        self._choice = choice

    def half_timestep(self, t: int) -> bool:
        return self.schedule[min(t, self.timesteps - 1)]

    # -- execution -----------------------------------------------------------

    def _sliced_convs(self, rank: int) -> Tuple[_SlicedConv, ...]:
        """The four sub-convolutions restricted to the leading rank-``r`` slice."""
        r = int(rank)
        return (
            _SlicedConv(self.conv1.weight[:r], self.conv1.stride, self.conv1.padding),
            _SlicedConv(self.conv2.weight[:r, :r], self.conv2.stride, self.conv2.padding),
            _SlicedConv(self.conv3.weight[:r, :r], self.conv3.stride, self.conv3.padding),
            _SlicedConv(self.conv4.weight[:, :r], self.conv4.stride, self.conv4.padding),
        )

    def forward(self, x: Tensor) -> Tensor:
        (t,) = self.advance_time()
        choice = self._choice
        if choice.format == "dense":
            return self.dense(x)
        c1, c2, c3, c4 = self._sliced_convs(choice.rank)
        if choice.format == "stt":
            return stt_wiring(c1, c2, c3, c4, x)
        if choice.format == "ptt":
            return ptt_wiring(c1, summed_cross(c2, c3), c4, x)
        return htt_step_wiring(c1, summed_cross(c2, c3), c4, x, self.half_timestep(t))

    def forward_sequence(self, x_seq: Tensor, norm: Optional[Module] = None) -> Tensor:
        """Fused path over a channels-last ``(T, N, H, W, C)`` sequence.

        With a batch-norm ``norm``, returns its normalisation of the output:
        the TT choices run ``conv4`` and the norm as one rank-space node over
        the sliced core, as the standalone TT layers do; the dense choice
        runs the convolution and then the norm.
        """
        timesteps = x_seq.shape[0]
        steps = self.advance_time(timesteps)
        choice = self._choice
        if choice.format == "dense":
            out = self.dense.forward_sequence(x_seq)
            return out if norm is None else norm.forward_sequence(out)
        sliced = self._sliced_convs(choice.rank)
        cl = [c.forward_channels_last for c in sliced]
        if norm is not None:
            cl[3] = normalised_projection(norm, sliced[3].weight, sliced[3].stride, timesteps)
        if choice.format == "stt":
            return unfold_time(stt_wiring(*cl, fold_time(x_seq)), timesteps)
        cross = cross_callable(sliced[1].weight, sliced[2].weight)
        if choice.format == "htt":
            return htt_sequence_wiring(cl[0], cross, cl[3], x_seq,
                                       [self.half_timestep(t) for t in steps])
        return unfold_time(ptt_wiring(cl[0], cross, cl[3], fold_time(x_seq)), timesteps)

    # -- materialisation -----------------------------------------------------

    def materialise(self, choice: Optional[LayerChoice] = None) -> Module:
        """Build the standalone layer equivalent to one sampled choice.

        The returned module carries *copies* of the relevant weight slices,
        so it computes bitwise-identical outputs to the sampled supernet
        while being independent of it.
        """
        choice = choice if choice is not None else self._choice
        if choice.format == "dense":
            return copy.deepcopy(self.dense)
        r = choice.rank
        if not 1 <= r <= self.max_rank:
            raise ValueError(f"rank {r} is outside the entangled range [1, {self.max_rank}]")
        kwargs = dict(
            in_channels=self.in_channels,
            out_channels=self.out_channels,
            kernel_size=self.kernel_size[0],
            rank=r,
            stride=self.stride,
            stride_mode=self.stride_mode,
        )
        if choice.format == "htt":
            kwargs["timesteps"] = self.timesteps
            kwargs["schedule"] = list(self.schedule)
        layer = _CONCRETE[choice.format](**kwargs)
        layer.conv1.weight.data[...] = self.conv1.weight.data[:r]
        layer.conv2.weight.data[...] = self.conv2.weight.data[:r, :r]
        layer.conv3.weight.data[...] = self.conv3.weight.data[:r, :r]
        layer.conv4.weight.data[...] = self.conv4.weight.data[:, :r]
        return layer

    def extra_repr(self) -> str:
        return (
            f"{self.in_channels}, {self.out_channels}, max_rank={self.max_rank}, "
            f"formats={self.layer_space.formats}, ranks={self.layer_space.ranks}, "
            f"choice={self._choice.encode()}"
        )


class TTSupernet(SpikingModel):
    """Entangled supernet wrapper over a spiking backbone.

    Replaces every decomposable convolution of ``model`` (in place) with an
    :class:`EntangledTTConv2d` and exposes whole-network configuration
    sampling and materialisation.  The wrapper is itself a
    :class:`~repro.models.base.SpikingModel`, so the existing trainer,
    evaluation and serving stack apply unchanged.

    The supernet also implements the compiled runtime's duck-typed
    ``runtime_signature()`` hook: the sampled configuration is part of the
    plan key, so a choice change re-captures.
    """

    def __init__(
        self,
        model: SpikingModel,
        formats: Sequence[str] = FORMATS,
        max_rank: Optional[int] = None,
        space: Optional[SearchSpace] = None,
        schedule: Optional[Union[str, Sequence[bool]]] = None,
        stride_mode: str = "last",
        decompose_weights: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(model.timesteps, step_mode=model.step_mode)
        if space is None:
            space = SearchSpace.for_model(model, formats=formats, max_rank=max_rank)
        self.space = space
        self.model = model
        by_name = {layer.name: layer for layer in space.layers}
        self.layer_names: List[str] = []
        entangled: List[EntangledTTConv2d] = []
        for name, conv in decomposable_convolutions(model):
            if name not in by_name:
                raise ValueError(f"search space has no entry for decomposable layer '{name}'")
            layer = EntangledTTConv2d(
                conv, by_name[name], timesteps=model.timesteps, schedule=schedule,
                stride_mode=stride_mode, decompose_weights=decompose_weights, rng=rng,
            )
            parent, attr = _resolve_parent(model, name)
            setattr(parent, attr, layer)
            self.layer_names.append(name)
            entangled.append(layer)
        if len(entangled) != len(space.layers):
            raise ValueError(
                f"search space describes {len(space.layers)} layers but the model "
                f"has {len(entangled)} decomposable convolutions"
            )
        self._entangled = entangled

    # -- execution (delegated to the backbone) -------------------------------

    def forward(self, x: Tensor) -> Tensor:
        return self.model(x)

    def forward_sequence(self, x_seq: Tensor) -> Tensor:
        return self.model.forward_sequence(x_seq)

    def forward_images(self, images: Tensor, timesteps: int) -> Tensor:
        return self.model.forward_images(images, timesteps)

    # -- configuration management --------------------------------------------

    def layers(self) -> List[EntangledTTConv2d]:
        """The entangled layers in decomposable-traversal order."""
        return list(self._entangled)

    def current_config(self) -> Tuple[LayerChoice, ...]:
        return tuple(layer.choice for layer in self._entangled)

    def apply_config(self, config: Sequence[LayerChoice]) -> Tuple[LayerChoice, ...]:
        """Sample one whole-network configuration."""
        config = self.space.validate_config(config)
        for layer, choice in zip(self._entangled, config):
            layer.set_choice(choice)
        return config

    def sample_random(self, rng: np.random.Generator) -> Tuple[LayerChoice, ...]:
        """Sample and apply a uniformly random configuration (SPOS warm-up)."""
        return self.apply_config(self.space.random_config(rng))

    def runtime_signature(self):
        """Plan-cache key extension for the compiled runtime.

        Returns the sampled configuration encoding, so compiled training
        and forwards re-capture when the architecture changes.
        """
        return self.space.encode(self.current_config())

    # -- materialisation -----------------------------------------------------

    def materialise(self, config: Optional[Sequence[LayerChoice]] = None) -> SpikingModel:
        """Extract a standalone concrete model for one configuration.

        Deep-copies the backbone and replaces every entangled layer in the
        copy by its materialised concrete module (STT / PTT / HTT / dense
        with copied weight slices).  The result is a plain spiking model:
        trainable, mergeable via :func:`repro.tt.reconstruct.snapshot_merged`
        and servable through :mod:`repro.serve`.
        """
        config = self.space.validate_config(config if config is not None
                                            else self.current_config())
        reset_model_state(self.model)
        # Swap the concrete layers in *before* the deepcopy so the copy never
        # duplicates the supernet's heavyweight state (dense kernel + four
        # max-rank cores per layer) just to throw it away; the entangled
        # layers are restored afterwards.
        for name, layer, choice in zip(self.layer_names, self._entangled, config):
            parent, attr = _resolve_parent(self.model, name)
            setattr(parent, attr, layer.materialise(choice))
        try:
            snapshot = copy.deepcopy(self.model)
        finally:
            for name, layer in zip(self.layer_names, self._entangled):
                parent, attr = _resolve_parent(self.model, name)
                setattr(parent, attr, layer)
        return snapshot
