"""Per-layer (format, rank) search space over decomposable convolutions.

The paper fixes one decomposition format (STT / PTT / HTT) for the whole
network and picks per-layer ranks with a single offline VBMF pass
(Algorithm 1).  The search subsystem instead treats both decisions as a
*search space*: every decomposable convolution independently chooses a format
from ``{dense, stt, ptt, htt}`` and a TT-rank from a divisor-friendly grid
(:func:`repro.tt.ranks.rank_grid_for_layer`).  A full network configuration
is one :class:`LayerChoice` per layer.

The rank grid doubles as the weight-entanglement recipe (TangleNAS-style):
the largest grid entry is the rank of the supernet's shared cores, and every
smaller rank is realised as a leading slice of those cores
(:mod:`repro.search.supernet`), so one supernet trains all choices at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.tt.ranks import DEFAULT_RANK_SNAP, rank_grid_for_layer

__all__ = ["FORMATS", "TT_FORMATS", "LayerChoice", "LayerSearchSpace", "SearchSpace"]

#: All selectable formats.  ``"dense"`` keeps the original convolution.
FORMATS: Tuple[str, ...] = ("dense", "stt", "ptt", "htt")

#: The decomposed formats (those that use the entangled TT cores).
TT_FORMATS: Tuple[str, ...] = ("stt", "ptt", "htt")


@dataclass(frozen=True)
class LayerChoice:
    """One layer's sampled decision: a format plus an entangled-core rank.

    ``rank`` is the uniform TT-rank (leading slice of the shared max-rank
    cores); it is 0 for the dense format, which does not touch the cores.
    """

    format: str
    rank: int

    def __post_init__(self):
        fmt = self.format.lower()
        object.__setattr__(self, "format", fmt)
        if fmt not in FORMATS:
            raise ValueError(f"unknown format '{self.format}'; options: {FORMATS}")
        if fmt == "dense":
            object.__setattr__(self, "rank", 0)
        elif self.rank < 1:
            raise ValueError(f"TT formats need rank >= 1, got {self.rank}")

    def encode(self) -> Tuple[str, int]:
        return (self.format, self.rank)


#: A full network configuration: one choice per decomposable layer, in order.
CandidateConfig = Tuple[LayerChoice, ...]


@dataclass
class LayerSearchSpace:
    """The choices available to one decomposable convolution.

    Attributes
    ----------
    name:
        Qualified module name of the convolution inside the backbone.
    in_channels, out_channels, kernel_size, stride:
        Shape of the dense convolution the choices replace.
    formats:
        Selectable formats (subset of :data:`FORMATS`).
    ranks:
        Ascending rank candidates; ``max(ranks)`` is the entangled core rank.
    """

    name: str
    in_channels: int
    out_channels: int
    kernel_size: Tuple[int, int]
    stride: Tuple[int, int]
    formats: Tuple[str, ...]
    ranks: Tuple[int, ...]

    def __post_init__(self):
        self.formats = tuple(f.lower() for f in self.formats)
        unknown = [f for f in self.formats if f not in FORMATS]
        if unknown:
            raise ValueError(f"unknown formats {unknown}; options: {FORMATS}")
        if not self.formats:
            raise ValueError(f"layer '{self.name}' has no formats to choose from")
        self.ranks = tuple(sorted(set(int(r) for r in self.ranks)))
        if any(f in TT_FORMATS for f in self.formats) and not self.ranks:
            raise ValueError(f"layer '{self.name}' offers TT formats but no rank candidates")

    @property
    def max_rank(self) -> int:
        """Rank of the entangled supernet cores for this layer."""
        return max(self.ranks) if self.ranks else 0

    def choices(self) -> List[LayerChoice]:
        """Enumerate every (format, rank) choice of this layer."""
        out: List[LayerChoice] = []
        for fmt in self.formats:
            if fmt == "dense":
                out.append(LayerChoice("dense", 0))
            else:
                out.extend(LayerChoice(fmt, rank) for rank in self.ranks)
        return out

    def num_choices(self) -> int:
        dense = 1 if "dense" in self.formats else 0
        tt = sum(1 for f in self.formats if f != "dense")
        return dense + tt * len(self.ranks)

    def contains(self, choice: LayerChoice) -> bool:
        if choice.format not in self.formats:
            return False
        return choice.format == "dense" or choice.rank in self.ranks

    def random_choice(self, rng: np.random.Generator) -> LayerChoice:
        options = self.choices()
        return options[int(rng.integers(0, len(options)))]


class SearchSpace:
    """Ordered collection of per-layer search spaces plus config operators.

    Configurations are plain tuples of :class:`LayerChoice` (one per layer,
    in layer order), so they hash, compare and pickle naturally.  The
    mutation / crossover operators used by the evolutionary strategy live
    here because they are pure functions of the space, not of any model.
    """

    def __init__(self, layers: Sequence[LayerSearchSpace]):
        self.layers = list(layers)
        if not self.layers:
            raise ValueError("search space needs at least one decomposable layer")

    @classmethod
    def for_model(
        cls,
        model,
        formats: Sequence[str] = FORMATS,
        max_rank: Optional[int] = None,
        snap: int = DEFAULT_RANK_SNAP,
        min_rank: int = 1,
    ) -> "SearchSpace":
        """Build the space covering every decomposable convolution of ``model``.

        Rank candidates come from :func:`repro.tt.ranks.rank_grid_for_layer`
        on each layer's actual channel counts, so the grid always fits the
        (possibly width-scaled) model; ``max_rank`` caps the grid (and with
        it the entangled core size of the supernet).
        """
        from repro.models.builder import decomposable_convolutions

        layers = []
        for name, conv in decomposable_convolutions(model):
            grid = rank_grid_for_layer(
                conv.in_channels, conv.out_channels, conv.kernel_size[0],
                snap=snap, min_rank=min_rank, max_rank=max_rank,
            )
            layers.append(LayerSearchSpace(
                name=name,
                in_channels=conv.in_channels,
                out_channels=conv.out_channels,
                kernel_size=conv.kernel_size,
                stride=conv.stride,
                formats=tuple(formats),
                ranks=tuple(grid),
            ))
        return cls(layers)

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    def __iter__(self):
        return iter(self.layers)

    def num_configurations(self) -> int:
        """Total size of the (format, rank) configuration space."""
        total = 1
        for layer in self.layers:
            total *= layer.num_choices()
        return total

    # -- configurations ------------------------------------------------------

    def validate_config(self, config: Sequence[LayerChoice]) -> CandidateConfig:
        config = tuple(config)
        if len(config) != len(self.layers):
            raise ValueError(
                f"config has {len(config)} choices but the space has {len(self.layers)} layers"
            )
        for layer, choice in zip(self.layers, config):
            if not layer.contains(choice):
                raise ValueError(
                    f"choice {choice.encode()} is not available for layer '{layer.name}' "
                    f"(formats={layer.formats}, ranks={layer.ranks})"
                )
        return config

    def encode(self, config: Sequence[LayerChoice]) -> Tuple[Tuple[str, int], ...]:
        """Canonical hashable encoding of a configuration."""
        return tuple(choice.encode() for choice in config)

    def random_config(self, rng: np.random.Generator) -> CandidateConfig:
        return tuple(layer.random_choice(rng) for layer in self.layers)

    def uniform_config(self, format: str, rank_fraction: float = 1.0) -> CandidateConfig:
        """Same format everywhere, rank at a fraction of each layer's grid.

        Reproduces paper-style configurations (e.g. all-PTT) inside the
        search space; ``rank_fraction`` in [0, 1] indexes into each layer's
        grid (0.0 = the smallest candidate, 1.0 = the largest).
        """
        if not 0.0 <= rank_fraction <= 1.0:
            raise ValueError(f"rank_fraction must lie in [0, 1], got {rank_fraction}")
        choices = []
        for layer in self.layers:
            if format == "dense":
                choices.append(LayerChoice("dense", 0))
                continue
            index = int(round(rank_fraction * (len(layer.ranks) - 1)))
            choices.append(LayerChoice(format, layer.ranks[index]))
        return self.validate_config(choices)

    def mutate(self, config: Sequence[LayerChoice], rng: np.random.Generator,
               prob: float = 0.2) -> CandidateConfig:
        """Per-layer re-draw with probability ``prob`` (always != the original)."""
        config = self.validate_config(config)
        mutated: List[LayerChoice] = []
        for layer, choice in zip(self.layers, config):
            if rng.random() >= prob or layer.num_choices() < 2:
                mutated.append(choice)
                continue
            alternatives = [c for c in layer.choices() if c != choice]
            mutated.append(alternatives[int(rng.integers(0, len(alternatives)))])
        return tuple(mutated)

    def crossover(self, first: Sequence[LayerChoice], second: Sequence[LayerChoice],
                  rng: np.random.Generator) -> CandidateConfig:
        """Uniform crossover: each layer inherits from one parent at random."""
        first = self.validate_config(first)
        second = self.validate_config(second)
        mask = rng.random(len(self.layers)) < 0.5
        return tuple(a if take_a else b for a, b, take_a in zip(first, second, mask))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SearchSpace(layers={len(self.layers)}, "
                f"configurations={self.num_configurations()})")
