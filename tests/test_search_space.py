"""Tests for the (format, rank) search space and the rank-grid helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.vgg import spiking_vgg9
from repro.search import FORMATS, LayerChoice, LayerSearchSpace, SearchSpace
from repro.tt.decomposition import max_tt_ranks
from repro.tt.ranks import rank_grid_for_layer


def _tiny_model(seed: int = 0):
    return spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                        width_scale=0.1, rng=np.random.default_rng(seed))


class TestLayerChoice:
    def test_dense_rank_normalised_to_zero(self):
        assert LayerChoice("dense", 7).rank == 0
        assert LayerChoice("DENSE", 0).format == "dense"

    def test_tt_formats_need_positive_rank(self):
        with pytest.raises(ValueError):
            LayerChoice("ptt", 0)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            LayerChoice("cp", 4)

    def test_hashable_and_encodable(self):
        a = LayerChoice("stt", 8)
        b = LayerChoice("stt", 8)
        assert a == b and hash(a) == hash(b)
        assert a.encode() == ("stt", 8)


class TestLayerSearchSpace:
    def _layer(self, **overrides):
        kwargs = dict(name="conv", in_channels=16, out_channels=16,
                      kernel_size=(3, 3), stride=(1, 1),
                      formats=("dense", "stt", "ptt", "htt"), ranks=(4, 8, 16))
        kwargs.update(overrides)
        return LayerSearchSpace(**kwargs)

    def test_choice_enumeration(self):
        layer = self._layer()
        choices = layer.choices()
        # 1 dense + 3 TT formats x 3 ranks.
        assert len(choices) == 10 == layer.num_choices()
        assert LayerChoice("dense", 0) in choices
        assert LayerChoice("htt", 16) in choices

    def test_max_rank_is_grid_top(self):
        assert self._layer().max_rank == 16

    def test_contains(self):
        layer = self._layer()
        assert layer.contains(LayerChoice("ptt", 8))
        assert not layer.contains(LayerChoice("ptt", 6))
        assert layer.contains(LayerChoice("dense", 0))

    def test_tt_formats_without_ranks_rejected(self):
        with pytest.raises(ValueError):
            self._layer(ranks=())

    def test_ranks_sorted_and_deduped(self):
        layer = self._layer(ranks=(8, 4, 8, 16))
        assert layer.ranks == (4, 8, 16)


class TestSearchSpaceForModel:
    def test_covers_every_decomposable_layer(self):
        model = _tiny_model()
        space = SearchSpace.for_model(model)
        assert len(space) == len(model.decomposable_layer_names())
        # Grid candidates are admissible for each layer's actual channels.
        for layer in space.layers:
            limit = min(max_tt_ranks(layer.in_channels, layer.out_channels,
                                     layer.kernel_size))
            assert layer.max_rank <= limit
            assert all(1 <= r <= limit for r in layer.ranks)

    def test_max_rank_cap(self):
        space = SearchSpace.for_model(_tiny_model(), max_rank=4)
        assert all(layer.max_rank <= 4 for layer in space.layers)

    def test_configuration_count(self):
        space = SearchSpace.for_model(_tiny_model())
        expected = 1
        for layer in space.layers:
            expected *= layer.num_choices()
        assert space.num_configurations() == expected

    def test_random_config_valid_and_seeded(self):
        space = SearchSpace.for_model(_tiny_model())
        a = space.random_config(np.random.default_rng(7))
        b = space.random_config(np.random.default_rng(7))
        assert a == b
        space.validate_config(a)

    def test_uniform_config(self):
        space = SearchSpace.for_model(_tiny_model())
        config = space.uniform_config("ptt")
        assert all(c.format == "ptt" for c in config)
        assert all(c.rank == layer.max_rank for c, layer in zip(config, space.layers))
        dense = space.uniform_config("dense")
        assert all(c == LayerChoice("dense", 0) for c in dense)
        smallest = space.uniform_config("ptt", rank_fraction=0.0)
        assert all(c.rank == layer.ranks[0] for c, layer in zip(smallest, space.layers))

    @pytest.mark.parametrize("fraction", [-0.5, -0.01, 1.01, 1.5, float("nan")])
    def test_uniform_config_rejects_fraction_outside_unit_interval(self, fraction):
        space = SearchSpace.for_model(_tiny_model())
        with pytest.raises(ValueError, match="rank_fraction"):
            space.uniform_config("ptt", rank_fraction=fraction)

    def test_mutate_stays_valid_and_changes_something(self):
        space = SearchSpace.for_model(_tiny_model())
        rng = np.random.default_rng(3)
        config = space.random_config(rng)
        mutated = space.mutate(config, rng, prob=1.0)
        space.validate_config(mutated)
        assert mutated != config
        # Probability 0 keeps the config unchanged.
        assert space.mutate(config, rng, prob=0.0) == config

    def test_crossover_inherits_per_layer(self):
        space = SearchSpace.for_model(_tiny_model())
        rng = np.random.default_rng(4)
        first = space.uniform_config("stt")
        second = space.uniform_config("ptt")
        child = space.crossover(first, second, rng)
        space.validate_config(child)
        assert all(c in (a, b) for c, a, b in zip(child, first, second))

    def test_validate_rejects_foreign_choice(self):
        space = SearchSpace.for_model(_tiny_model())
        config = list(space.uniform_config("ptt"))
        config[0] = LayerChoice("ptt", 999)
        with pytest.raises(ValueError):
            space.validate_config(config)

    def test_encode_roundtrip_hashable(self):
        space = SearchSpace.for_model(_tiny_model())
        config = space.uniform_config("htt", rank_fraction=0.5)
        key = space.encode(config)
        assert isinstance(hash(key), int)
        assert key == tuple(c.encode() for c in config)


class TestRankGrid:
    def test_grid_is_ascending_admissible_and_snapped(self):
        grid = rank_grid_for_layer(64, 64, 3, snap=4)
        limit = min(max_tt_ranks(64, 64, (3, 3)))
        assert grid == sorted(set(grid))
        assert all(1 <= r <= limit for r in grid)
        # Divisor-friendly: everything above the floor is a multiple of snap.
        assert all(r % 4 == 0 for r in grid if r >= 4)
        assert grid[-1] == limit  # the full fraction reaches the limit

    def test_tiny_layer_falls_back_to_valid_ranks(self):
        grid = rank_grid_for_layer(4, 4, 3)
        assert grid[0] >= 1 and grid[-1] <= min(max_tt_ranks(4, 4, (3, 3)))

    def test_max_rank_cap_and_min_rank(self):
        grid = rank_grid_for_layer(128, 128, 3, max_rank=32, min_rank=8)
        assert all(8 <= r <= 32 for r in grid)

    def test_impossible_min_rank_raises(self):
        with pytest.raises(ValueError):
            rank_grid_for_layer(4, 4, 3, min_rank=100)
