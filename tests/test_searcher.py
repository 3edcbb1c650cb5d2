"""End-to-end tests for the search pipeline (warm-up → explore → serve)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_static_image_dataset
from repro.hardware.accelerator import ExistingAcceleratorModel
from repro.models.builder import count_tt_layers
from repro.models.specs import vgg_layer_specs
from repro.models.vgg import VGG9_CONFIG, spiking_vgg9
from repro.search import (
    EvolutionarySearch,
    RandomSearch,
    SearchConfig,
    Searcher,
    TTSupernet,
)
from repro.search.pareto import dominates
from repro.serve import InferenceServer, ModelRegistry
from repro.tt.layers import TTConv2dBase


def _supernet(seed: int = 0, width_scale: float = 0.15) -> TTSupernet:
    model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                         width_scale=width_scale, rng=np.random.default_rng(seed))
    return TTSupernet(model, max_rank=8)


def _datasets():
    train = make_static_image_dataset(128, 4, height=14, width=14, noise=0.25, seed=1)
    val = make_static_image_dataset(48, 4, height=14, width=14, noise=0.25, seed=2)
    return train, val


SPECS = vgg_layer_specs(VGG9_CONFIG, num_classes=4)


def _searcher(strategy, accelerator=None, **config_overrides):
    config = dict(warmup_epochs=4, batch_size=16, eval_batch_size=48,
                  learning_rate=0.1, cost_metric="macs", finetune_epochs=0, seed=0)
    config.update(config_overrides)
    train, val = _datasets()
    return Searcher(_supernet(), train, val, SPECS,
                    config=SearchConfig(**config), strategy=strategy,
                    accelerator=accelerator)


class TestSearcherEndToEnd:
    def test_evolutionary_run_produces_a_pareto_front_and_serves(self):
        searcher = _searcher(
            EvolutionarySearch(population_size=8, generations=2, parents=4, elite=2),
            finetune_epochs=1,
        )
        result = searcher.run()

        # Warm-up trained the supernet.
        assert len(result.warmup_history) == 4
        assert all(np.isfinite(epoch.loss) for epoch in result.warmup_history)

        # The front is non-empty, mutually non-dominated and complete: every
        # evaluated candidate is on it or dominated by a point on it.
        front = result.front
        assert front
        assert not any(dominates(a, b) for a in front for b in front if a is not b)
        assert all(any(p.config == q.config or dominates(q, p) for q in front)
                   for p in result.evaluated)
        costs = [p.cost.scalar("macs") for p in front]
        accs = [p.accuracy for p in front]
        assert costs == sorted(costs)
        assert accs == sorted(accs)  # non-dominated => accuracy rises with cost
        assert result.winner in front

        # The winner materialised, fine-tuned and serves its TT cores.
        assert len(result.finetune_history) == 1
        tt_layers = sum(1 for c in result.winner.config if c.format != "dense")
        registry = ModelRegistry()
        server = InferenceServer(registry, max_batch_size=8, max_wait_ms=2.0)
        try:
            result.publish(server, "searched",
                           warmup_sample=np.zeros((3, 14, 14), np.float32))
            served = registry.get("searched")
            assert served.merged_layers == 0
            assert count_tt_layers(served.model) == tt_layers
            logits = server.infer("searched", np.zeros((3, 14, 14), np.float32),
                                  timeout=60)
            assert logits.shape == (4,) and np.isfinite(logits).all()
        finally:
            server.close()

    def test_random_strategy_with_energy_cost(self):
        searcher = _searcher(RandomSearch(num_samples=6),
                             accelerator=ExistingAcceleratorModel(),
                             cost_metric="energy_pj", warmup_epochs=1)
        result = searcher.run()
        assert 1 <= len(result.evaluated) <= 6
        assert all(p.cost.energy_pj is not None and p.cost.energy_pj > 0
                   for p in result.evaluated)
        assert len(result.front) >= 1

    def test_winner_is_bitwise_reproducible_from_supernet(self):
        searcher = _searcher(RandomSearch(num_samples=4), warmup_epochs=1)
        result = searcher.run()
        # Materialising the winning config again yields identical weights.
        again = result.supernet.materialise(result.winner.config)
        for (name_a, p_a), (name_b, p_b) in zip(result.model.named_parameters(),
                                                again.named_parameters()):
            assert name_a == name_b
            assert np.array_equal(p_a.data, p_b.data)

    def test_evaluation_cache_reuses_points(self):
        searcher = _searcher(RandomSearch(num_samples=3), warmup_epochs=0)
        config = searcher.space.uniform_config("ptt")
        first = searcher.evaluate_config(config)
        second = searcher.evaluate_config(config)
        assert first is second

    def test_spec_count_mismatch_raises(self):
        train, val = _datasets()
        bad_specs = [s for s in SPECS if not s.decomposable]
        with pytest.raises(ValueError):
            Searcher(_supernet(), train, val, bad_specs)

    def test_htt_cost_follows_the_supernet_schedule(self):
        # An all-full schedule means HTT never takes the short path, so its
        # cost must equal PTT's (the searcher derives half_timesteps from the
        # schedule the supernet actually executes).
        train, val = _datasets()
        model = spiking_vgg9(num_classes=4, in_channels=3, timesteps=2,
                             width_scale=0.15, rng=np.random.default_rng(0))
        all_full = Searcher(TTSupernet(model, max_rank=8, schedule="FF"),
                            train, val, SPECS,
                            config=SearchConfig(warmup_epochs=0, seed=0))
        assert all_full.half_timesteps == 0
        htt = all_full.evaluate_config(all_full.space.uniform_config("htt"))
        ptt = all_full.evaluate_config(all_full.space.uniform_config("ptt"))
        assert htt.cost.macs == ptt.cost.macs
        # The default half-split schedule yields a strictly cheaper HTT.
        default = _searcher(RandomSearch(num_samples=1), warmup_epochs=0)
        assert default.half_timesteps == 1
        htt_default = default.evaluate_config(default.space.uniform_config("htt"))
        assert htt_default.cost.macs < ptt.cost.macs

    @pytest.mark.parametrize("overrides, message", [
        ({"selection": "kne"}, "selection mode"),
        ({"cost_metric": "flops"}, "cost metric"),
        ({"selection": "budget"}, "cost_budget"),
    ])
    def test_search_config_rejects_bad_inputs_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**overrides)

    @pytest.mark.parametrize("prob", [-0.1, 1.5, 7.0])
    def test_evolution_rejects_mutation_prob_outside_unit_interval(self, prob):
        with pytest.raises(ValueError, match="mutation_prob"):
            EvolutionarySearch(mutation_prob=prob)

    def test_energy_metric_requires_accelerator(self):
        train, val = _datasets()
        with pytest.raises(ValueError):
            Searcher(_supernet(), train, val, SPECS,
                     config=SearchConfig(cost_metric="energy_pj"))

    def test_materialised_winner_contains_only_concrete_layers(self):
        searcher = _searcher(RandomSearch(num_samples=3), warmup_epochs=0)
        result = searcher.run()
        from repro.search.supernet import EntangledTTConv2d

        assert not any(isinstance(m, EntangledTTConv2d)
                       for m in result.model.modules())
        tt_count = sum(1 for m in result.model.modules()
                       if isinstance(m, TTConv2dBase))
        expected = sum(1 for c in result.winner.config if c.format != "dense")
        assert tt_count == expected
