"""Tests for the entangled TT supernet.

The load-bearing guarantee is the **entanglement invariant**: a subnet
sampled from the supernet produces *bitwise-identical* logits to a standalone
model built with the same (format, rank) configuration and copied core
slices.  Everything else — gradient locality of sliced training and
compiled-runtime integration — builds on it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.vgg import spiking_vgg9
from repro.search import EntangledTTConv2d, LayerChoice, SearchSpace, TTSupernet
from repro.search.space import LayerSearchSpace
from repro.serve.engine import InferenceEngine
from repro.snn.functional import reset_model_state
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer
from repro.tt.layers import HTTConv2d, PTTConv2d, STTConv2d


def _model(seed: int = 0, timesteps: int = 2):
    return spiking_vgg9(num_classes=4, in_channels=3, timesteps=timesteps,
                        width_scale=0.1, rng=np.random.default_rng(seed))


def _supernet(seed: int = 0, timesteps: int = 2, **kwargs) -> TTSupernet:
    return TTSupernet(_model(seed, timesteps), max_rank=8, **kwargs)


def _batch(seed: int = 0, timesteps: int = 2, n: int = 3):
    rng = np.random.default_rng(seed + 100)
    return rng.random((timesteps, n, 3, 12, 12)).astype(np.float32)


def _logits(model, batch, step_mode=None):
    reset_model_state(model)
    return [out.data.copy() for out in model.run_timesteps(batch, step_mode=step_mode)]


class TestEntanglementInvariant:
    @pytest.mark.parametrize("fmt", ["stt", "ptt", "htt", "dense"])
    @pytest.mark.parametrize("step_mode", ["fused", "single"])
    def test_sampled_subnet_is_bitwise_identical_to_materialised(self, fmt, step_mode):
        net = _supernet()
        config = []
        for index, layer in enumerate(net.space.layers):
            # Exercise different ranks across layers.
            rank = layer.ranks[index % len(layer.ranks)] if fmt != "dense" else 0
            config.append(LayerChoice(fmt, rank))
        net.apply_config(config)
        concrete = net.materialise(config)
        net.eval()
        concrete.eval()
        batch = _batch()
        for ours, theirs in zip(_logits(net, batch, step_mode),
                                _logits(concrete, batch, step_mode)):
            assert np.array_equal(ours, theirs)  # bitwise, not approx

    def test_mixed_format_config_bitwise(self):
        net = _supernet()
        formats = ["dense", "stt", "ptt", "htt", "ptt"]
        config = [LayerChoice(fmt, 0 if fmt == "dense" else layer.ranks[-1])
                  for fmt, layer in zip(formats, net.space.layers)]
        net.apply_config(config)
        concrete = net.materialise(config)
        net.eval()
        concrete.eval()
        batch = _batch()
        for ours, theirs in zip(_logits(net, batch), _logits(concrete, batch)):
            assert np.array_equal(ours, theirs)

    def test_materialised_layers_have_expected_types(self):
        net = _supernet()
        config = [LayerChoice(f, 0 if f == "dense" else 4)
                  for f in ("dense", "stt", "ptt", "htt", "ptt")]
        concrete = net.materialise(config)
        kinds = {"stt": STTConv2d, "ptt": PTTConv2d, "htt": HTTConv2d}
        for name, (fmt, _) in zip(net.layer_names, net.space.encode(config)):
            module = dict(concrete.named_modules())[name]
            if fmt == "dense":
                assert not isinstance(module, (STTConv2d, PTTConv2d, HTTConv2d))
            else:
                assert isinstance(module, kinds[fmt])
        # HTT schedule and timestep count propagate.
        htt = dict(concrete.named_modules())[net.layer_names[3]]
        assert htt.timesteps == net.timesteps
        assert htt.schedule == net.layers()[3].schedule

    def test_strided_resnet_winner_merges_exactly_for_serving(self):
        """Default stride_mode='last' keeps the Eq.-6 merge exact on strided layers."""
        from repro.models.resnet import spiking_resnet18

        model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=2,
                                 width_scale=0.1, rng=np.random.default_rng(0))
        net = TTSupernet(model, max_rank=8)
        net.apply_config(net.space.uniform_config("ptt", rank_fraction=0.5))
        concrete = net.materialise()
        concrete.eval()
        engine = InferenceEngine(concrete, merge=True)   # deep-copies, merges (Eq. 6)
        batch = np.random.default_rng(1).random((3, 3, 16, 16)).astype(np.float32)
        reset_model_state(concrete)
        from repro.autograd.tensor import no_grad

        with no_grad():
            outputs = concrete.run_timesteps(
                np.repeat(batch[None], 2, axis=0), step_mode="fused")
            unmerged = sum(out.data for out in outputs) / len(outputs)
        merged = engine.infer(batch)
        np.testing.assert_allclose(merged, unmerged, atol=1e-5)

    def test_materialised_model_serves_merged(self):
        net = _supernet()
        net.apply_config(net.space.uniform_config("ptt"))
        concrete = net.materialise()
        engine = InferenceEngine(concrete, merge=True)
        assert engine.merged_layers == len(net.layer_names)
        logits = engine.infer(np.zeros((3, 12, 12), np.float32))
        assert logits.shape == (4,) and np.isfinite(logits).all()


class TestEntangledTraining:
    def test_gradients_stay_inside_the_sampled_slice(self):
        net = _supernet()
        rank = 4
        net.apply_config(net.space.uniform_config("ptt", rank_fraction=0.0))
        config = [LayerChoice("ptt", rank) for _ in net.space.layers]
        net.apply_config(config)
        trainer = BPTTTrainer(net, TrainingConfig(timesteps=2, batch_size=4, epochs=1))
        rng = np.random.default_rng(0)
        trainer.train_step(rng.random((4, 3, 12, 12)).astype(np.float32),
                           rng.integers(0, 4, 4))
        for layer in net.layers():
            grad1 = layer.conv1.weight.grad
            assert grad1 is not None
            assert np.abs(grad1[:rank]).max() > 0          # sampled slice trains
            assert np.abs(grad1[rank:]).max() == 0         # the rest is untouched
            grad2 = layer.conv2.weight.grad
            assert np.abs(grad2[:rank, :rank]).max() > 0
            assert np.abs(grad2[rank:]).max() == 0
            assert np.abs(grad2[:, rank:]).max() == 0
            # The dense branch is inactive for a TT choice.
            assert layer.dense.weight.grad is None or \
                np.abs(layer.dense.weight.grad).max() == 0

    def test_dense_choice_trains_only_the_dense_weights(self):
        net = _supernet()
        net.apply_config(net.space.uniform_config("dense"))
        trainer = BPTTTrainer(net, TrainingConfig(timesteps=2, batch_size=4, epochs=1))
        rng = np.random.default_rng(1)
        trainer.train_step(rng.random((4, 3, 12, 12)).astype(np.float32),
                           rng.integers(0, 4, 4))
        for layer in net.layers():
            assert np.abs(layer.dense.weight.grad).max() > 0
            assert layer.conv1.weight.grad is None

    def test_larger_rank_shares_the_smaller_ranks_slice(self):
        """Training rank r moves exactly the weights every rank >= r also uses."""
        net = _supernet()
        layer = net.layers()[0]
        small = layer.conv1.weight.data[:4].copy()
        net.apply_config([LayerChoice("ptt", 4) for _ in net.space.layers])
        trainer = BPTTTrainer(net, TrainingConfig(timesteps=2, batch_size=4, epochs=1,
                                                  learning_rate=0.5))
        rng = np.random.default_rng(2)
        trainer.train_step(rng.random((4, 3, 12, 12)).astype(np.float32),
                           rng.integers(0, 4, 4))
        assert not np.array_equal(layer.conv1.weight.data[:4], small)
        # A max-rank materialisation sees the updated slice (entanglement).
        full = layer.materialise(LayerChoice("ptt", layer.max_rank))
        assert np.array_equal(full.conv1.weight.data[:4], layer.conv1.weight.data[:4])


class TestCompiledRuntimeIntegration:
    def test_fixed_config_captures_once_and_replays(self):
        net = _supernet()
        net.apply_config(net.space.uniform_config("ptt"))
        trainer = BPTTTrainer(net, TrainingConfig(timesteps=2, batch_size=4, epochs=1),
                              compile=True)
        rng = np.random.default_rng(4)
        data = rng.random((4, 3, 12, 12)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        flags = [trainer.train_step(data, labels)["replayed"] for _ in range(3)]
        assert flags == [0.0, 1.0, 1.0]
        stats = trainer.runtime_stats()
        assert stats["captures"] == 1 and stats["replays"] == 2

    def test_config_change_recaptures(self):
        net = _supernet()
        net.apply_config(net.space.uniform_config("ptt"))
        trainer = BPTTTrainer(net, TrainingConfig(timesteps=2, batch_size=4, epochs=1),
                              compile=True)
        rng = np.random.default_rng(5)
        data = rng.random((4, 3, 12, 12)).astype(np.float32)
        labels = rng.integers(0, 4, 4)
        trainer.train_step(data, labels)
        net.apply_config(net.space.uniform_config("stt", rank_fraction=0.5))
        assert trainer.train_step(data, labels)["replayed"] == 0.0  # re-capture
        net.apply_config(net.space.uniform_config("ptt"))
        assert trainer.train_step(data, labels)["replayed"] == 1.0  # cached plan
        stats = trainer.runtime_stats()
        assert stats["captures"] == 2 and stats["plans"] == 2

    def test_compiled_forward_follows_config_changes(self):
        """``compile(fn=run_timesteps)`` re-captures per config, replays seen ones."""
        net = _supernet()
        net.eval()
        batch = _batch()
        compiled = net.compile(fn=net.run_timesteps)
        configs = [net.space.uniform_config("ptt"),
                   net.space.uniform_config("htt", rank_fraction=0.5),
                   net.space.uniform_config("ptt"),
                   net.space.uniform_config("dense")]
        captures = []
        for config in configs:
            net.apply_config(config)
            eager = _logits(net, batch)
            reset_model_state(net)
            replayed = [out.copy() for out in compiled(batch)]
            captures.append(compiled.capture_count)
            for ours, theirs in zip(replayed, eager):
                assert np.array_equal(ours, theirs)  # bitwise, not approx
        assert captures == [1, 2, 2, 3]
        assert compiled.replay_count == 1 and compiled.plan_count == 3

    def test_compiled_matches_eager_over_steps(self):
        def build():
            net = _supernet(seed=7)
            net.apply_config(net.space.uniform_config("ptt", rank_fraction=0.5))
            return net

        eager_net, compiled_net = build(), build()
        cfg = TrainingConfig(timesteps=2, batch_size=4, epochs=1, learning_rate=0.05)
        eager = BPTTTrainer(eager_net, cfg, compile=False)
        compiled = BPTTTrainer(compiled_net, cfg, compile=True)
        rng = np.random.default_rng(8)
        for _ in range(3):
            data = rng.random((4, 3, 12, 12)).astype(np.float32)
            labels = rng.integers(0, 4, 4)
            loss_e = eager.train_step(data, labels)["loss"]
            loss_c = compiled.train_step(data, labels)["loss"]
            assert loss_e == pytest.approx(loss_c, abs=1e-6)
        for p_eager, p_compiled in zip(eager_net.parameters(), compiled_net.parameters()):
            np.testing.assert_allclose(p_eager.data, p_compiled.data, atol=1e-6)


class TestLayerBehaviour:
    def test_reset_time_rewinds_htt_counter(self):
        net = _supernet(timesteps=4)
        net.apply_config([LayerChoice("htt", 4) for _ in net.space.layers])
        batch = _batch(timesteps=4)
        first = _logits(net, batch)
        second = _logits(net, batch)  # run_timesteps resets state itself
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
        assert all(layer._t == 4 for layer in net.layers())

    def test_invalid_choice_rejected(self):
        net = _supernet()
        layer = net.layers()[0]
        with pytest.raises(ValueError):
            layer.set_choice("ptt", layer.max_rank + 1)
        with pytest.raises(ValueError):
            layer.set_choice("ptt", 0)

    def test_core_rank_must_be_admissible(self):
        conv_space = LayerSearchSpace(
            name="conv", in_channels=4, out_channels=4, kernel_size=(3, 3),
            stride=(1, 1), formats=("ptt",), ranks=(64,),
        )
        from repro.nn.layers import Conv2d

        with pytest.raises(ValueError):
            EntangledTTConv2d(Conv2d(4, 4, 3, padding=1), conv_space)

    def test_supernet_rejects_mismatched_space(self):
        model = _model()
        space = SearchSpace.for_model(model)
        # Drop one layer from the space: the supernet must notice.
        broken = SearchSpace(space.layers[:-1])
        with pytest.raises(ValueError):
            TTSupernet(_model(), space=broken)
