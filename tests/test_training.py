"""Tests for the BPTT trainer, metrics profiler and the Algorithm-1 pipeline."""

import numpy as np
import pytest

from repro.data.datasets import DataLoader
from repro.metrics.params import count_parameters, parameter_breakdown
from repro.metrics.profiler import TrainingTimeProfiler, time_training_step
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.snn.encoding import DirectEncoder
from repro.snn.loss import TETLoss
from repro.training.config import TrainingConfig
from repro.training.pipeline import TTSNNPipeline
from repro.training.trainer import BPTTTrainer, evaluate_accuracy
from repro.tt.layers import PTTConv2d


def tiny_factory(num_classes=4, timesteps=2):
    rng = np.random.default_rng(0)
    return lambda: spiking_resnet18(num_classes=num_classes, in_channels=3, timesteps=timesteps,
                                    width_scale=0.07, rng=rng)


class TestTrainingConfig:
    def test_defaults_match_paper(self):
        config = TrainingConfig()
        assert config.learning_rate == 0.1
        assert config.momentum == 0.9
        assert config.weight_decay == 1e-4
        assert config.tau_m == 0.25 and config.v_threshold == 0.5
        assert config.epochs == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(timesteps=0)
        with pytest.raises(ValueError):
            TrainingConfig(tt_variant="unknown")
        with pytest.raises(ValueError):
            TrainingConfig(optimizer="rmsprop")

    def test_schedule_horizon(self):
        assert TrainingConfig(epochs=10).schedule_horizon == 10
        assert TrainingConfig(epochs=10, lr_schedule_t_max=50).schedule_horizon == 50


class TestTrainer:
    def test_train_step_returns_finite_loss(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, learning_rate=0.05)
        model = tiny_factory()()
        trainer = BPTTTrainer(model, config)
        data, labels = next(iter(DataLoader(tiny_static_dataset, batch_size=8, shuffle=False)))
        stats = trainer.train_step(data, labels)
        assert np.isfinite(stats["loss"])
        assert 0.0 <= stats["accuracy"] <= 1.0

    def test_training_reduces_loss(self, tiny_static_dataset):
        """A few epochs on the tiny synthetic problem must reduce the training loss."""
        config = TrainingConfig(timesteps=2, epochs=4, batch_size=8, learning_rate=0.05, seed=1)
        model = tiny_factory()()
        trainer = BPTTTrainer(model, config)
        history = trainer.fit(tiny_static_dataset, epochs=4)
        assert history[-1].loss < history[0].loss

    def test_scheduler_decays_lr(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=3, batch_size=8, learning_rate=0.1)
        trainer = BPTTTrainer(tiny_factory()(), config)
        trainer.fit(tiny_static_dataset, epochs=3)
        assert trainer.optimizer.lr < 0.1

    def test_adam_optimizer_option(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, optimizer="adam",
                                learning_rate=1e-3)
        trainer = BPTTTrainer(tiny_factory()(), config)
        assert trainer.scheduler is None
        trainer.fit(tiny_static_dataset, epochs=1)

    def test_event_data_training(self, tiny_event_dataset):
        config = TrainingConfig(timesteps=3, epochs=1, batch_size=6, learning_rate=0.05)
        rng = np.random.default_rng(0)
        model = spiking_vgg9(num_classes=4, in_channels=2, timesteps=3, width_scale=0.1, rng=rng)
        trainer = BPTTTrainer(model, config, loss_fn=TETLoss(lamb=0.05))
        history = trainer.fit(tiny_event_dataset, epochs=1)
        assert len(history) == 1

    def test_evaluate_accuracy_bounds(self, tiny_static_dataset):
        model = tiny_factory()()
        accuracy = evaluate_accuracy(model, tiny_static_dataset, batch_size=8, timesteps=2)
        assert 0.0 <= accuracy <= 1.0


class TestProfilerAndMetrics:
    def test_time_training_step_positive(self, tiny_static_dataset):
        model = tiny_factory()()
        inputs = DirectEncoder(2)(tiny_static_dataset.images[:4])
        labels = tiny_static_dataset.labels[:4]
        duration = time_training_step(model, inputs, labels, repeats=1, warmup=0)
        assert duration > 0

    def test_profiler_reductions(self, tiny_static_dataset):
        profiler = TrainingTimeProfiler(repeats=1, warmup=0)
        inputs = DirectEncoder(2)(tiny_static_dataset.images[:4])
        labels = tiny_static_dataset.labels[:4]
        profiler.measure("baseline", tiny_factory()(), inputs, labels)
        profiler.measure("ptt", tiny_factory()(), inputs, labels)
        table = profiler.as_table()
        assert "reduction_pct" in table["ptt"]
        with pytest.raises(KeyError):
            profiler.reduction_vs("missing")

    def test_count_parameters_and_breakdown(self):
        model = tiny_factory()()
        total = count_parameters(model)
        breakdown = parameter_breakdown(model)
        assert total > 0
        assert sum(breakdown.values()) == total


class TestPipeline:
    def test_baseline_pipeline(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, learning_rate=0.05)
        pipeline = TTSNNPipeline(tiny_factory(), config)
        result = pipeline.run(tiny_static_dataset, epochs=1)
        assert result.method == "baseline"
        assert result.tt_layers == 0
        assert result.merged_layers == 0
        assert 0.0 <= result.accuracy <= 1.0

    def test_ptt_pipeline_decomposes_and_merges(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, learning_rate=0.05,
                                tt_variant="ptt", tt_rank=4)
        pipeline = TTSNNPipeline(tiny_factory(), config)
        result = pipeline.run(tiny_static_dataset, epochs=1, merge_after_training=True)
        assert result.method == "ptt"
        assert result.tt_layers == 16
        assert result.merged_layers == 16
        # After merging, no TT layers remain.
        assert not any(isinstance(m, PTTConv2d) for m in pipeline.model.modules())

    def test_tt_pipeline_has_fewer_parameters_than_baseline(self, tiny_static_dataset):
        base_config = TrainingConfig(timesteps=2, epochs=1, batch_size=8)
        tt_config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, tt_variant="stt", tt_rank=2)
        base_model = TTSNNPipeline(tiny_factory(), base_config).build()
        tt_model = TTSNNPipeline(tiny_factory(), tt_config).build()
        assert count_parameters(tt_model) < count_parameters(base_model)

    def test_htt_pipeline_with_schedule(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, tt_variant="htt",
                                tt_rank=3, htt_schedule="FH")
        pipeline = TTSNNPipeline(tiny_factory(timesteps=2), config)
        result = pipeline.run(tiny_static_dataset, epochs=1, merge_after_training=False)
        assert result.tt_layers == 16

    def test_refused_htt_merge_fails_before_training(self, tiny_static_dataset, monkeypatch):
        """The default merge of an HTT model with half steps raises right after the build."""
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, tt_variant="htt",
                                tt_rank=3, htt_schedule="FH")
        pipeline = TTSNNPipeline(tiny_factory(timesteps=2), config)
        built = {}
        build = pipeline.build

        def recording_build():
            model = build()
            built.update({name: p.data.copy() for name, p in model.named_parameters()})
            return model

        monkeypatch.setattr(pipeline, "build", recording_build)
        monkeypatch.setattr(pipeline, "train",
                            lambda *args, **kwargs: pytest.fail("trained before the check"))
        with pytest.raises(ValueError, match="cannot merge an HTT layer"):
            pipeline.run(tiny_static_dataset, epochs=1)
        params = dict(pipeline.model.named_parameters())
        assert built and params.keys() == built.keys()
        for name, value in built.items():
            np.testing.assert_array_equal(params[name].data, value, err_msg=name)

    def test_pipeline_vbmf_rank_policy(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=8, tt_variant="ptt",
                                tt_rank="vbmf")
        model = TTSNNPipeline(tiny_factory(), config).build()
        assert any(isinstance(m, PTTConv2d) for m in model.modules())

    def test_merge_before_build_raises(self):
        pipeline = TTSNNPipeline(tiny_factory(), TrainingConfig(timesteps=2, epochs=1))
        with pytest.raises(RuntimeError):
            pipeline.merge()

    def test_profile_batch_timing(self, tiny_static_dataset):
        config = TrainingConfig(timesteps=2, epochs=1, batch_size=4, tt_variant="ptt", tt_rank=3)
        pipeline = TTSNNPipeline(tiny_factory(), config)
        inputs = DirectEncoder(2)(tiny_static_dataset.images[:4])
        result = pipeline.run(tiny_static_dataset, epochs=1,
                              profile_batch={"inputs": inputs,
                                             "labels": tiny_static_dataset.labels[:4]},
                              merge_after_training=False)
        assert result.training_step_time_s > 0
        assert "parameters_M" in result.as_dict()
