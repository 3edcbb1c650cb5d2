"""Direct coding inside the model: static images run the stem once.

:meth:`SpikingModel.run_images` takes ``(N, C, H, W)`` images and must behave
as :meth:`SpikingModel.run_timesteps` on the :class:`DirectEncoder` output:
the same logits and batch-norm running buffers bit for bit, the same
gradients up to float rounding (the stem's gradient sums over time in
another order).  The callers — trainer (eager and compiled), evaluation,
data-parallel workers and the inference engine — take that path for 4-D
batches without an augmentation, through :func:`prepare_batch`.
"""

from __future__ import annotations

import copy
import multiprocessing

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.data.datasets import ArrayDataset
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import SpikingVGG, spiking_vgg9
from repro.nn.module import repeat_time
from repro.search import TTSupernet
from repro.serve.engine import InferenceEngine
from repro.snn.encoding import encode_batch, prepare_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer, evaluate_accuracy

TIMESTEPS = 3
ARCHS = {"vgg9": spiking_vgg9, "resnet18": spiking_resnet18}


def _model(arch, norm="bn", seed=0, timesteps=TIMESTEPS):
    return ARCHS[arch](num_classes=4, in_channels=3, timesteps=timesteps, width_scale=0.1,
                       norm=norm, rng=np.random.default_rng(seed))


def _images(batch=4, size=12, seed=5):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((batch, 3, size, size)).astype(np.float32)
    return images, rng.integers(0, 4, batch)


def _step(model, run, inputs, labels, mode):
    """One forward + backward; returns logits, gradients and buffers."""
    model.zero_grad()
    outputs = run(inputs, step_mode=mode)
    mean_output_cross_entropy(outputs, labels).backward()
    return (np.stack([o.data for o in outputs]),
            {name: p.grad for name, p in model.named_parameters()},
            {name: b.data.copy() for name, b in model.named_buffers()})


def _assert_bits_equal(actual, expected, name=""):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, name
    np.testing.assert_array_equal(actual.view(np.uint32), expected.view(np.uint32), err_msg=name)


def _assert_grads_close(actual, expected):
    """Each gradient within 1e-5 of its own largest magnitude."""
    assert actual.keys() == expected.keys()
    for name, grad in expected.items():
        other = actual[name]
        if grad is None or other is None:
            assert grad is None and other is None, name
            continue
        scale = max(float(np.abs(grad).max()), np.finfo(np.float32).tiny)
        assert float(np.abs(other - grad).max()) <= 1e-5 * scale, name


class TestModelParity:
    @pytest.mark.parametrize("mode", ["fused", "single"])
    @pytest.mark.parametrize("norm", ["bn", "tdbn", "tebn"])
    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_run_images_matches_encoded_sequence(self, arch, norm, mode):
        model = _model(arch, norm)
        twin = copy.deepcopy(model)
        images, labels = _images()
        logits, grads, buffers = _step(model, model.run_images, images, labels, mode)
        ref_logits, ref_grads, ref_buffers = _step(
            twin, twin.run_timesteps, encode_batch(images, TIMESTEPS), labels, mode)
        _assert_bits_equal(logits, ref_logits)
        assert buffers.keys() == ref_buffers.keys() and buffers
        for name, buffer in buffers.items():
            _assert_bits_equal(buffer, ref_buffers[name], name)
        _assert_grads_close(grads, ref_grads)

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_eval_mode_and_tt_models_match(self, arch):
        model = _model(arch)
        convert_to_tt(model, variant="htt", rank=3, timesteps=TIMESTEPS)
        model.eval()
        images, _ = _images(seed=8)
        logits = np.stack([o.data for o in model.run_images(images)])
        reference = np.stack([o.data for o in model.run_timesteps(encode_batch(images, TIMESTEPS))])
        _assert_bits_equal(logits, reference)

    def test_models_without_a_conv_stem_expand_at_the_input(self):
        """The generic fallback copies the images to T steps before the first layer."""
        model = SpikingVGG(["M", 8, "M"], num_classes=4, timesteps=TIMESTEPS,
                           rng=np.random.default_rng(0))
        twin = copy.deepcopy(model)
        images, labels = _images(size=8)
        logits, grads, buffers = _step(model, model.run_images, images, labels, "fused")
        ref_logits, ref_grads, ref_buffers = _step(
            twin, twin.run_timesteps, encode_batch(images, TIMESTEPS), labels, "fused")
        _assert_bits_equal(logits, ref_logits)
        for name, buffer in buffers.items():
            _assert_bits_equal(buffer, ref_buffers[name], name)
        for name, grad in grads.items():
            _assert_bits_equal(grad, ref_grads[name], name)

    def test_supernet_delegates_to_its_backbone(self):
        supernet = TTSupernet(_model("vgg9"), max_rank=4)
        images, _ = _images(seed=9)
        logits = np.stack([o.data for o in supernet.run_images(images)])
        reference = np.stack([o.data for o in
                              supernet.run_timesteps(encode_batch(images, TIMESTEPS))])
        _assert_bits_equal(logits, reference)

    def test_run_images_validates_input(self):
        model = _model("vgg9")
        images, _ = _images()
        with pytest.raises(ValueError, match="N, C, H, W"):
            model.run_images(encode_batch(images, TIMESTEPS))
        with pytest.raises(ValueError, match="step_mode"):
            model.run_images(images, step_mode="bogus")

    def test_predict_accepts_images_and_sequences(self):
        model = _model("resnet18")
        images, _ = _images(seed=4)
        np.testing.assert_array_equal(model.predict(images),
                                      model.predict(encode_batch(images, TIMESTEPS)))


class TestRepeatTime:
    def test_forward_copies_and_backward_sums_over_time(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((1, 2, 3)).astype(np.float32), requires_grad=True)
        out = repeat_time(x, 4)
        np.testing.assert_array_equal(out.data, np.repeat(x.data, 4, axis=0))
        upstream = rng.standard_normal((4, 2, 3)).astype(np.float32)
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_array_equal(x.grad, upstream.sum(axis=0, keepdims=True))

    @pytest.mark.parametrize("shape, timesteps", [((2, 3), 2), ((3,), 2), ((1, 3), 0)])
    def test_rejects_bad_arguments(self, shape, timesteps):
        with pytest.raises(ValueError):
            repeat_time(Tensor(np.zeros(shape, np.float32)), timesteps)


class TestCallers:
    def test_prepare_batch_keeps_images_unless_augmented(self):
        images, _ = _images()
        assert prepare_batch(images, TIMESTEPS).shape == images.shape
        seen = []

        def augment(batch):
            seen.append(batch.shape)
            return batch

        assert prepare_batch(images, TIMESTEPS, augment).shape == (TIMESTEPS,) + images.shape
        assert seen == [(TIMESTEPS,) + images.shape]
        events = encode_batch(images, TIMESTEPS + 1)
        assert prepare_batch(events, TIMESTEPS).shape == (TIMESTEPS,) + images.shape

    def test_augmented_batches_take_the_sequence_path(self, monkeypatch):
        model = _model("vgg9")
        calls = []
        monkeypatch.setattr(model, "run_images", lambda *a, **k: calls.append("images"))
        seen = []

        def augment(batch):
            seen.append(batch.ndim)
            return batch

        trainer = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=4),
                              augment=augment)
        images, labels = _images()
        trainer.train_step(images, labels)
        assert seen == [5] and calls == []

    @pytest.mark.parametrize("arch", sorted(ARCHS))
    def test_compiled_o1_losses_equal_eager(self, arch):
        model = _model(arch)
        twin = copy.deepcopy(model)
        config = TrainingConfig(timesteps=TIMESTEPS, batch_size=4, learning_rate=0.05)
        compiled = BPTTTrainer(model, config, compile=True, optimize="O1")
        eager = BPTTTrainer(twin, config)
        for step in range(3):
            images, labels = _images(seed=20 + step)
            stats = compiled.train_step(images, labels)
            assert stats["replayed"] == (1.0 if step else 0.0)
            assert stats["loss"] == eager.train_step(images, labels)["loss"]
        for (name, p), (_, q) in zip(model.named_parameters(), twin.named_parameters()):
            _assert_bits_equal(p.data, q.data, name)
        for (name, b), (_, c) in zip(model.named_buffers(), twin.named_buffers()):
            _assert_bits_equal(b.data, c.data, name)

    def test_first_train_step_loss_matches_the_sequence_path(self):
        model = _model("resnet18", norm="tebn")
        twin = copy.deepcopy(model)
        config = TrainingConfig(timesteps=TIMESTEPS, batch_size=4)
        images, labels = _images()
        direct = BPTTTrainer(model, config).train_step(images, labels)
        encoded = BPTTTrainer(twin, config, augment=lambda b: b).train_step(images, labels)
        assert direct["loss"] == encoded["loss"]

    def test_image_and_sequence_batches_get_their_own_plans(self):
        trainer = BPTTTrainer(_model("vgg9"), TrainingConfig(timesteps=TIMESTEPS, batch_size=4),
                              compile=True)
        images, labels = _images()
        trainer.train_step(images, labels)
        trainer.train_step(encode_batch(images, TIMESTEPS), labels)
        trainer.train_step(images, labels)
        stats = trainer.runtime_stats()
        assert stats["captures"] == 2 and stats["replays"] == 1

    def test_evaluate_accuracy_matches_the_sequence_path(self):
        model = _model("vgg9")
        images, labels = _images(batch=8)
        dataset = ArrayDataset(images, labels)
        direct = evaluate_accuracy(model, dataset, batch_size=4)
        encoded = evaluate_accuracy(model, dataset, batch_size=4, augment=lambda b: b)
        assert direct == encoded


class TestServing:
    def _engines(self):
        model = _model("vgg9")
        convert_to_tt(model, variant="ptt", rank=3, timesteps=TIMESTEPS)
        BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=4)).train_step(
            *_images(seed=30))
        return (InferenceEngine(model), InferenceEngine(model, compile=True),
                InferenceEngine(model, compile=True, optimize="O1"))

    def test_engines_serve_images_as_the_encoded_sequence(self):
        eager, o2, o1 = self._engines()
        for batch in (1, 3, 8):
            images, _ = _images(batch=batch, seed=40 + batch)
            sequence = encode_batch(images, TIMESTEPS)
            for engine in (eager, o2, o1):
                _assert_bits_equal(engine.infer(images), engine.infer(sequence))
            _assert_bits_equal(o1.infer(images), eager.infer(images))
            np.testing.assert_allclose(o2.infer(images), eager.infer(images), atol=1e-5)

    def test_o2_image_plans_still_fold_the_stem_norm(self):
        _, o2, _ = self._engines()
        images, _ = _images(batch=4)
        o2.infer(encode_batch(images, TIMESTEPS))
        folded_sequence = o2.runtime_stats()["optimizer"]["folded_bn"]
        o2.infer(images)
        stats = o2.runtime_stats()
        assert stats["plans"] == 2
        assert stats["optimizer"]["folded_bn"] == folded_sequence > 0


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="data-parallel pool needs fork start method")
def test_data_parallel_workers_match_a_single_process():
    from repro.parallel import DataParallelTrainer

    def build():
        return _model("resnet18", norm="none", timesteps=2)

    config = TrainingConfig(timesteps=2, batch_size=8, learning_rate=0.05, seed=3)
    images, labels = _images(batch=8)
    single = BPTTTrainer(build(), config)
    with DataParallelTrainer(build(), config, num_workers=2) as parallel:
        for _ in range(2):
            reference = single.train_step(images, labels)
            assert abs(parallel.train_step(images, labels)["loss"] - reference["loss"]) <= 1e-6
