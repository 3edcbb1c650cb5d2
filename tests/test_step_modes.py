"""Single-vs-fused step-mode equivalence: logits, losses and gradients.

The fused execution engine (fold timesteps into the batch for stateless
layers, one fused BPTT node for the LIF recurrence, channels-last layout
internally) must be a pure optimisation: for every architecture, TT variant
and timestep count it has to produce the same logits, the same loss and the
same parameter gradients as the single-step reference loop, to float32
rounding (asserted at ``1e-5``).
"""

import numpy as np
import pytest

from repro.autograd.tensor import Tensor
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.nn.layers import Conv2d
from repro.nn.module import SeqToBatch, fold_time, sequence_forward, unfold_time
from repro.snn.encoding import encode_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.snn.neurons import (LIFNeuron, SurrogateArctan, SurrogateRectangular,
                               SurrogateSigmoid, _FusedLIFSequence, lif_sequence)


TOL = dict(atol=1e-5, rtol=1e-5)


def _run_both_modes(model, inputs, labels):
    """Run one training forward+backward in each mode from identical state."""
    state = model.state_dict()
    results = {}
    for mode in ("single", "fused"):
        model.load_state_dict(state)
        model.zero_grad()
        outputs = model.run_timesteps(inputs, step_mode=mode)
        loss = mean_output_cross_entropy(outputs, labels)
        loss.backward()
        results[mode] = {
            "logits": np.stack([o.data for o in outputs]),
            "loss": float(loss.data),
            "grads": {name: None if p.grad is None else p.grad.copy()
                      for name, p in model.named_parameters()},
            "buffers": {name: b.data.copy() for name, b in model.named_buffers()},
        }
    return results["single"], results["fused"]


def _assert_equivalent(single, fused):
    np.testing.assert_allclose(single["logits"], fused["logits"], **TOL)
    assert single["loss"] == pytest.approx(fused["loss"], abs=1e-5)
    for name, grad in single["grads"].items():
        other = fused["grads"][name]
        if grad is None or other is None:
            # A parameter untouched by the schedule (e.g. HTT "HH") must be
            # untouched in both modes.
            assert grad is None and other is None, name
            continue
        np.testing.assert_allclose(grad, other, err_msg=name, **TOL)
    for name, buf in single["buffers"].items():
        np.testing.assert_allclose(buf, fused["buffers"][name], err_msg=name, **TOL)


def _make_batch(timesteps, batch=3, channels=3, size=12, classes=4, seed=7):
    rng = np.random.default_rng(seed)
    images = rng.standard_normal((batch, channels, size, size)).astype(np.float32)
    labels = rng.integers(0, classes, size=batch)
    return encode_batch(images, timesteps), labels


class TestDenseModels:
    @pytest.mark.parametrize("timesteps", [1, 2, 4])
    def test_vgg9(self, timesteps):
        model = spiking_vgg9(num_classes=4, timesteps=timesteps, width_scale=0.1,
                             rng=np.random.default_rng(0))
        inputs, labels = _make_batch(timesteps)
        _assert_equivalent(*_run_both_modes(model, inputs, labels))

    @pytest.mark.parametrize("timesteps", [1, 2, 4])
    def test_resnet18(self, timesteps):
        model = spiking_resnet18(num_classes=4, timesteps=timesteps, width_scale=0.07,
                                 rng=np.random.default_rng(0))
        inputs, labels = _make_batch(timesteps)
        _assert_equivalent(*_run_both_modes(model, inputs, labels))

    def test_eval_mode_uses_running_stats(self):
        model = spiking_vgg9(num_classes=4, timesteps=2, width_scale=0.1,
                             rng=np.random.default_rng(0))
        inputs, labels = _make_batch(2)
        model.run_timesteps(inputs)            # populate running stats
        model.eval()
        _assert_equivalent(*_run_both_modes(model, inputs, labels))


class TestTTModels:
    @pytest.mark.parametrize("variant", ["stt", "ptt", "htt"])
    @pytest.mark.parametrize("timesteps", [1, 2, 4])
    def test_vgg9_tt(self, variant, timesteps):
        model = spiking_vgg9(num_classes=4, timesteps=timesteps, width_scale=0.1,
                             rng=np.random.default_rng(0))
        convert_to_tt(model, variant=variant, rank=4, timesteps=timesteps)
        inputs, labels = _make_batch(timesteps)
        _assert_equivalent(*_run_both_modes(model, inputs, labels))

    @pytest.mark.parametrize("variant", ["ptt", "htt"])
    @pytest.mark.parametrize("timesteps", [2, 4])
    def test_resnet18_tt(self, variant, timesteps):
        model = spiking_resnet18(num_classes=4, timesteps=timesteps, width_scale=0.07,
                                 rng=np.random.default_rng(0))
        convert_to_tt(model, variant=variant, rank=4, timesteps=timesteps)
        inputs, labels = _make_batch(timesteps)
        _assert_equivalent(*_run_both_modes(model, inputs, labels))

    def test_htt_all_half_schedule(self):
        """Degenerate and interleaved HTT schedules keep mode equivalence.

        The fused path masks the half steps inside one ``cross_conv`` op, so
        the cases cover a single run of either kind, several full runs and a
        leading half run, with the stride on the first or the last 1x1.
        """
        cases = [("HH", "first"), ("FF", "first")]
        cases += [(schedule, stride_mode)
                  for schedule in ("FFFF", "HHHH", "FFHH", "HHFF", "FHFH", "HFFH", "FHHF")
                  for stride_mode in ("first", "last")]
        for schedule, stride_mode in cases:
            timesteps = len(schedule)
            model = spiking_resnet18(num_classes=4, timesteps=timesteps, width_scale=0.07,
                                     rng=np.random.default_rng(0))
            convert_to_tt(model, variant="htt", rank=4, timesteps=timesteps,
                          schedule=schedule, stride_mode=stride_mode)
            inputs, labels = _make_batch(timesteps)
            _assert_equivalent(*_run_both_modes(model, inputs, labels))


class TestNormVariants:
    @pytest.mark.parametrize("norm", ["bn", "tdbn", "tebn"])
    def test_resnet_norms(self, norm):
        model = spiking_resnet18(num_classes=4, timesteps=2, width_scale=0.07, norm=norm,
                                 rng=np.random.default_rng(0))
        inputs, labels = _make_batch(2)
        _assert_equivalent(*_run_both_modes(model, inputs, labels))


class TestStepModeAPI:
    def test_invalid_mode_rejected(self):
        model = spiking_vgg9(num_classes=4, timesteps=2, width_scale=0.1)
        with pytest.raises(ValueError):
            model.step_mode = "turbo"
        with pytest.raises(ValueError):
            model.run_timesteps(np.zeros((2, 1, 3, 8, 8), dtype=np.float32),
                                step_mode="turbo")

    def test_set_step_mode_chains(self):
        model = spiking_vgg9(num_classes=4, timesteps=2, width_scale=0.1)
        assert model.set_step_mode("single") is model
        assert model.step_mode == "single"

    def test_default_mode_is_fused(self):
        assert spiking_vgg9(num_classes=4, timesteps=2, width_scale=0.1).step_mode == "fused"
        assert spiking_resnet18(num_classes=4, timesteps=2, width_scale=0.07).step_mode == "fused"

    def test_predict_mode_override(self, rng):
        model = spiking_vgg9(num_classes=4, timesteps=2, width_scale=0.1,
                             rng=np.random.default_rng(0))
        model.eval()
        inputs = rng.random((2, 3, 3, 12, 12)).astype(np.float32)
        np.testing.assert_array_equal(model.predict(inputs, step_mode="single"),
                                      model.predict(inputs, step_mode="fused"))


class TestFusedPrimitives:
    def test_fold_unfold_roundtrip(self, rng):
        x = Tensor(rng.random((3, 2, 4, 5, 5)).astype(np.float32), requires_grad=True)
        folded = fold_time(x)
        assert folded.shape == (6, 4, 5, 5)
        restored = unfold_time(folded, 3)
        np.testing.assert_array_equal(restored.data, x.data)
        restored.sum().backward()
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_unfold_rejects_indivisible(self, rng):
        with pytest.raises(ValueError):
            unfold_time(Tensor(rng.random((5, 2)).astype(np.float32)), 3)

    def test_seq_to_batch_matches_per_step_loop(self, rng):
        conv = Conv2d(3, 5, 3, padding=1, rng=np.random.default_rng(0))
        adapter = SeqToBatch(conv)
        x = Tensor(rng.random((4, 2, 3, 8, 8)).astype(np.float32))
        fused = adapter(x)
        looped = Tensor.stack([conv(x[t]) for t in range(4)], axis=0)
        np.testing.assert_allclose(fused.data, looped.data, **TOL)
        assert list(dict(adapter.named_parameters())) == ["inner.weight"]

    def test_sequence_forward_falls_back_to_loop(self, rng):
        class Doubler:
            def __call__(self, x):
                return x * 2.0
        x = Tensor(rng.random((3, 2, 4)).astype(np.float32))
        out = sequence_forward(Doubler(), x)
        np.testing.assert_allclose(out.data, x.data * 2.0)

    def test_lif_sequence_matches_stepwise(self, rng):
        currents = rng.standard_normal((5, 2, 7)).astype(np.float32)
        neuron = LIFNeuron(tau_m=0.25, v_threshold=0.5)
        stepwise = []
        for t in range(5):
            stepwise.append(neuron(Tensor(currents[t])).data)
        fused = lif_sequence(Tensor(currents), tau_m=0.25, v_threshold=0.5)
        np.testing.assert_array_equal(fused.data, np.stack(stepwise))

    def test_lif_forward_sequence_bptt_gradient(self, rng):
        """Fused BPTT gradient equals the per-step tape gradient."""
        currents = rng.standard_normal((4, 3, 6)).astype(np.float32)
        for hard_reset in (True, False):
            for detach_reset in (True, False):
                x_single = Tensor(currents.copy(), requires_grad=True)
                neuron = LIFNeuron(hard_reset=hard_reset, detach_reset=detach_reset)
                out = Tensor.stack([neuron(x_single[t]) for t in range(4)], axis=0)
                (out * Tensor(np.arange(out.size, dtype=np.float32).reshape(out.shape))) \
                    .sum().backward()

                x_fused = Tensor(currents.copy(), requires_grad=True)
                neuron.reset_state()
                out_f = neuron.forward_sequence(x_fused)
                (out_f * Tensor(np.arange(out_f.size, dtype=np.float32).reshape(out_f.shape))) \
                    .sum().backward()
                np.testing.assert_allclose(x_single.grad, x_fused.grad, **TOL)

    def test_fused_sets_final_membrane(self, rng):
        currents = rng.standard_normal((3, 2, 4)).astype(np.float32)
        single = LIFNeuron()
        for t in range(3):
            single(Tensor(currents[t]))
        fused = LIFNeuron()
        fused.forward_sequence(Tensor(currents))
        np.testing.assert_allclose(single.membrane_potential.data,
                                   fused.membrane_potential.data, **TOL)


class TestFusedLIFKernel:
    """The fused LIF recurrence is the kernel eager steps and compiled plans
    both run; its two forward paths — :meth:`forward` and the
    rolling-membrane :meth:`forward_inference` — and its backward must agree
    with plain oracles."""

    TAU, THRESHOLD = 0.25, 0.5

    def _kernel(self, surrogate=None, hard_reset=True, detach_reset=True,
                initial_membrane=None):
        return _FusedLIFSequence(self.TAU, self.THRESHOLD,
                                 surrogate or SurrogateRectangular(),
                                 hard_reset, detach_reset, initial_membrane)

    @pytest.mark.parametrize("with_initial", [False, True])
    @pytest.mark.parametrize("hard_reset", [True, False])
    def test_forward_paths_match_recurrence(self, rng, hard_reset, with_initial):
        currents = rng.standard_normal((5, 2, 7)).astype(np.float32)
        initial = (rng.standard_normal((2, 7)).astype(np.float32)
                   if with_initial else None)
        post = np.zeros((2, 7), np.float32) if initial is None else initial.copy()
        want = []
        for t in range(5):
            membrane = post * np.float32(self.TAU) + currents[t]
            spike = (membrane >= self.THRESHOLD).astype(np.float32)
            if hard_reset:
                post = membrane * (1.0 - spike)
            else:
                post = membrane - spike * np.float32(self.THRESHOLD)
            want.append(spike)
        trained = self._kernel(hard_reset=hard_reset, initial_membrane=initial)
        served = self._kernel(hard_reset=hard_reset, initial_membrane=initial)
        np.testing.assert_array_equal(trained.forward(currents), np.stack(want))
        np.testing.assert_array_equal(served.forward_inference(currents),
                                      np.stack(want))
        np.testing.assert_array_equal(trained.final_membrane, post)
        np.testing.assert_array_equal(served.final_membrane, post)

    @pytest.mark.parametrize("detach_reset", [True, False])
    @pytest.mark.parametrize("hard_reset", [True, False])
    @pytest.mark.parametrize("surrogate", [
        SurrogateRectangular(1.0), SurrogateRectangular(0.5),
        SurrogateArctan(), SurrogateSigmoid(),
    ], ids=["rect1", "rect05", "arctan", "sigmoid"])
    def test_backward_matches_stepwise_tape(self, rng, surrogate, hard_reset,
                                            detach_reset):
        currents = rng.standard_normal((4, 3, 6)).astype(np.float32)
        weights = rng.standard_normal(currents.shape).astype(np.float32)

        x = Tensor(currents.copy(), requires_grad=True)
        neuron = LIFNeuron(tau_m=self.TAU, v_threshold=self.THRESHOLD,
                           surrogate=surrogate, hard_reset=hard_reset,
                           detach_reset=detach_reset)
        out = Tensor.stack([neuron(x[t]) for t in range(4)], axis=0)
        (out * Tensor(weights)).sum().backward()

        ctx = self._kernel(surrogate, hard_reset, detach_reset)
        np.testing.assert_array_equal(ctx.forward(currents), out.data)
        (grad,) = ctx.backward(weights)
        np.testing.assert_allclose(grad, x.grad, **TOL)


class TestTrainerIntegration:
    def test_trainer_fused_matches_single(self, tiny_static_dataset):
        from repro.data.datasets import DataLoader
        from repro.training.config import TrainingConfig
        from repro.training.trainer import BPTTTrainer

        data, labels = next(iter(DataLoader(tiny_static_dataset, batch_size=8, shuffle=False)))
        stats = {}
        for mode in ("single", "fused"):
            model = spiking_resnet18(num_classes=4, timesteps=2, width_scale=0.07,
                                     rng=np.random.default_rng(0))
            config = TrainingConfig(timesteps=2, epochs=1, batch_size=8,
                                    learning_rate=0.05, step_mode=mode)
            trainer = BPTTTrainer(model, config)
            stats[mode] = trainer.train_step(data, labels)
        assert stats["single"]["loss"] == pytest.approx(stats["fused"]["loss"], abs=1e-5)
        assert stats["single"]["accuracy"] == stats["fused"]["accuracy"]

    def test_config_rejects_bad_step_mode(self):
        from repro.training.config import TrainingConfig
        with pytest.raises(ValueError):
            TrainingConfig(step_mode="warp")
