"""The serving snapshot is provably faithful to the trained TT model.

:class:`repro.serve.engine.InferenceEngine` snapshots a model and, by
default, serves its TT cores.  On calibrated VGG-9 PTT and HTT models whose
every LIF layer spikes, the compiled ``O2`` engine equals the eager engine
to ``1e-6`` and ``O0`` equals ``O2`` bitwise.

``merge=True`` merges the cores into dense kernels (Eq. 6).  For STT / PTT
models, and HTT with an all-full schedule, the merged engine produces the
*same logits* as the original TT model — whichever step mode (single-step
loop or fused) the original runs — to ``1e-5``.  An HTT schedule with half
timesteps cannot be merged (the dense kernel is the full path), and the
engine refuses it.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import assert_spiking, calibrate_norms

from repro.autograd.tensor import no_grad
from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt, count_tt_layers
from repro.models.resnet import spiking_resnet18
from repro.models.vgg import spiking_vgg9
from repro.serve.engine import InferenceEngine
from repro.snn.encoding import encode_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

TIMESTEPS = 3


def _make_tt_vgg(variant: str, seed: int = 0, schedule: str = "F" * TIMESTEPS):
    model = spiking_vgg9(num_classes=5, in_channels=3, timesteps=TIMESTEPS,
                         width_scale=0.1, rng=np.random.default_rng(seed))
    kwargs = {}
    if variant == "htt":
        # All-full by default: the merge reconstructs the full path exactly.
        kwargs = {"timesteps": TIMESTEPS, "schedule": schedule}
    convert_to_tt(model, variant=variant, rank=4, **kwargs)
    return model


def _train_briefly(model, rng) -> None:
    """A couple of optimisation steps so BN running stats are non-trivial."""
    trainer = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, epochs=1,
                                                batch_size=4, learning_rate=0.05, seed=0),
                          loss_fn=mean_output_cross_entropy)
    data = rng.random((4, 3, 12, 12)).astype(np.float32)
    labels = rng.integers(0, 5, size=4)
    for _ in range(2):
        trainer.train_step(data, labels)


def _mean_logits(model, inputs: np.ndarray, step_mode: str) -> np.ndarray:
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            outputs = model.run_timesteps(encode_batch(inputs, TIMESTEPS),
                                          step_mode=step_mode)
            return sum(o.data for o in outputs) / len(outputs)
    finally:
        if was_training:
            model.train()


@pytest.mark.parametrize("variant", ["stt", "ptt", "htt"])
@pytest.mark.parametrize("step_mode", ["single", "fused"])
def test_merged_engine_matches_tt_model(variant, step_mode, rng):
    """Engine logits == source TT model logits (both step modes) to 1e-5."""
    model = _make_tt_vgg(variant)
    _train_briefly(model, rng)
    inputs = rng.random((4, 3, 12, 12)).astype(np.float32)

    reference = _mean_logits(model, inputs, step_mode)
    engine = InferenceEngine(model, merge=True)
    assert engine.merged_layers == 5          # VGG-9 minus stem / classifier
    served = engine.infer(inputs)

    np.testing.assert_allclose(served, reference, atol=1e-5, rtol=1e-5)


@pytest.mark.parametrize("step_mode", ["single", "fused"])
def test_merged_engine_matches_strided_resnet(step_mode, rng):
    """stride_mode='last' keeps the merge exact on ResNet's strided TT layers."""
    model = spiking_resnet18(num_classes=4, in_channels=3, timesteps=2,
                             width_scale=0.07, rng=np.random.default_rng(0))
    convert_to_tt(model, variant="ptt", rank=4, stride_mode="last")
    inputs = rng.random((2, 3, 12, 12)).astype(np.float32)

    model.eval()
    with no_grad():
        outputs = model.run_timesteps(encode_batch(inputs, 2), step_mode=step_mode)
        reference = sum(o.data for o in outputs) / len(outputs)
    engine = InferenceEngine(model, merge=True)
    np.testing.assert_allclose(engine.infer(inputs), reference, atol=1e-5, rtol=1e-5)


def test_snapshot_leaves_source_model_untouched(rng):
    """Snapshotting must not merge, reset modes, or otherwise mutate the source."""
    model = _make_tt_vgg("ptt")
    model.train()
    tt_before = count_tt_layers(model)
    state_before = {k: v.copy() for k, v in model.state_dict().items()}

    engine = InferenceEngine(model, merge=True)
    assert engine.merged_layers == tt_before
    assert count_tt_layers(model) == tt_before       # source keeps its TT cores
    assert model.training                            # and its training mode
    assert count_tt_layers(engine.model) == 0        # snapshot is fully dense
    assert not engine.model.training
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(value, state_before[key])


def test_predictions_survive_the_merge(rng):
    """Argmax decisions agree between the TT model and its serving snapshot."""
    model = _make_tt_vgg("stt", seed=3)
    _train_briefly(model, rng)
    inputs = rng.random((8, 3, 12, 12)).astype(np.float32)
    engine = InferenceEngine(model, merge=True)
    np.testing.assert_array_equal(
        engine.predict(inputs),
        model.predict(encode_batch(inputs, TIMESTEPS)),
    )


@pytest.mark.parametrize("copy_model", [True, False])
def test_htt_with_half_steps_refuses_the_merge(copy_model):
    """A mixed HTT schedule has no dense equivalent: the merge is refused.

    The refusal comes before any layer is swapped, so an adopted model keeps
    every TT layer.
    """
    model = _make_tt_vgg("htt", schedule="FFH")
    tt_before = count_tt_layers(model)
    with pytest.raises(ValueError, match="half timesteps"):
        InferenceEngine(model, merge=True, copy_model=copy_model)
    assert count_tt_layers(model) == tt_before


def test_default_engine_keeps_tt_layers(rng):
    """The default engine serves the TT cores and leaves the source untouched."""
    model = _make_tt_vgg("htt", schedule="FFH")
    model.train()
    tt_before = count_tt_layers(model)
    state_before = {k: v.copy() for k, v in model.state_dict().items()}

    engine = InferenceEngine(model)
    assert engine.merged_layers == 0
    assert count_tt_layers(engine.model) == tt_before == 5
    assert not engine.model.training
    assert count_tt_layers(model) == tt_before
    assert model.training
    for key, value in model.state_dict().items():
        np.testing.assert_array_equal(value, state_before[key])


@pytest.mark.parametrize("variant", ["ptt", "htt"])
def test_default_engine_parity_on_a_spiking_model(variant):
    """Unmerged ``O2`` == eager to 1e-6 and ``O0`` == ``O2`` while every layer spikes.

    The perfbench VGG-9 geometry (w0.25, r = 8, ``T`` = 4, 16x16) with
    batch norms calibrated on class-structured images; HTT keeps its default
    ``FFHH`` schedule.
    """
    timesteps = 4
    model = spiking_vgg9(num_classes=10, in_channels=3, timesteps=timesteps,
                         width_scale=0.25, rng=np.random.default_rng(0))
    convert_to_tt(model, variant=variant, rank=8, timesteps=timesteps,
                  rng=np.random.default_rng(1))
    images = make_static_image_dataset(96, 10, height=16, width=16, seed=0).images
    calibrate_norms(model, images)
    batch = images[:16]
    assert_spiking(model, batch)

    eager = InferenceEngine(model)
    compiled_o0 = InferenceEngine(model, compile=True, optimize="O0")
    compiled_o2 = InferenceEngine(model, compile=True)
    assert eager.merged_layers == compiled_o2.merged_layers == 0
    served = compiled_o2.infer(batch)
    np.testing.assert_allclose(served, eager.infer(batch), atol=1e-6, rtol=0)
    np.testing.assert_array_equal(compiled_o0.infer(batch), served)
