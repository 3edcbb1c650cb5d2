"""Benchmark for Fig. 5: training time of STT / PTT / HTT across timesteps.

Fig. 5(b) plots per-batch training time against the simulation timestep; the
benchmarks below time exactly that for T = 2, 4, 6 and the three TT methods
on the width-scaled ResNet-18.  Fig. 5(a)'s accuracy series is exercised at a
reduced scale by the experiment driver test (see tests/test_experiments.py)
and by examples/reproduce_tables.py.

``test_htt_step_faster_than_ptt_ordering`` asserts Fig. 5(b)'s ordering at
T = 6 with paired trials, on the eager and the compiled ``O1`` train step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt
from repro.models.resnet import spiking_resnet18
from repro.snn.encoding import DirectEncoder
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_SCALE, median_speedup


def _make_model(method: str, timesteps: int):
    rng = np.random.default_rng(0)
    model = spiking_resnet18(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                             timesteps=timesteps, width_scale=BENCH_SCALE["width_scale"], rng=rng)
    convert_to_tt(model, variant=method, rank=8, timesteps=timesteps)
    return model


def _training_step(model, inputs, labels):
    model.zero_grad()
    outputs = model.run_timesteps(inputs)
    loss = mean_output_cross_entropy(outputs, labels)
    loss.backward()
    return float(loss.data)


@pytest.mark.parametrize("timesteps", [2, 4, 6])
@pytest.mark.parametrize("method", ["stt", "ptt", "htt"])
def test_fig5_training_time_vs_timestep(benchmark, method, timesteps):
    """Fig. 5(b): per-batch training time for each TT method at T = 2, 4, 6."""
    model = _make_model(method, timesteps)
    data = make_static_image_dataset(BENCH_SCALE["batch_size"], BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=0)
    inputs = DirectEncoder(timesteps)(data.images)
    _training_step(model, inputs, data.labels)     # warm-up
    loss = benchmark(_training_step, model, inputs, data.labels)
    assert np.isfinite(loss)


@pytest.mark.parametrize("compiled", [False, True], ids=["eager", "compiled-O1"])
def test_htt_step_faster_than_ptt_ordering(compiled):
    """Fig. 5(b) at T = 6: the HTT train step is faster than the PTT one.

    HTT skips the ``conv2 + conv3`` cross on its half timesteps, so with the
    same ranks it does strictly less work per step.  Both trainers step
    alternately (:func:`conftest.median_speedup`) and the assertion is the
    ordering itself, not a tuned threshold.
    """
    timesteps = 6
    data = make_static_image_dataset(BENCH_SCALE["batch_size"], BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=0)
    config = TrainingConfig(timesteps=timesteps, batch_size=BENCH_SCALE["batch_size"])
    trainers = {}
    for method in ("ptt", "htt"):
        trainer = BPTTTrainer(_make_model(method, timesteps), config,
                              compile=compiled, optimize="O1")
        trainer.train_step(data.images, data.labels)    # warm-up (capture when compiled)
        trainer.train_step(data.images, data.labels)
        trainers[method] = trainer

    speedup, ptt_s, htt_s = median_speedup(
        lambda: trainers["ptt"].train_step(data.images, data.labels),
        lambda: trainers["htt"].train_step(data.images, data.labels),
        calls=2, trials=7, attempts=3,
    )
    engine = "compiled O1" if compiled else "eager"
    print(f"\nResNet-18 T={timesteps} {engine} train step: PTT {ptt_s * 1e3:.1f} ms, "
          f"HTT {htt_s * 1e3:.1f} ms, paired PTT / HTT {speedup:.3f}")
    assert speedup > 1.0, (
        f"the {engine} HTT step must be faster than the PTT step, "
        f"got paired PTT / HTT = {speedup:.3f}"
    )
