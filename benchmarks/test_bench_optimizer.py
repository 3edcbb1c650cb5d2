"""Benchmark for the plan-time graph optimizer (:mod:`repro.runtime.optimizer`).

Acceptance thresholds:

* **serving** — an ``optimize="O2"`` compiled engine answers per-request
  forwards at least **1.5x** faster than the un-optimized ``"O0"`` replay
  (eval-BN folded into conv weights, frozen GEMM operands);
* **training** — an ``optimize="O1"`` compiled train step runs the same
  kernels as the ``"O0"`` replay minus the elided identity pool, so only
  its equivalence is asserted; its speed is printed, not bounded;
* **equivalence** — optimized logits and gradients stay within **1e-6** of
  the O0 replay (O1 is value-exact by construction);
* **arena** — optimized steady-state replays still perform **zero** fresh
  arena allocations.

Timing methodology: interleaved A/B trials (both sides sampled alternately
inside every trial so machine drift hits them equally), median-of-trials
compared.  The serving gate reads the median speedup of a fixed number of
such comparisons, all of them run: no attempt is picked after the fact and
none ends the series early, so noise moves the reading either way and a
lucky attempt cannot carry it over the bound.
"""

from __future__ import annotations

import numpy as np

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceEngine
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_SCALE, ab_median, median_speedup

TIMESTEPS = 4
TRAIN_BATCH = 16


def _make_model(seed: int = 0):
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=TIMESTEPS, width_scale=BENCH_SCALE["width_scale"],
                         rng=np.random.default_rng(seed))
    convert_to_tt(model, variant="ptt", rank=8, timesteps=TIMESTEPS)
    return model


def _make_batch(n: int):
    data = make_static_image_dataset(n, BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=0)
    return data.images, data.labels


def test_o1_train_step_equivalence_and_zero_allocs():
    """O1 compiled train step on VGG-9 T=4: grads <= 1e-6 of O0; 0 allocs."""
    data, labels = _make_batch(TRAIN_BATCH)
    config = TrainingConfig(timesteps=TIMESTEPS, batch_size=TRAIN_BATCH)
    trainer_o0 = BPTTTrainer(_make_model(), config, compile=True, optimize="O0")
    trainer_o1 = BPTTTrainer(_make_model(), config, compile=True, optimize="O1")
    # Warm-up: capture + first replays, checking equivalence along the way.
    for _ in range(3):
        s0 = trainer_o0.train_step(data, labels)
        s1 = trainer_o1.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= 1e-6
    grad_diff = max(
        float(np.abs(p0.grad - p1.grad).max())
        for (_, p0), (_, p1) in zip(trainer_o0.model.named_parameters(),
                                    trainer_o1.model.named_parameters())
    )
    assert grad_diff <= 1e-6, f"O1 grads must match O0 to 1e-6, got {grad_diff:.2e}"

    arena = trainer_o1._compiled.arena
    allocated_before = arena.allocated
    o0_s, o1_s = ab_median(lambda: trainer_o0.train_step(data, labels),
                           lambda: trainer_o1.train_step(data, labels), calls=3)
    steady_state_allocs = arena.allocated - allocated_before
    report = trainer_o1._compiled.runtime_stats()["optimizer"]
    print(f"\nVGG-9 T={TIMESTEPS} N={TRAIN_BATCH} train step: "
          f"O0 {o0_s * 1e3:.1f} ms, O1 {o1_s * 1e3:.1f} ms, ratio {o0_s / o1_s:.2f}x")
    print(f"optimizer: nodes {report['nodes_before']}->{report['nodes_after']}, "
          f"grad diff {grad_diff:.1e}")

    assert steady_state_allocs == 0, \
        "optimized steady-state replays must not allocate fresh arena buffers"


def test_o2_serve_forward_speedup_and_equivalence():
    """O2 compiled serve forward >= 1.5x the O0 replay; logits <= 1e-6; 0 allocs."""
    model = _make_model()
    data, labels = _make_batch(TRAIN_BATCH)
    # A couple of training steps give the batch norms non-trivial statistics,
    # so the eval-BN constant fold is exercised on meaningful values.
    warm = BPTTTrainer(model, TrainingConfig(timesteps=TIMESTEPS, batch_size=TRAIN_BATCH))
    for _ in range(2):
        warm.train_step(data, labels)

    engine_o0 = InferenceEngine(model, merge=True, compile=True, optimize="O0")
    engine_o2 = InferenceEngine(model, merge=True, compile=True, optimize="O2")
    sample = data[0]
    for call in range(3):                  # capture + replays
        logits_o0 = engine_o0.infer(sample)
        logits_o2 = engine_o2.infer(sample)
        diff = float(np.abs(logits_o0 - logits_o2).max())
        assert diff <= 1e-6, f"call {call}: O2 logits must match O0 to 1e-6, got {diff:.2e}"

    arena = engine_o2._compiled.arena
    allocated_before = arena.allocated
    speedup, o0_s, o2_s = median_speedup(
        lambda: engine_o0.infer(sample),
        lambda: engine_o2.infer(sample),
        calls=25,
    )
    steady_state_allocs = arena.allocated - allocated_before
    report = engine_o2._compiled.runtime_stats()["optimizer"]
    print(f"\nVGG-9 T={TIMESTEPS} per-request serve forward: "
          f"O0 {o0_s * 1e3:.2f} ms, O2 {o2_s * 1e3:.2f} ms, speedup {speedup:.2f}x")
    print(f"optimizer: nodes {report['nodes_before']}->{report['nodes_after']}, "
          f"bn folded {report['folded_bn']}, frozen {report['frozen']}")

    assert steady_state_allocs == 0
    assert report["folded_bn"] > 0 and report["frozen"] > 0
    assert speedup >= 1.5, (
        f"O2 compiled serve forward must be >= 1.5x the O0 replay, got {speedup:.2f}x"
    )

