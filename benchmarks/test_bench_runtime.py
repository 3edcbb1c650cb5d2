"""Benchmark for the capture/plan/replay runtime (:mod:`repro.runtime`).

The compiled runtime eliminates the eager engine's steady-state overheads:
per-step autograd tape construction (tensors, closures, topological sort),
module dispatch, gradient-buffer reallocation (the arena reuses every
intermediate across steps) and — on the no-grad serving path — the backward
bookkeeping (im2col column retention, pooling argmax maps, LIF membrane
histories) that eager forwards always pay.  This file asserts the headline
guarantees:

* **training** — ``BPTTTrainer(compile=True)`` replays a VGG-9 ``T = 4``
  train step at least **1.3x** the eager step rate (same losses to 1e-6);
* **serving**  — the compiled ``InferenceEngine`` answers per-request
  (single-sample) forwards at least **1.2x** faster than the eager PR-2
  engine (same logits to 1e-5);
* **arena**    — steady-state replays perform **zero** fresh arena
  allocations, and the reuse statistics are reported in the BENCH output.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceEngine
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_SCALE, median_speedup, record_bench

TIMESTEPS = 4
TRAIN_BATCH = 16          # larger batch than BENCH_SCALE: allocator churn is
                          # the dominant eager overhead and grows with size


def _make_model():
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=TIMESTEPS, width_scale=BENCH_SCALE["width_scale"],
                         rng=np.random.default_rng(0))
    convert_to_tt(model, variant="ptt", rank=8, timesteps=TIMESTEPS)
    return model


def _make_batch(n: int):
    data = make_static_image_dataset(n, BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=0)
    return data.images, data.labels


def test_compiled_train_step_speedup_and_arena_reuse():
    """Compiled train step >= 1.3x eager on VGG-9 T=4, zero steady-state allocs.

    Timed with interleaved warm-started A/B trials compared by medians (see
    :func:`conftest.median_speedup`): the previous back-to-back measurement
    was flaky under full-suite load, where a throttled phase could land
    entirely on one side of the comparison.
    """
    data, labels = _make_batch(TRAIN_BATCH)
    trainers = {}
    for compile_flag in (False, True):
        trainer = BPTTTrainer(_make_model(),
                              TrainingConfig(timesteps=TIMESTEPS, batch_size=TRAIN_BATCH),
                              compile=compile_flag)
        trainer.train_step(data, labels)      # warm-up (capture on compiled path)
        trainer.train_step(data, labels)      # first replay
        trainers[compile_flag] = trainer

    compiled_trainer = trainers[True]
    arena = compiled_trainer._compiled.arena
    allocated_before = arena.allocated
    compiled_trainer.train_step(data, labels)
    compiled_trainer.train_step(data, labels)
    steady_state_allocs = arena.allocated - allocated_before

    speedup, eager_s, compiled_s = median_speedup(
        lambda: trainers[False].train_step(data, labels),
        lambda: compiled_trainer.train_step(data, labels),
        attempts=4,
    )
    stats = compiled_trainer.runtime_stats()
    print(f"\nVGG-9 T={TIMESTEPS} N={TRAIN_BATCH} train step: "
          f"eager {eager_s * 1e3:.1f} ms, compiled {compiled_s * 1e3:.1f} ms, "
          f"speedup {speedup:.2f}x")
    print(f"arena: {stats['arena']}, plan: {stats['plan']}, "
          f"steady-state new allocations: {steady_state_allocs}")
    record_bench("train_step_compiled_vs_eager", {
        "model": "vgg9-ptt", "timesteps": TIMESTEPS, "batch": TRAIN_BATCH,
        "eager_ms": eager_s * 1e3, "compiled_ms": compiled_s * 1e3,
        "speedup_vs_eager": speedup,
    })

    assert steady_state_allocs == 0, \
        "steady-state replays must not allocate fresh arena buffers"
    assert speedup >= 1.3, (
        f"compiled train step must be >= 1.3x the eager step, got {speedup:.2f}x"
    )


def test_compiled_serve_forward_speedup():
    """Compiled per-request serve forward >= 1.2x the eager PR-2 engine."""
    model = _make_model()
    eager_engine = InferenceEngine(model, merge=True)
    compiled_engine = InferenceEngine(model, merge=True, compile=True)
    images, _ = _make_batch(8)
    sample = images[0]

    logits_eager = eager_engine.infer(sample)
    logits_compiled = compiled_engine.infer(sample)
    np.testing.assert_allclose(logits_eager, logits_compiled, atol=1e-5)
    compiled_engine.infer(sample)             # first replay

    speedup, eager_s, compiled_s = median_speedup(
        lambda: eager_engine.infer(sample),
        lambda: compiled_engine.infer(sample),
        calls=20, trials=7, attempts=3,
    )
    stats = compiled_engine.runtime_stats()
    print(f"\nVGG-9 T={TIMESTEPS} per-request serve forward: "
          f"eager {eager_s * 1e3:.2f} ms, compiled {compiled_s * 1e3:.2f} ms, "
          f"speedup {speedup:.2f}x")
    print(f"arena reuse: {stats['arena']}")
    record_bench("serve_compiled_vs_eager", {
        "model": "vgg9-ptt", "timesteps": TIMESTEPS, "batch": 1,
        "eager_ms": eager_s * 1e3, "compiled_ms": compiled_s * 1e3,
        "speedup_vs_eager": speedup,
    })

    assert speedup >= 1.2, (
        f"compiled serve forward must be >= 1.2x the PR-2 engine, got {speedup:.2f}x"
    )


def test_compiled_burst_throughput(benchmark=None):
    """BENCH trajectory: compiled engine on mixed-size bursts (padded plans)."""
    model = _make_model()
    engine = InferenceEngine(model, merge=True, compile=True)
    rng = np.random.default_rng(1)
    bursts = [rng.random((n, 3, BENCH_SCALE["image_size"], BENCH_SCALE["image_size"]))
              .astype(np.float32) for n in (1, 3, 4, 7, 8, 2)]
    for burst in bursts:
        engine.infer(burst)                   # captures per padded bucket

    start = time.perf_counter()
    served = 0
    for _ in range(5):
        for burst in bursts:
            served += engine.infer(burst).shape[0]
    elapsed = time.perf_counter() - start
    stats = engine.runtime_stats()
    print(f"\nmixed-burst compiled serving: {served / elapsed:.0f} samples/s, "
          f"plans={stats['plans']}, captures={stats['captures']}, "
          f"replays={stats['replays']}")
    assert stats["plans"] <= 4                # power-of-two padding buckets
    assert served == 5 * sum(b.shape[0] for b in bursts)
