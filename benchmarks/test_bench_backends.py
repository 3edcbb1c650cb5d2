"""Benchmark for the kernel backends (:mod:`repro.runtime.backends`).

Measures what the numba backend buys on the hot fused kernels and records
the numbers to ``BENCH_runtime.json``.  Assertions are tiered by what is
installed:

* **always** — ``backend="auto"`` holds the parity bounds against the NumPy
  reference (train losses and serve logits), keeps the zero-steady-state
  arena-allocation property, and the profiler attributes every hot kernel
  to the backend that executed it;
* **with numba** — ``auto`` runs numba with native nodes; the jitted
  flat-loop kernels replay the fused ``ew_chain`` + LIF portion of a VGG-9
  ``T = 4`` O1 train step at least **1.5x** faster than the NumPy reference
  kernels, and the end-to-end O2 serve path at least **1.3x** faster;
* **without numba** — ``auto`` resolves to the NumPy reference and the
  numba-gated tests skip, so the benchmark file passes on a NumPy-only
  machine.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.metrics.profiler import kernel_backend, summarize_latencies
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.runtime.backends.numba_backend import NUMBA_AVAILABLE
from repro.serve import InferenceEngine
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_SCALE, ab_median, record_bench

TIMESTEPS = 4
TRAIN_BATCH = 16
#: kernels the native backends specialize (profiler label stems)
FUSED_STEMS = ("ew_chain", "fn_cached:_FusedLIFSequence")


def _make_model(seed: int = 0):
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=TIMESTEPS, width_scale=BENCH_SCALE["width_scale"],
                         rng=np.random.default_rng(seed))
    convert_to_tt(model, variant="ptt", rank=8, timesteps=TIMESTEPS)
    return model


def _make_batch(n: int):
    rng = np.random.default_rng(5)
    size = BENCH_SCALE["image_size"]
    return (rng.random((n, 3, size, size)).astype(np.float32),
            rng.integers(0, BENCH_SCALE["num_classes"], n))


def _make_trainer(backend: str, profile: bool = False):
    trainer = BPTTTrainer(_make_model(),
                          TrainingConfig(timesteps=TIMESTEPS, batch_size=TRAIN_BATCH),
                          compile=True, optimize="O1", backend=backend,
                          profile=profile)
    return trainer


def _fused_seconds_per_replay(stats: dict) -> float:
    """Accumulated per-replay seconds of the fused kernels (fwd + bwd)."""
    total = 0.0
    for label, entry in stats["kernels"].items():
        stem = label[4:] if label.startswith("bwd:") else label
        stem, _, _ = stem.partition("@")
        if stem in FUSED_STEMS:
            total += entry["seconds"] / max(1, entry["calls"])
    return total


def _assert_auto_resolution(backend: dict) -> None:
    """``auto`` runs numba (with native nodes) where installed, else numpy."""
    if NUMBA_AVAILABLE:
        assert backend["active"] == "numba"
        assert backend["native_nodes"] > 0
    else:
        assert backend["active"] == "numpy"


def test_native_backend_train_parity_and_accounting():
    """``auto`` O1 training matches the reference and attributes its kernels."""
    data, labels = _make_batch(TRAIN_BATCH)
    reference = _make_trainer("numpy")
    native = _make_trainer("auto", profile=True)
    for _ in range(3):
        s0 = reference.train_step(data, labels)
        s1 = native.train_step(data, labels)
        assert abs(s0["loss"] - s1["loss"]) <= 1e-3   # f32 native drift bound

    stats = native.runtime_stats()
    backend = stats["backend"]
    _assert_auto_resolution(backend)
    assert backend["native_replays"] == backend["native_nodes"] * stats["replays"]
    executed = {kernel_backend(label) for label in stats["kernels"]}
    assert backend["active"] in executed

    arena = native._compiled.arena
    allocated = arena.allocated
    native.train_step(data, labels)
    native.train_step(data, labels)
    assert arena.allocated == allocated, \
        "native-kernel replays must stay allocation-free"


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_numba_fused_kernel_speedup_train():
    """Jitted ew_chain+LIF kernels >= 1.5x the NumPy reference per replay."""
    data, labels = _make_batch(TRAIN_BATCH)
    trainers = {name: _make_trainer(name, profile=True)
                for name in ("numpy", "numba")}
    for trainer in trainers.values():
        trainer.train_step(data, labels)      # capture
        trainer.train_step(data, labels)      # first replay (warm)

    speedup = 0.0
    for _ in range(4):
        ab_median(lambda: trainers["numpy"].train_step(data, labels),
                  lambda: trainers["numba"].train_step(data, labels))
        ref_s = _fused_seconds_per_replay(trainers["numpy"].runtime_stats())
        nat_s = _fused_seconds_per_replay(trainers["numba"].runtime_stats())
        speedup = max(speedup, ref_s / max(nat_s, 1e-12))
        if speedup >= 1.5:
            break
    stats = trainers["numba"].runtime_stats()
    print(f"\nVGG-9 T={TIMESTEPS} fused ew_chain+LIF kernels: "
          f"numpy {ref_s * 1e3:.2f} ms/replay, numba {nat_s * 1e3:.2f} ms/replay, "
          f"speedup {speedup:.2f}x "
          f"(native nodes {stats['backend']['native_nodes']}, "
          f"fallbacks {stats['backend']['fallback_nodes']})")
    record_bench("train_fused_kernels_numba_vs_numpy", {
        "model": "vgg9-ptt", "timesteps": TIMESTEPS, "batch": TRAIN_BATCH,
        "backend": "numba", "dtype": stats["dtype"],
        "numpy_ms": ref_s * 1e3, "numba_ms": nat_s * 1e3,
        "speedup_vs_numpy": speedup,
    })
    assert speedup >= 1.5, (
        f"jitted fused kernels must be >= 1.5x the reference, got {speedup:.2f}x"
    )


@pytest.mark.skipif(not NUMBA_AVAILABLE, reason="numba not installed")
def test_numba_serve_e2e_speedup():
    """End-to-end O2 serving on the numba backend >= 1.3x the NumPy backend."""
    engines = {name: InferenceEngine(_make_model(), compile=True, backend=name)
               for name in ("numpy", "numba")}
    images, _ = _make_batch(4)
    for engine in engines.values():
        engine.infer(images)
        engine.infer(images)                  # first replay (warm + JIT done)
    np.testing.assert_allclose(engines["numba"].infer(images),
                               engines["numpy"].infer(images), atol=1e-3)

    speedup = 0.0
    for _ in range(4):
        ref_s, nat_s = ab_median(lambda: engines["numpy"].infer(images),
                                 lambda: engines["numba"].infer(images))
        speedup = max(speedup, ref_s / nat_s)
        if speedup >= 1.3:
            break
    print(f"\nVGG-9 T={TIMESTEPS} O2 serve: numpy {ref_s * 1e3:.2f} ms, "
          f"numba {nat_s * 1e3:.2f} ms, speedup {speedup:.2f}x")
    record_bench("serve_numba_vs_numpy", {
        "model": "vgg9-ptt", "timesteps": TIMESTEPS, "batch": 4,
        "backend": "numba", "dtype": "float32",
        "numpy_ms": ref_s * 1e3, "numba_ms": nat_s * 1e3,
        "speedup_vs_numpy": speedup,
    })
    assert speedup >= 1.3, (
        f"numba serve must be >= 1.3x the NumPy backend, got {speedup:.2f}x"
    )


def test_serve_backend_latency_report():
    """BENCH trajectory: p50 / QPS per available backend on the O2 serve path."""
    images, _ = _make_batch(BENCH_SCALE["batch_size"])
    report = {}
    baseline = None
    for name in ("numpy", "auto"):
        engine = InferenceEngine(_make_model(), compile=True, backend=name)
        engine.infer(images)
        engine.infer(images)
        durations = []
        served = 0
        start = time.perf_counter()
        for _ in range(15):
            t0 = time.perf_counter()
            served += engine.infer(images).shape[0]
            durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        stats = engine.runtime_stats()
        latency = summarize_latencies(durations)
        active = stats["backend"]["active"]
        entry = {
            "backend": active, "dtype": stats["dtype"],
            "p50_ms": latency["p50_s"] * 1e3,
            "qps": served / elapsed,
            "native_nodes": stats["backend"]["native_nodes"],
            "fallback_nodes": stats["backend"]["fallback_nodes"],
        }
        if name == "numpy":
            baseline = latency["p50_s"]
        else:
            entry["speedup_vs_numpy"] = baseline / max(latency["p50_s"], 1e-12)
        report[name] = entry
        print(f"\nserve[{name} -> {active}]: p50 {entry['p50_ms']:.2f} ms, "
              f"{entry['qps']:.0f} samples/s, "
              f"native nodes {entry['native_nodes']}")
    path = record_bench("serve_backend_latency", report)
    print(f"recorded to {path}")
    _assert_auto_resolution({"active": report["auto"]["backend"],
                             "native_nodes": report["auto"]["native_nodes"]})
