"""Resilience overhead benchmark (:mod:`repro.resilience`).

Fault injection is only deployable in production code paths if the
*disabled* layer is free, so this file measures and asserts the budget the
resilience layer claims: with no :class:`FaultPlan` installed and numeric
guards off, the instrumented hot paths (train step, serve request) pay
**< 2%** over their uninstrumented cost.

A direct A/B cannot resolve a bound this small — run-to-run variance on a
shared CI runner exceeds 2% — so the cost is derived the same way the obs
benchmark derives its disabled-tracing bound: the per-call cost of one
disabled fault site (``faults.get_injector()`` returning ``None``) is
measured in a tight loop and multiplied by a generous over-estimate of the
sites a single step / request passes through, then compared against the
measured wall-clock of that step / request.

The numbers land in ``BENCH_resilience.json`` (gated alongside the other
sinks by ``tools/bench_check.py``) and in the EXPERIMENTS.md overhead rows.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.resilience import faults
from repro.serve import InferenceServer
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer

from conftest import BENCH_RESILIENCE_JSON, BENCH_SCALE, record_bench

TIMESTEPS = 4
SAMPLE_SHAPE = (3, BENCH_SCALE["image_size"], BENCH_SCALE["image_size"])

#: Over-estimate of disabled fault/guard sites one train step passes
#: through (loader prefetch + per-worker step sites + checkpoint hook +
#: trainer guard flag checks); the real path touches fewer.
SITES_PER_STEP = 16

#: Over-estimate for one served request (replica crash/slow sites + engine
#: guard flag + runtime guard flag).
SITES_PER_REQUEST = 16

#: Disabled resilience must stay within this fraction of either headline.
BUDGET = 0.02


def _measure_noop_site_ns(iterations: int = 200_000) -> float:
    """Per-call cost (ns) of a fault site while no plan is installed."""
    assert faults.get_injector() is None
    get_injector = faults.get_injector  # the attribute lookup a site pays
    start = time.perf_counter()
    for _ in range(iterations):
        if get_injector() is not None:  # pragma: no cover - disabled path
            raise AssertionError
    return (time.perf_counter() - start) / iterations * 1e9


def _median_seconds(fn, calls: int = 9) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def test_resilience_disabled_overhead():
    """Disabled fault injection < 2% of train-step and serve-p50 (derived)."""
    rng = np.random.default_rng(0)
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=TIMESTEPS,
                         width_scale=BENCH_SCALE["width_scale"], rng=rng)
    convert_to_tt(model, variant="ptt", rank=8, timesteps=TIMESTEPS)

    data = make_static_image_dataset(BENCH_SCALE["batch_size"],
                                     BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=1)
    config = TrainingConfig(timesteps=TIMESTEPS, epochs=1,
                            batch_size=BENCH_SCALE["batch_size"],
                            learning_rate=0.01, seed=2)
    trainer = BPTTTrainer(model, config)  # guard_numerics defaults off
    batch, labels = data.images, data.labels

    server = InferenceServer(max_batch_size=1, max_wait_ms=0.0,
                             cache_capacity=0)
    serve_model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"],
                               in_channels=3, timesteps=TIMESTEPS,
                               width_scale=BENCH_SCALE["width_scale"],
                               rng=np.random.default_rng(3))
    convert_to_tt(serve_model, variant="ptt", rank=8, timesteps=TIMESTEPS)
    server.register("bench", serve_model, merge=True, compile=True,
                    warmup_sample=np.zeros(SAMPLE_SHAPE, np.float32))
    sample = np.random.default_rng(4).random(SAMPLE_SHAPE).astype(np.float32)

    try:
        trainer.train_step(batch, labels)          # warm caches
        server.infer("bench", sample, timeout=60)
        step_s = _median_seconds(lambda: trainer.train_step(batch, labels))
        p50_s = _median_seconds(
            lambda: server.infer("bench", sample, timeout=60), calls=15)

        noop_ns = _measure_noop_site_ns()
        train_fraction = (SITES_PER_STEP * noop_ns * 1e-9) / step_s
        serve_fraction = (SITES_PER_REQUEST * noop_ns * 1e-9) / p50_s

        record_bench("resilience_overhead", {
            "noop_site_ns": noop_ns,
            "train_step_ms": step_s * 1e3,
            "overhead_train_off_pct": train_fraction * 100.0,
            "p50_serve_ms": p50_s * 1e3,
            "overhead_serve_off_pct": serve_fraction * 100.0,
            "sites_per_step": SITES_PER_STEP,
            "sites_per_request": SITES_PER_REQUEST,
        }, path=BENCH_RESILIENCE_JSON)
        print(f"\nresilience overhead (disabled): site={noop_ns:.0f}ns "
              f"train={step_s * 1e3:.2f}ms (+{train_fraction:.4%}) "
              f"serve p50={p50_s * 1e3:.2f}ms (+{serve_fraction:.4%})")

        assert train_fraction < BUDGET, (
            f"disabled fault injection costs {train_fraction:.2%} of a train "
            f"step ({SITES_PER_STEP} sites x {noop_ns:.0f}ns vs "
            f"{step_s * 1e3:.3f}ms)")
        assert serve_fraction < BUDGET, (
            f"disabled fault injection costs {serve_fraction:.2%} of serve "
            f"p50 ({SITES_PER_REQUEST} sites x {noop_ns:.0f}ns vs "
            f"{p50_s * 1e3:.3f}ms)")
    finally:
        server.close()
