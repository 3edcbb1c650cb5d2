"""Benchmark for the serving subsystem: sequential vs micro-batched throughput.

Serving one request at a time pays the full per-layer Python / im2col / GEMM
overhead per sample; the :class:`~repro.serve.server.InferenceServer` coalesces
concurrent requests into one fused ``(N, C, H, W)`` forward and amortises it.
This file records both serving modes in the BENCH JSON trajectory (same
recorder shape as the other ``test_bench_*`` files) and asserts the headline
guarantee: micro-batching at ``max_batch_size = 16`` yields **>= 2x** the
sequential QPS on the merged VGG-9 engine, while returning logits identical
to per-request inference.
"""

from __future__ import annotations

import time
from typing import Tuple

import numpy as np
import pytest

from repro.data.synthetic import make_static_image_dataset
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceEngine, InferenceServer, ServerStats

from conftest import BENCH_SCALE

TIMESTEPS = 4
NUM_REQUESTS = 64
MAX_BATCH = 16


def _make_engine() -> InferenceEngine:
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=TIMESTEPS, width_scale=BENCH_SCALE["width_scale"],
                         rng=np.random.default_rng(0))
    convert_to_tt(model, variant="ptt", rank=8, timesteps=TIMESTEPS)
    return InferenceEngine(model, merge=True)


def _make_requests() -> np.ndarray:
    data = make_static_image_dataset(NUM_REQUESTS, BENCH_SCALE["num_classes"],
                                     height=BENCH_SCALE["image_size"],
                                     width=BENCH_SCALE["image_size"], seed=0)
    return data.images


def _serve_sequential(engine: InferenceEngine, requests: np.ndarray) -> np.ndarray:
    """The no-batching baseline: one fused forward per request."""
    return np.stack([engine.infer(sample) for sample in requests])


def _serve_micro_batched(engine: InferenceEngine,
                         requests: np.ndarray) -> Tuple[np.ndarray, ServerStats]:
    """All requests through an uncached ``InferenceServer`` at ``max_batch_size = 16``."""
    with InferenceServer(max_batch_size=MAX_BATCH, max_wait_ms=20,
                         cache_capacity=0) as server:
        server.register("bench", engine)
        futures = [server.submit("bench", sample) for sample in requests]
        logits = np.stack([future.result(timeout=120) for future in futures])
        return logits, server.stats("bench")


@pytest.mark.parametrize("mode", ["sequential", "micro_batched"])
def test_serving_throughput(benchmark, mode):
    """Wall-clock of answering a 64-request burst per serving mode (BENCH JSON)."""
    engine = _make_engine()
    requests = _make_requests()
    if mode == "sequential":
        serve = _serve_sequential
    else:
        def serve(engine, requests):
            return _serve_micro_batched(engine, requests)[0]
    serve(engine, requests)                        # warm-up
    logits = benchmark(serve, engine, requests)
    assert logits.shape == (NUM_REQUESTS, BENCH_SCALE["num_classes"])
    assert np.isfinite(logits).all()


def test_micro_batching_qps_speedup():
    """Micro-batching at max_batch_size=16 must serve >= 2x the sequential QPS."""
    engine = _make_engine()
    requests = _make_requests()
    _serve_sequential(engine, requests[:8])        # warm-up both paths
    _serve_micro_batched(engine, requests[:8])

    start = time.perf_counter()
    sequential_logits = _serve_sequential(engine, requests)
    sequential_qps = NUM_REQUESTS / (time.perf_counter() - start)

    start = time.perf_counter()
    batched_logits, stats = _serve_micro_batched(engine, requests)
    batched_qps = NUM_REQUESTS / (time.perf_counter() - start)

    # The serving snapshot answers identically either way...
    np.testing.assert_allclose(batched_logits, sequential_logits, atol=1e-5, rtol=1e-5)
    # ...and batching actually batched (fills beyond a single request).
    assert stats.mean_batch_fill() > 1.0
    assert max(stats.batch_fill_histogram()) <= MAX_BATCH

    speedup = batched_qps / sequential_qps
    print(f"\nserving {NUM_REQUESTS} requests (VGG-9 T={TIMESTEPS}, bench scale): "
          f"sequential {sequential_qps:.1f} QPS, micro-batched {batched_qps:.1f} QPS, "
          f"speedup {speedup:.2f}x, mean batch fill {stats.mean_batch_fill():.1f}")
    assert speedup >= 2.0, (
        f"micro-batching must yield >= 2x QPS over sequential serving, got {speedup:.2f}x"
    )
