"""Benchmark for the multi-replica serving fleet (:mod:`repro.fleet`).

A :class:`~repro.fleet.server.FleetServer` scales the single-engine serving
stack by replication: N engine snapshots whose worker threads pull batches
from one bounded admission queue.  This file asserts the subsystem's
headline guarantees:

* **throughput** — a 2-replica thread fleet answers a concurrent burst at
  least **1.5x** the QPS of a 1-replica fleet (interleaved A/B medians;
  skipped on single-core machines where there is no parallelism to win);
* **backpressure** — an over-capacity burst sheds with typed
  :class:`~repro.fleet.errors.Overloaded` while the p99 of *admitted*
  requests stays bounded by ``(queue_capacity + replicas x max_batch_size)
  x service time`` — the bounded queue, not luck, caps the tail;
* **streaming parity** — chunked persistent-membrane streaming over a fleet
  session reproduces the one-shot fixed-``T`` forward to **1e-6**.

Numbers are recorded to ``BENCH_fleet.json`` (gated alongside the runtime
and data-parallel sinks by ``tools/bench_check.py --fresh``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.fleet import FleetServer, Overloaded
from repro.models.builder import convert_to_tt
from repro.models.vgg import spiking_vgg9
from repro.serve import InferenceEngine

from conftest import BENCH_FLEET_JSON, BENCH_SCALE, median_speedup, record_bench

TIMESTEPS = 4
NUM_REQUESTS = 64


def _make_model(timesteps: int = TIMESTEPS):
    model = spiking_vgg9(num_classes=BENCH_SCALE["num_classes"], in_channels=3,
                         timesteps=timesteps,
                         width_scale=BENCH_SCALE["width_scale"],
                         rng=np.random.default_rng(0))
    convert_to_tt(model, variant="ptt", rank=8, timesteps=timesteps)
    return model


def _make_requests(count: int = NUM_REQUESTS, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    size = BENCH_SCALE["image_size"]
    return rng.random((count, 3, size, size)).astype(np.float32)


def _burst(fleet: FleetServer, name: str, requests: np.ndarray) -> np.ndarray:
    futures = [fleet.submit(name, sample) for sample in requests]
    return np.stack([future.result(timeout=300) for future in futures])


def test_two_replica_qps_speedup():
    """A 2-replica fleet must answer a burst at >= 1.5x 1-replica QPS."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("fleet replica speedup needs >= 2 CPU cores")
    model = _make_model()
    requests = _make_requests()
    with FleetServer(replicas=1, max_batch_size=8, max_wait_ms=2.0) as one, \
            FleetServer(replicas=2, max_batch_size=8, max_wait_ms=2.0) as two:
        one.register("vgg", model, warmup_sample=requests[0], merge=True)
        two.register("vgg", model, warmup_sample=requests[0], merge=True)
        _burst(one, "vgg", requests[:16])          # warm both request paths
        reference = _burst(two, "vgg", requests)
        np.testing.assert_allclose(
            reference, InferenceEngine(model, merge=True).infer(requests), atol=1e-5)
        speedup, one_s, two_s = median_speedup(
            lambda: _burst(one, "vgg", requests),
            lambda: _burst(two, "vgg", requests),
            calls=1, trials=7, attempts=4)
    one_qps = NUM_REQUESTS / one_s
    two_qps = NUM_REQUESTS / two_s
    print(f"\nfleet burst of {NUM_REQUESTS} (VGG-9 T={TIMESTEPS}, bench scale): "
          f"1 replica {one_qps:.1f} QPS, 2 replicas {two_qps:.1f} QPS, "
          f"speedup {speedup:.2f}x")
    record_bench("fleet_replica_throughput", {
        "model": "vgg9", "timesteps": TIMESTEPS, "requests": NUM_REQUESTS,
        "one_replica_qps": one_qps, "two_replica_qps": two_qps,
        "speedup_vs_one_replica": speedup,
    }, path=BENCH_FLEET_JSON)
    assert speedup >= 1.5, (
        f"2-replica fleet must serve >= 1.5x the 1-replica QPS, "
        f"got {speedup:.2f}x")


def test_overload_burst_sheds_typed_with_bounded_p99():
    """Over capacity, extra requests shed typed and the admitted p99 stays
    bounded by the (queue + held batches) budget — not by the burst size."""
    capacity, replicas, batch_size, burst = 8, 1, 4, 96
    model = _make_model()
    requests = _make_requests(burst, seed=1)
    with FleetServer(replicas=replicas, max_batch_size=batch_size,
                     max_wait_ms=1.0, queue_capacity=capacity) as fleet:
        fleet.register("vgg", model, warmup_sample=requests[0], merge=True)
        # Calibrate the per-request service time through the real path,
        # serially so calibration itself cannot overflow the queue.  Serial
        # batch-1 forwards overstate the batched service time, which only
        # loosens (never tightens) the bound checked below.
        start = time.perf_counter()
        for sample in requests[:8]:
            fleet.infer("vgg", sample, timeout=300)
        service_per_request_s = (time.perf_counter() - start) / 8
        admitted, submit_ts, shed = [], [], 0
        for sample in requests:
            try:
                future = fleet.submit("vgg", sample)
            except Overloaded as error:
                assert error.retry_after_s > 0
                shed += 1
                continue
            admitted.append(future)
            submit_ts.append(time.perf_counter())
        latencies = []
        for future, submitted in zip(admitted, submit_ts):
            assert np.isfinite(future.result(timeout=300)).all()
            # Gathering in submit order can only overstate a latency (a
            # future may have resolved while an earlier one was awaited),
            # which makes the bound harder to meet — never easier.
            latencies.append(time.perf_counter() - submitted)
        p99_s = float(np.percentile(latencies, 99))
        # Ahead of an admitted request: the queue, plus one batch per replica.
        budget = capacity + replicas * batch_size + 1
        bound_s = budget * service_per_request_s * 6.0
    print(f"\nfleet overload burst {burst} vs capacity {capacity} "
          f"(+{replicas}x{batch_size} held): shed {shed}, admitted {len(admitted)}, "
          f"admitted p99 {p99_s * 1e3:.0f} ms, bound {bound_s * 1e3:.0f} ms, "
          f"service {service_per_request_s * 1e3:.1f} ms/req")
    record_bench("fleet_overload", {
        "burst": burst, "queue_capacity": capacity,
        "replicas": replicas, "max_batch_size": batch_size, "shed": shed,
        "admitted": len(admitted), "p99_admitted_ms": p99_s * 1e3,
        "p99_bound_ms": bound_s * 1e3,
        "service_per_request_ms": service_per_request_s * 1e3,
    }, path=BENCH_FLEET_JSON)
    assert shed > 0, "an over-capacity burst must shed"
    assert len(admitted) + shed == burst
    assert p99_s <= bound_s, (
        f"admitted p99 {p99_s:.3f}s exceeds the bounded-queue budget "
        f"{bound_s:.3f}s")


def test_streaming_session_matches_one_shot_forward():
    """Chunked fleet streaming == the one-shot fixed-T forward, to 1e-6."""
    timesteps = 8
    model = _make_model(timesteps=timesteps)
    frames = _make_requests(timesteps, seed=2)
    one_shot = InferenceEngine(model, merge=True).infer(frames[:, None])[0]
    with FleetServer(replicas=2, max_batch_size=8, max_wait_ms=1.0) as fleet:
        fleet.register("stream", model, merge=True)
        with fleet.open_session("stream") as session:
            for chunk in (frames[:3], frames[3:5], frames[5:]):
                final = session.send_chunk(chunk)
            assert session.timesteps_seen == timesteps
    diff = float(np.max(np.abs(final - one_shot)))
    print(f"\nfleet streaming parity (T={timesteps}, chunks 3+2+3): "
          f"max |delta| {diff:.2e}")
    record_bench("fleet_streaming", {
        "timesteps": timesteps, "chunks": 3, "parity_max_abs": diff,
    }, path=BENCH_FLEET_JSON)
    assert diff <= 1e-6
