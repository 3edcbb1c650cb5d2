"""Shared settings for the benchmark harness.

Every paper table / figure has a corresponding ``test_bench_*.py`` file.  The
benchmarks measure the *measured* quantities (single-batch training time on
the NumPy engine) at a laptop-friendly scale and print the *analytical*
quantities (parameters, FLOPs, accelerator energy) at full paper scale, so
running ``pytest benchmarks/ --benchmark-only`` regenerates every row/series
the paper reports (see EXPERIMENTS.md for the mapping and the measured
values).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

#: Scale used for measured (wall-clock) benchmarks: big enough that the
#: relative timing differences between methods dominate noise, small enough
#: that the whole benchmark suite finishes in a few minutes on CPU.
BENCH_SCALE = {
    "width_scale": 0.25,
    "image_size": 16,
    "batch_size": 8,
    "num_classes": 8,
}

#: machine-readable sink for the compiled-runtime benchmark numbers
BENCH_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "BENCH_runtime.json")

#: machine-readable sink for the data-parallel training benchmark numbers
BENCH_PARALLEL_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "BENCH_parallel.json")

#: machine-readable sink for the multi-replica serving-fleet benchmark numbers
BENCH_FLEET_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "BENCH_fleet.json")

#: machine-readable sink for the resilience-overhead benchmark numbers
BENCH_RESILIENCE_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                     "BENCH_resilience.json")


def record_bench(section: str, payload: dict, path: str = None) -> str:
    """Merge one benchmark's numbers into a ``BENCH_*.json`` sink.

    Each benchmark that produces a headline runtime quantity (train-step
    time, serve latency/QPS) records it under its own
    ``section`` key; the file is rewritten on every call so a partial or
    aborted run still leaves valid JSON behind.  ``path`` defaults to
    ``BENCH_runtime.json``; the data-parallel benchmarks write to their own
    ``BENCH_parallel.json`` so either suite can run alone.  Returns the
    file path.
    """
    if path is None:
        path = BENCH_JSON
    data: dict = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[section] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def bench_rng() -> np.random.Generator:
    return np.random.default_rng(2024)


def ab_median(fn_a, fn_b, calls: int = 3, trials: int = 9):
    """Interleaved A/B timing compared by *medians* of per-trial means.

    Both sides alternate inside every trial, so slow machine drift (thermal
    throttling, a concurrently running test in the full suite) hits them
    equally; the median discards outlier trials entirely instead of letting
    them shift an average.  Shared by the runtime and graph-optimizer
    benchmarks so their methodology can never diverge.
    """
    import statistics
    import time

    times_a, times_b = [], []
    for _ in range(trials):
        start = time.perf_counter()
        for _ in range(calls):
            fn_a()
        times_a.append((time.perf_counter() - start) / calls)
        start = time.perf_counter()
        for _ in range(calls):
            fn_b()
        times_b.append((time.perf_counter() - start) / calls)
    return statistics.median(times_a), statistics.median(times_b)


def median_speedup(fn_a, fn_b, calls: int = 3, trials: int = 9, attempts: int = 5):
    """Median speedup of B over A over ``attempts`` interleaved comparisons.

    Every attempt runs (no early stop on a lucky reading), each one an
    :func:`ab_median`, and the median ratio is what a gate asserts, so noise
    can neither fake a pass nor mask a real speedup.  Returns the median
    ratio and the median seconds per call of each side.
    """
    import statistics

    ratios, a_times, b_times = [], [], []
    for _ in range(attempts):
        a_s, b_s = ab_median(fn_a, fn_b, calls=calls, trials=trials)
        ratios.append(a_s / b_s)
        a_times.append(a_s)
        b_times.append(b_s)
    return (statistics.median(ratios), statistics.median(a_times),
            statistics.median(b_times))
