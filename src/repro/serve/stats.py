"""Serving-side latency / throughput accounting.

:class:`ServerStats` is the serving twin of
:class:`repro.metrics.profiler.TrainingTimeProfiler`: where the trainer
measures seconds per batch, the server measures requests per second and the
latency distribution clients actually observe.

Since the :mod:`repro.obs` layer landed, ``ServerStats`` is a *view* over
registered instruments rather than a silo: request latencies feed a
:class:`repro.obs.metrics.Histogram` (fixed Prometheus-style buckets plus a
bounded sliding-window reservoir — long-running servers report *recent*
percentiles at bounded memory), and request / batch / cache counts are
:class:`~repro.obs.metrics.Counter` instruments.  Constructed with a
``name``, the instruments register in the process-wide default registry
under ``{model=<name>}`` labels, so the Prometheus endpoint and this class
always report the same numbers.  The percentile math stays in
:func:`repro.metrics.profiler.summarize_latencies` (via the histogram's
quantile view) so BENCH recorders and serving endpoints can never disagree.

Tracked per named collector:

* per-request latency (enqueue -> response), summarised as p50 / p95 / p99 /
  mean / max;
* throughput (QPS) over the observed serving window;
* the batch-fill histogram — how full the micro-batches actually were, the
  single best signal for tuning ``max_batch_size`` / ``max_wait_ms``;
* cache hit / miss counts when a :class:`~repro.serve.cache.ResponseCache`
  fronts the engine.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs.metrics import (Counter, Histogram, MetricsRegistry,
                               default_registry)

__all__ = ["ServerStats"]

#: Latency buckets tuned to NumPy-engine serving: 250 µs .. ~4 s.
_LATENCY_BUCKETS = tuple(2.5e-4 * 4 ** i for i in range(8))


class ServerStats:
    """Thread-safe accumulator of serving metrics.

    Parameters
    ----------
    max_samples:
        Cap on the latency reservoir quantiles are computed from; the
        histogram keeps a sliding window of the most recent observations so
        that sustained load runs at bounded memory (the bucket counts remain
        exact over the full lifetime).
    name:
        Served-model name.  When given, the underlying instruments register
        in ``registry`` (default: the process-wide registry) labelled
        ``{model: name}`` — re-registering the same name repoints the scrape
        at this collector, which is what a hot-swapped server wants.
    registry:
        Target :class:`~repro.obs.metrics.MetricsRegistry`; only consulted
        when ``name`` is given.
    """

    def __init__(self, max_samples: int = 100_000, name: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.max_samples = max_samples
        self.name = name
        labels = {"model": name} if name is not None else None
        self._latency = Histogram("repro_serve_request_latency_seconds",
                                  "Per-request latency (enqueue to response)",
                                  labels=labels, buckets=_LATENCY_BUCKETS,
                                  max_samples=max_samples)
        self._m_requests = Counter("repro_serve_requests_total",
                                   "Requests answered", labels=labels)
        self._m_batches = Counter("repro_serve_batches_total",
                                  "Fused forwards executed", labels=labels)
        self._m_hits = Counter("repro_serve_cache_hits_total",
                               "Response-cache hits", labels=labels)
        self._m_misses = Counter("repro_serve_cache_misses_total",
                                 "Response-cache misses", labels=labels)
        self._registry: Optional[MetricsRegistry] = None
        if name is not None:
            self._registry = registry if registry is not None else default_registry()
            for instrument in (self._latency, self._m_requests, self._m_batches,
                               self._m_hits, self._m_misses):
                self._registry.register(instrument, replace=True)
        self._lock = threading.Lock()
        self._batch_sizes: Dict[int, int] = {}
        self._first_ts: Optional[float] = None
        self._last_ts: Optional[float] = None

    # -- recording ---------------------------------------------------------------

    def record_request(self, latency_s: float, timestamp: Optional[float] = None) -> None:
        """Record one answered request and its observed latency in seconds."""
        now = timestamp if timestamp is not None else time.monotonic()
        self._m_requests.inc()
        self._latency.observe(float(latency_s))
        with self._lock:
            if self._first_ts is None:
                self._first_ts = now - latency_s
            self._last_ts = now

    def record_batch(self, size: int) -> None:
        """Record one fused forward and how many requests it answered."""
        self._m_batches.inc()
        with self._lock:
            self._batch_sizes[int(size)] = self._batch_sizes.get(int(size), 0) + 1

    def record_cache(self, hit: bool) -> None:
        """Record a response-cache lookup."""
        if hit:
            self._m_hits.inc()
        else:
            self._m_misses.inc()

    # -- reading -----------------------------------------------------------------

    @property
    def requests(self) -> int:
        return int(self._m_requests.value)

    @property
    def batches(self) -> int:
        return int(self._m_batches.value)

    @property
    def cache_hits(self) -> int:
        return int(self._m_hits.value)

    @property
    def cache_misses(self) -> int:
        return int(self._m_misses.value)

    @property
    def latency_histogram(self) -> Histogram:
        """The underlying latency instrument (buckets + reservoir)."""
        return self._latency

    def latency_summary(self) -> Dict[str, float]:
        """p50/p95/p99/mean/max of the retained request latencies (seconds)."""
        summary = self._latency.quantile_summary(percentiles=(50, 95, 99))
        # The reservoir is a sliding window; lifetime max comes from the
        # instrument so a historic spike stays visible.
        if self._latency.count:
            summary["max_s"] = max(summary["max_s"], self._latency.max)
        return summary

    def qps(self) -> float:
        """Requests per second over the observed window (0 before two requests)."""
        requests = self.requests
        with self._lock:
            if requests == 0 or self._first_ts is None or self._last_ts is None:
                return 0.0
            window = self._last_ts - self._first_ts
            if window <= 0:
                return 0.0
            return requests / window

    def batch_fill_histogram(self) -> Dict[int, int]:
        """``{batch_size: count}`` over every fused forward so far."""
        with self._lock:
            return dict(sorted(self._batch_sizes.items()))

    def mean_batch_fill(self) -> float:
        """Average number of requests answered per fused forward."""
        batches = self.batches
        with self._lock:
            total = sum(size * count for size, count in self._batch_sizes.items())
            return total / batches if batches else 0.0

    def as_table(self) -> Dict[str, float]:
        """One flat dict with every headline number (the stats-table row)."""
        latency = self.latency_summary()
        table = {
            "requests": float(self.requests),
            "batches": float(self.batches),
            "qps": self.qps(),
            "mean_batch_fill": self.mean_batch_fill(),
            "p50_ms": latency["p50_s"] * 1e3,
            "p95_ms": latency["p95_s"] * 1e3,
            "p99_ms": latency["p99_s"] * 1e3,
            "mean_ms": latency["mean_s"] * 1e3,
            "max_ms": latency["max_s"] * 1e3,
        }
        if self.cache_hits or self.cache_misses:
            table["cache_hits"] = float(self.cache_hits)
            table["cache_misses"] = float(self.cache_misses)
        return table

    def format_table(self) -> str:
        """Human-readable multi-line rendering of :meth:`as_table`."""
        rows = self.as_table()
        width = max(len(key) for key in rows)
        lines = [f"{key:<{width}} : {value:10.3f}" for key, value in rows.items()]
        histogram = self.batch_fill_histogram()
        if histogram:
            filled = ", ".join(f"{size}x{count}" for size, count in histogram.items())
            lines.append(f"{'batch_fill':<{width}} : {filled}")
        return "\n".join(lines)

    def deregister_metrics(self) -> None:
        """Remove this collector's instruments from the metrics registry.

        Only instruments still pointing at *this* collector are removed — a
        newer ``ServerStats`` registered under the same name (the hot-swap
        repoint) keeps its registration.
        """
        if self._registry is None:
            return
        for instrument in (self._latency, self._m_requests, self._m_batches,
                           self._m_hits, self._m_misses):
            if self._registry.get(instrument.name, instrument.labels) is instrument:
                self._registry.unregister(instrument.name, instrument.labels)

    def reset(self) -> None:
        """Forget everything (e.g. after a model hot-swap)."""
        self._latency.reset()
        self._m_requests.reset()
        self._m_batches.reset()
        self._m_hits.reset()
        self._m_misses.reset()
        with self._lock:
            self._batch_sizes.clear()
            self._first_ts = None
            self._last_ts = None
