"""The serving facade: registry + micro-batcher + cache + stats per model.

:class:`InferenceServer` wires the subsystem together the way a deployment
would: requests name a model, hit the LRU response cache first, and on a miss
join that model's :class:`~repro.serve.batcher.MicroBatcher` queue, where a
worker coalesces them into one fused forward on the registry's current
engine.  Every answer (cached or computed) is accounted in the model's
:class:`~repro.serve.stats.ServerStats`.

Hot-swapping (:meth:`InferenceServer.swap`) re-points the registry's latest
pointer atomically; queued requests pick up the new engine at their next
batch, and cache keys embed the resolved version so a swapped model can
never serve a predecessor's cached logits.  (Requests already in flight
during a swap may be computed by the new engine but keyed to the old
version — staleness is bounded to that single in-flight batch.)
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from typing import Dict, Optional, Union

import numpy as np

from repro.models.base import SpikingModel
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.serve.batcher import MicroBatcher
from repro.serve.cache import ResponseCache, input_digest
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry, Version
from repro.serve.stats import ServerStats

__all__ = ["InferenceServer"]


class InferenceServer:
    """Serve named models with dynamic batching, caching and stats.

    Parameters
    ----------
    registry:
        An existing :class:`~repro.serve.registry.ModelRegistry` to serve
        from; a fresh one is created when omitted.
    max_batch_size, max_wait_ms, num_workers:
        Micro-batching policy applied to every registered model (see
        :class:`~repro.serve.batcher.MicroBatcher`).
    cache_capacity:
        Per-model LRU response-cache entries; ``0`` disables caching.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        num_workers: int = 1,
        cache_capacity: int = 1024,
    ):
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.num_workers = num_workers
        self.cache_capacity = cache_capacity
        self._lock = threading.Lock()
        self._batchers: Dict[str, MicroBatcher] = {}
        self._caches: Dict[str, ResponseCache] = {}
        self._stats: Dict[str, ServerStats] = {}
        self._closed = False

    # -- model management ---------------------------------------------------------

    def _ensure_plumbing(self, name: str) -> None:
        """Create the batcher / cache / stats trio for ``name`` exactly once."""
        with self._lock:
            if name in self._batchers:
                return
            stats = ServerStats(name=name)
            # Resolve the engine per batch (not per registration) so an
            # atomic registry swap redirects queued traffic immediately.
            batcher = MicroBatcher(
                lambda batch, _name=name: self.registry.get(_name).infer(batch),
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms,
                num_workers=self.num_workers,
                stats=stats,
                name=name,
            )
            self._batchers[name] = batcher
            self._stats[name] = stats
            if self.cache_capacity > 0:
                self._caches[name] = ResponseCache(self.cache_capacity, name=name)

    def register(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Snapshot + publish a model and set up its serving plumbing."""
        if self._closed:
            raise RuntimeError("cannot register on a closed InferenceServer")
        engine = self.registry.register(name, model, version=version,
                                        warmup_sample=warmup_sample, **engine_kwargs)
        self._ensure_plumbing(name)
        return engine

    def swap(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Hot-swap the served model: queued and future requests use the new engine."""
        return self.registry.swap(name, model, version=version,
                                  warmup_sample=warmup_sample, **engine_kwargs)

    def unregister(self, name: str, version: Optional[Version] = None,
                   timeout: Optional[float] = 10.0) -> None:
        """Stop serving ``name`` and tear down its server-side plumbing.

        Removes the model from the registry (one ``version``, or the whole
        name when ``version=None``) — and, when the *last* version goes,
        also closes the model's :class:`MicroBatcher` (resolving any queued
        futures, see :meth:`MicroBatcher.close`), drops its response cache
        and deregisters its stats/cache instruments from the metrics
        registry.  ``ModelRegistry.unregister`` alone leaves that trio (and
        the batcher's worker threads) alive, which is a leak for a server
        that cycles many models.
        """
        self.registry.unregister(name, version)
        if name in self.registry:
            # Other versions remain published; keep the plumbing serving.
            return
        with self._lock:
            batcher = self._batchers.pop(name, None)
            cache = self._caches.pop(name, None)
            stats = self._stats.pop(name, None)
        if batcher is not None:
            batcher.close(timeout=timeout)
        if cache is not None:
            cache.deregister_metrics()
        if stats is not None:
            stats.deregister_metrics()

    # -- request path -------------------------------------------------------------

    def submit(self, name: str, sample: np.ndarray, use_cache: bool = True) -> Future:
        """Enqueue one ``(C, H, W)`` sample for ``name``; returns a logits future."""
        if self._closed:
            raise RuntimeError("cannot submit to a closed InferenceServer")
        if name not in self._batchers:
            # Models registered directly on a caller-supplied registry get
            # their serving plumbing lazily on first request.
            if name in self.registry:
                self._ensure_plumbing(name)
            else:
                raise KeyError(f"model '{name}' is not being served "
                               f"(registered: {self.registry.models()})")
        sample = np.asarray(sample, dtype=np.float32)
        stats = self._stats[name]
        cache = self._caches.get(name) if use_cache else None
        if cache is None:
            return self._batchers[name].submit(sample)
        version = self.registry.latest_version(name)
        key = f"{version}:{input_digest(sample)}"
        cached = cache.get(key)
        stats.record_cache(hit=cached is not None)
        if cached is not None:
            stats.record_request(0.0)
            tracer = get_tracer()
            if tracer.enabled:
                # Cache hits still produce a (near-zero) request trace so a
                # span log reflects every answered request, not only misses.
                root = tracer.start_span("serve.request",
                                         attrs={"model": name, "cache": "hit"})
                root.add_event("cache_hit", version=str(version))
                tracer.finish_span(root)
            future: Future = Future()
            future.set_result(cached)
            return future
        future = self._batchers[name].submit(sample)

        def _store(done: Future, _key=key, _cache=cache) -> None:
            if not done.cancelled() and done.exception() is None:
                _cache.put(_key, done.result())

        future.add_done_callback(_store)
        return future

    def infer(self, name: str, sample: np.ndarray, timeout: Optional[float] = None,
              use_cache: bool = True) -> np.ndarray:
        """Blocking logits for one sample."""
        return self.submit(name, sample, use_cache=use_cache).result(timeout=timeout)

    def predict(self, name: str, sample: np.ndarray, timeout: Optional[float] = None,
                use_cache: bool = True) -> int:
        """Blocking class prediction for one sample."""
        return int(np.argmax(self.infer(name, sample, timeout=timeout, use_cache=use_cache)))

    # -- introspection ------------------------------------------------------------

    def stats(self, name: str) -> ServerStats:
        """The :class:`ServerStats` collector of one served model."""
        if name not in self._stats:
            raise KeyError(f"model '{name}' is not being served")
        return self._stats[name]

    def cache(self, name: str) -> Optional[ResponseCache]:
        """The response cache of one served model (``None`` when disabled)."""
        if name not in self._batchers:
            raise KeyError(f"model '{name}' is not being served")
        return self._caches.get(name)

    def stats_table(self) -> Dict[str, Dict[str, float]]:
        """``{model_name: headline-stats}`` across every served model."""
        return {name: stats.as_table() for name, stats in self._stats.items()}

    def debug_report(self, metrics: bool = True, flight: bool = True,
                     runtime: bool = True) -> Dict[str, object]:
        """Post-hoc inspection bundle: stats, metrics, slowest traces, runtimes.

        Returns a JSON-able dict with

        * ``models`` — the per-model headline stats tables;
        * ``registry`` — the registry's ``describe()`` rows;
        * ``metrics`` — a snapshot of the process-wide metrics registry;
        * ``flight`` — the flight recorder's report (the K slowest request
          traces with their full span trees), when a recorder is configured;
        * ``runtime`` — per-model compiled-runtime accounting for engines
          serving through the capture/replay path.
        """
        report: Dict[str, object] = {
            "models": self.stats_table(),
            "registry": [
                {"name": name, "version": str(version), "latest": latest,
                 "merged_layers": merged}
                for name, version, latest, merged in self.registry.describe()
            ],
        }
        if metrics:
            report["metrics"] = default_registry().snapshot()
        if flight:
            recorder = get_tracer().flight
            report["flight"] = recorder.report() if recorder is not None else None
        if runtime:
            runtimes: Dict[str, object] = {}
            for name in self.registry.models():
                try:
                    stats = self.registry.get(name).runtime_stats()
                except KeyError:  # pragma: no cover - racing unregister
                    continue
                if stats is not None:
                    runtimes[name] = stats
            report["runtime"] = runtimes
        return report

    # -- lifecycle ----------------------------------------------------------------

    def close(self, timeout: Optional[float] = 10.0) -> None:
        """Drain and stop every model's batcher; further submissions fail.

        Every model's stats/cache instruments leave the metrics registry (the
        collectors themselves stay readable through :meth:`stats`).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
            collectors = list(self._stats.values()) + list(self._caches.values())
        for batcher in batchers:
            batcher.close(timeout=timeout)
        for collector in collectors:
            collector.deregister_metrics()

    def __enter__(self) -> "InferenceServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceServer(models={self.registry.models()}, "
                f"max_batch_size={self.max_batch_size}, max_wait_ms={self.max_wait_ms})")
