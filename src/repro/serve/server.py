"""The serving facade: the fleet's single-replica configuration.

:class:`InferenceServer` is :class:`~repro.fleet.server.FleetServer` with one
replica per model, no admission bound, an LRU response cache and its own
batching defaults (16 requests, 2 ms).  Requests name a model, hit the
response cache first, and on a miss join that model's admission queue,
where the replica worker coalesces them into one fused forward.  Every
answer (cached or computed) is accounted in the model's
:class:`~repro.serve.stats.ServerStats`.

A :class:`~repro.serve.registry.ModelRegistry` is the version catalogue:
``register``, :meth:`InferenceServer.swap` and ``unregister(name, version)``
publish to it, then point the served group at its latest version through the
fleet's group replace (``deploy(mode="replace")``).  The new group is built
before the pointer moves, so every request submitted after ``swap`` returns
is answered by the new engine, while requests already queued on the old
group finish there.  Cache keys embed the version of the group that computed
the answer, so a swapped model never serves a predecessor's cached logits.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import Future
from typing import Dict, Optional, Union

import numpy as np

from repro.fleet.server import FleetServer
from repro.models.base import SpikingModel
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.serve.engine import InferenceEngine
from repro.serve.registry import ModelRegistry, Version

__all__ = ["InferenceServer"]

#: Admission bound of every ``InferenceServer`` queue: none in practice, so
#: ``submit`` never sheds with :class:`~repro.fleet.errors.Overloaded`.
_NO_BOUND = sys.maxsize


class InferenceServer(FleetServer):
    """Serve named models with dynamic batching, caching and stats.

    Parameters
    ----------
    registry:
        An existing :class:`~repro.serve.registry.ModelRegistry` to serve
        from; a fresh one is created when omitted.  Names published directly
        on it are served from their first request.
    max_batch_size, max_wait_ms:
        Micro-batching policy applied to every registered model: at most
        ``max_batch_size`` requests per fused forward, and the first request
        of a batch waits at most ``max_wait_ms`` for co-riders.
    cache_capacity:
        Per-model LRU response-cache entries; ``0`` disables caching.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        cache_capacity: int = 1024,
    ):
        super().__init__(replicas=1, max_batch_size=max_batch_size,
                         max_wait_ms=max_wait_ms, queue_capacity=_NO_BOUND)
        self.cache_capacity = cache_capacity
        self.registry = registry if registry is not None else ModelRegistry()
        self.max_wait_ms = max_wait_ms
        self._follow_lock = threading.Lock()

    # -- model management ---------------------------------------------------------

    def _follow(self, name: str) -> None:
        """Serve the registry's latest version of ``name``: stand its group
        up on first use, or replace the group when the pointer moved."""
        with self._follow_lock:
            version = self.registry.latest_version(name)
            engine = self.registry.get(name, version)
            with self._lock:
                entry = self._models.get(name)
            if entry is None:
                super().register(name, engine, version=version)
            elif entry.group.version != version:
                self.deploy(name, engine, version)

    def register(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Snapshot + publish a model, and serve the registry's latest version."""
        if self._closed:
            raise RuntimeError("cannot register on a closed InferenceServer")
        engine = self.registry.register(name, model, version=version,
                                        warmup_sample=warmup_sample, **engine_kwargs)
        self._follow(name)
        return engine

    def swap(
        self,
        name: str,
        model: Union[SpikingModel, InferenceEngine],
        version: Optional[Version] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Hot-swap the served model: requests submitted from now on use the new engine."""
        engine = self.registry.swap(name, model, version=version,
                                    warmup_sample=warmup_sample, **engine_kwargs)
        self._follow(name)
        return engine

    def unregister(self, name: str, version: Optional[Version] = None,
                   timeout: Optional[float] = 10.0) -> None:
        """Stop serving ``name`` (or one ``version`` of it).

        Removes the model from the registry.  While other versions remain,
        the served group follows the registry's latest pointer; when the
        *last* version goes, the model's group is torn down like at
        :meth:`close`: queued requests fail with
        :class:`~repro.fleet.errors.BatcherClosed`, and its stats / cache
        instruments leave the metrics registry.
        """
        self.registry.unregister(name, version)
        if name not in self._models:
            return
        if name in self.registry:
            self._follow(name)
        else:
            super().unregister(name, timeout=timeout)

    # -- request path -------------------------------------------------------------

    def submit(self, name: str, sample: np.ndarray, use_cache: bool = True) -> Future:
        """Enqueue one ``(C, H, W)`` sample for ``name``; returns a logits future."""
        if name not in self._models and name in self.registry:
            self._follow(name)
        return self._submit(name, sample, priority=0, deadline_s=None,
                            use_cache=use_cache)

    def infer(self, name: str, sample: np.ndarray, timeout: Optional[float] = None,
              use_cache: bool = True) -> np.ndarray:
        """Blocking logits for one sample."""
        return self.submit(name, sample, use_cache=use_cache).result(timeout=timeout)

    def predict(self, name: str, sample: np.ndarray, timeout: Optional[float] = None,
                use_cache: bool = True) -> int:
        """Blocking class prediction for one sample."""
        return int(np.argmax(self.infer(name, sample, timeout=timeout, use_cache=use_cache)))

    # -- introspection ------------------------------------------------------------

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"InferenceServer(models={self.registry.models()}, "
                f"max_batch_size={self.max_batch_size}, max_wait_ms={self.max_wait_ms})")
