"""One serving replica: an engine snapshot plus its private micro-batcher.

A fleet scales throughput by running *N identical engines* in one process;
the NumPy engine releases the GIL inside its GEMMs, so replicas overlap on
multicore hosts.  A replica presents this surface to the router:

* :meth:`Replica.submit` — enqueue one sample into the replica's own
  :class:`~repro.serve.batcher.MicroBatcher` (batching happens *per
  replica*, after routing, so co-batched requests always hit one engine);
* ``outstanding`` / ``queue_depth`` — the two load signals the
  least-outstanding-requests router reads;
* ``breaker`` — the replica's :class:`~repro.resilience.breaker.CircuitBreaker`,
  fed by the router with every request outcome;
* :meth:`Replica.infer_stream` — the persistent-membrane streaming path for
  pinned sessions;
* ``alive`` / :meth:`Replica.kill` / :meth:`Replica.close` — the health
  surface the fleet's restart supervisor drives.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Optional

import numpy as np

from repro.fleet.errors import ReplicaCrashed
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import InferenceEngine

__all__ = ["Replica"]


class Replica:
    """Its own engine snapshot behind its own batcher.

    Each replica owns an independent :class:`InferenceEngine` (its own model
    copy, its own lock), so N replicas run N fused forwards concurrently
    wherever NumPy releases the GIL.

    ``outstanding`` counts requests handed to this replica and not yet
    resolved (queued or inside a fused forward); ``queue_depth`` is the
    batcher's queue alone.  ``utilization()`` is the busy fraction (engine
    seconds over wall seconds since the replica started) exported through
    the fleet's per-replica gauges.
    """

    def __init__(
        self,
        name: str,
        engine: InferenceEngine,
        breaker: CircuitBreaker,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        model_name: Optional[str] = None,
    ):
        self.name = name
        self.model_name = model_name
        self.engine = engine
        self.breaker = breaker
        self._outstanding = 0
        self._count_lock = threading.Lock()
        self._busy_s = 0.0
        self._started = time.perf_counter()
        self._killed = False
        self._closed = False

        def timed_infer(batch: np.ndarray) -> np.ndarray:
            injector = faults.get_injector()
            if injector is not None:
                # Crash marks the replica dead and raises the same typed error
                # a genuine engine failure would — kill()ing the batcher from
                # inside its own worker would self-join and deadlock.
                if injector.maybe("replica.crash", replica=self.name) is not None:
                    self._killed = True
                    raise ReplicaCrashed("injected crash", replica=self.name)
                slow = injector.maybe("replica.slow", replica=self.name)
                if slow is not None:
                    time.sleep(float(slow.get("seconds", 0.05)))
            start = time.perf_counter()
            try:
                return self.engine.infer(batch)
            finally:
                self._busy_s += time.perf_counter() - start

        # The replica-level request span nests under whatever span the
        # dispatcher has activated (fleet.route / fleet.canary), keeping the
        # fleet's serve.request root the only root in the trace.
        self.batcher = MicroBatcher(
            timed_infer, max_batch_size=max_batch_size, max_wait_ms=max_wait_ms,
            name=model_name, span_name="replica.request", nest_spans=True)

    # -- load signals -------------------------------------------------------------

    @property
    def outstanding(self) -> int:
        return self._outstanding

    @property
    def queue_depth(self) -> int:
        return self.batcher.pending

    def utilization(self) -> float:
        wall = max(time.perf_counter() - self._started, 1e-9)
        return min(self._busy_s / wall, 1.0)

    @property
    def alive(self) -> bool:
        return not self._killed and not self._closed

    # -- serving ------------------------------------------------------------------

    def submit(self, sample: np.ndarray) -> Future:
        """Enqueue one ``(C, H, W)`` sample; raises ``ReplicaCrashed`` if dead."""
        if not self.alive:
            raise ReplicaCrashed("replica is not alive", replica=self.name)
        try:
            future = self.batcher.submit(sample)
        except RuntimeError as exc:
            # The batcher closed under us (kill() racing a dispatch).
            raise ReplicaCrashed(str(exc), replica=self.name) from exc
        with self._count_lock:
            self._outstanding += 1
        future.add_done_callback(self._request_done)
        return future

    def _request_done(self, _future: Future) -> None:
        with self._count_lock:
            self._outstanding -= 1

    def stream_state(self):
        return self.engine.stream_state()

    def infer_stream(self, chunk: np.ndarray, state):
        if not self.alive:
            raise ReplicaCrashed("replica is not alive", replica=self.name)
        start = time.perf_counter()
        try:
            return self.engine.infer_stream(chunk, state)
        finally:
            self._busy_s += time.perf_counter() - start

    # -- lifecycle ----------------------------------------------------------------

    def kill(self) -> None:
        """Simulated crash: die abruptly, stranding queued work (tests/chaos)."""
        if self._killed or self._closed:
            return
        self._killed = True
        # Abrupt stop: still-queued futures resolve cancelled/BatcherClosed,
        # which the router's completion hook treats as a crash to reroute.
        self.batcher.close(timeout=0.5, drain=False)

    def close(self, timeout: float = 10.0) -> None:
        if self._closed:
            return
        self._closed = True
        self.batcher.close(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Replica({self.name!r}, alive={self.alive}, "
                f"outstanding={self.outstanding})")
