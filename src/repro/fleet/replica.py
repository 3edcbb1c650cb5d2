"""One serving replica: an engine snapshot and the worker thread that feeds it.

A fleet scales throughput by running *N identical engines* in one process
(``InferenceServer`` runs one); the NumPy engine releases the GIL inside
its GEMMs, so replicas overlap on multicore hosts.  There is no router:
every replica of a group runs the fleet's worker loop on its own thread and
pulls its next batch from the group's one admission queue, so whichever
replica is idle takes the work.
A replica presents this surface to the fleet:

* :meth:`Replica.start` — run the worker loop on the replica's own thread;
* :meth:`Replica.run_batch` — one fused forward over a stacked batch (the
  ``replica.crash`` / ``replica.slow`` fault sites live here);
* ``outstanding`` — requests in the batch the replica holds right now;
* ``breaker`` — the replica's :class:`~repro.resilience.breaker.CircuitBreaker`,
  fed with one outcome per batch;
* :meth:`Replica.infer_stream` — the persistent-membrane streaming path for
  pinned sessions;
* ``alive`` / :meth:`Replica.kill` / :meth:`Replica.close` — the health
  surface the fleet's restart supervisor drives.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

import numpy as np

from repro.fleet.errors import ReplicaCrashed
from repro.resilience import faults
from repro.resilience.breaker import CircuitBreaker
from repro.serve.engine import InferenceEngine

__all__ = ["Replica"]


class Replica:
    """Its own engine snapshot driven by its own worker thread.

    Each replica owns an independent :class:`InferenceEngine` (its own model
    copy, its own lock), so N replicas run N fused forwards concurrently
    wherever NumPy releases the GIL.

    ``utilization()`` is the busy fraction (engine seconds over wall
    seconds since the replica started) exported through the fleet's
    per-replica gauges.
    """

    def __init__(self, name: str, engine: InferenceEngine,
                 breaker: CircuitBreaker, model_name: Optional[str] = None):
        self.name = name
        self.model_name = model_name
        self.engine = engine
        self.breaker = breaker
        #: Requests in the batch this replica holds (set by the worker loop).
        self.outstanding = 0
        self._busy_s = 0.0
        self._started = time.perf_counter()
        self._killed = False
        self._closed = False
        self._worker: Optional[threading.Thread] = None

    def start(self, loop: Callable[["Replica"], None]) -> None:
        """Run ``loop(self)`` on this replica's worker thread."""
        self._worker = threading.Thread(target=loop, args=(self,),
                                        name=f"fleet-replica-{self.name}",
                                        daemon=True)
        self._worker.start()

    # -- signals ------------------------------------------------------------------

    def utilization(self) -> float:
        wall = max(time.perf_counter() - self._started, 1e-9)
        return min(self._busy_s / wall, 1.0)

    @property
    def alive(self) -> bool:
        return not self._killed and not self._closed

    @property
    def killed(self) -> bool:
        return self._killed

    # -- serving ------------------------------------------------------------------

    def run_batch(self, batch: np.ndarray) -> np.ndarray:
        """One fused forward over a stacked ``(N, C, H, W)`` batch."""
        injector = faults.get_injector()
        if injector is not None:
            # Crash marks the replica dead and raises the same typed error a
            # genuine engine failure would; the worker requeues the batch.
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
        """Simulated crash (tests/chaos): the worker stops pulling, and the
        batch it holds is requeued instead of answered."""
        self._killed = True

    def close(self, timeout: float = 10.0) -> None:
        """Mark the replica closed and join its worker, which exits once the
        queue holds nothing more for it."""
        self._closed = True
        worker = self._worker
        if worker is not None and worker is not threading.current_thread():
            worker.join(timeout=timeout)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Replica({self.name!r}, alive={self.alive}, "
                f"outstanding={self.outstanding})")
