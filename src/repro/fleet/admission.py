"""Admission control: bounded priority queues with deadline bookkeeping.

The fleet's overload story is decided *here*, at the front door, not deep in
a replica queue: a request is either admitted into a bounded queue or
rejected synchronously with a typed :class:`~repro.fleet.errors.Overloaded`
carrying a ``retry_after_s`` hint.  Bounding the queue is what bounds tail
latency — once the queue is capped, the p99 of *admitted* requests is capped
by (queue depth x service time) regardless of how hard the burst overshoots
capacity; everything beyond that budget is shed instead of queued.

Ordering inside the bound is by ``priority`` (higher first; FIFO within a
priority level via a monotonically increasing sequence number), so a burst
of background work cannot starve interactive requests.  Every replica of a
group pulls its batches straight from the group's one queue
(:meth:`AdmissionQueue.pop_batch`).  Deadlines are *checked*, not enforced,
here — the replica fails expired requests when it pops them, so a stale
request never reaches a fused forward.
"""

from __future__ import annotations

import heapq
import threading
import time
from concurrent.futures import Future
from typing import Optional

import numpy as np

from repro.fleet.errors import Overloaded

__all__ = ["FleetRequest", "AdmissionQueue"]


class FleetRequest:
    """One admitted request travelling from the front door to a replica."""

    __slots__ = ("sample", "future", "priority", "deadline", "enqueued",
                 "root_span", "queue_span", "digest", "retries", "arm")

    def __init__(self, sample: np.ndarray, future: Future, priority: int = 0,
                 deadline: Optional[float] = None, root_span=None,
                 queue_span=None, digest: Optional[str] = None):
        self.sample = sample
        self.future = future
        self.priority = int(priority)
        #: Absolute ``time.monotonic()`` deadline, or ``None``.
        self.deadline = deadline
        self.enqueued = time.monotonic()
        self.root_span = root_span
        self.queue_span = queue_span
        #: Payload digest when the response cache stores the answer.
        self.digest = digest
        #: Crash requeue count (a request is requeued at most once).
        self.retries = 0
        #: Rollout arm: ``"baseline"``, ``"canary"``, or ``"shadow"`` for a
        #: mirror copy whose answer only feeds the shadow comparison.
        self.arm = "baseline"

    def expired(self, now: Optional[float] = None) -> bool:
        if self.deadline is None:
            return False
        return (now if now is not None else time.monotonic()) >= self.deadline


class AdmissionQueue:
    """Bounded, priority-ordered request queue with a backpressure hint.

    ``put`` never blocks: when the queue is at ``capacity`` it raises
    :class:`Overloaded` immediately.  ``retry_after_s`` is estimated as the
    time to drain the current depth at the recently observed service rate
    (an EWMA of per-request service times fed by the replicas via
    :meth:`note_served`), floored so clients never busy-spin.
    """

    def __init__(self, capacity: int = 64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._heap: list = []
        self._seq = 0
        # Re-entrant: put() computes retry_after() while holding the lock.
        self._lock = threading.RLock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False
        #: EWMA of per-request service seconds (a fused forward over its size).
        self._ewma_service_s = 0.01

    # -- producer side ------------------------------------------------------------

    def put(self, request: FleetRequest) -> None:
        """Admit ``request`` or raise :class:`Overloaded` synchronously."""
        with self._not_empty:
            if self._closed:
                raise Overloaded("queue is closed", retry_after_s=1.0)
            if len(self._heap) >= self.capacity:
                raise Overloaded(
                    f"admission queue full ({self.capacity} queued)",
                    retry_after_s=self.retry_after())
            self._push(request)
            self._not_empty.notify()

    def requeue(self, request: FleetRequest) -> bool:
        """Re-admit a crash-rerouted request, bypassing the capacity check.

        An admitted request keeps its admission: shedding it *now* because
        newer arrivals filled the queue would turn a replica crash into a
        client-visible capacity error.  Returns ``False`` if the queue
        closed (the caller fails the request typed instead).
        """
        with self._not_empty:
            if self._closed:
                return False
            self._push(request)
            self._not_empty.notify()
            return True

    def _push(self, request: FleetRequest) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-request.priority, self._seq, request))

    # -- consumer side ------------------------------------------------------------

    def wait(self, timeout: float) -> bool:
        """Block until a request is queued or the queue closes; ``True`` if one is."""
        with self._not_empty:
            if not self._heap and not self._closed:
                self._not_empty.wait(timeout)
            return bool(self._heap)

    def pop_batch(self, max_size: int, max_wait_s: float) -> list:
        """Pop up to ``max_size`` requests, highest priority first.

        Returns ``[]`` when the queue is empty.  Once it holds a first
        request it waits at most ``max_wait_s`` for co-riders to fill the
        batch (not at all once the queue is closed).
        """
        batch: list = []
        with self._not_empty:
            deadline = None
            while len(batch) < max_size:
                if self._heap:
                    batch.append(heapq.heappop(self._heap)[2])
                    continue
                if not batch or self._closed:
                    break
                now = time.monotonic()
                if deadline is None:
                    deadline = now + max_wait_s
                if now >= deadline:
                    break
                self._not_empty.wait(deadline - now)
        return batch

    def drain(self) -> list:
        """Remove and return every queued request (shutdown path)."""
        with self._lock:
            items = [entry[2] for entry in self._heap]
            self._heap = []
            return items

    def close(self) -> None:
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    # -- signals ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def depth(self) -> int:
        with self._lock:
            return len(self._heap)

    def note_served(self, service_s: float, alpha: float = 0.2) -> None:
        """Fold one observed service time into the backpressure estimate."""
        with self._lock:
            self._ewma_service_s += alpha * (float(service_s) - self._ewma_service_s)

    def retry_after(self) -> float:
        """Estimated seconds until the queue has room again."""
        with self._lock:
            depth = len(self._heap)
            return max(0.05, depth * self._ewma_service_s)
