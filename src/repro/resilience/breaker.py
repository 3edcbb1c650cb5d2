"""Per-replica circuit breaker: closed / open / half-open on error rate.

The fleet already requeues work around a *dead* replica; the breaker
covers the worse failure mode — a replica that is alive but failing
(intermittent crashes under restart churn, a poisoned model version).
Tripping the breaker stops the replica pulling work *before* its failures
burn through client retries, and the half-open state re-admits a bounded
number of probes so a recovered replica earns its traffic back instead of
being slammed with the full backlog at once.

States
------
``closed``
    Normal routing.  A sliding window of the last ``window`` outcomes is
    kept; when it holds at least ``min_requests`` samples and the error
    fraction reaches ``error_threshold``, the breaker opens.
``open``
    The replica leaves the queue to its siblings (the fleet falls back to
    any alive replica if *every* breaker is open — availability beats purity).
    After ``open_duration_s`` the next :meth:`allow` transitions to
    half-open.
``half-open``
    Up to ``half_open_probes`` concurrent probe requests are admitted.
    ``half_open_probes`` consecutive successes close the breaker (window
    cleared); any failure re-opens it and restarts the cool-down clock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Optional

__all__ = ["CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Stable numeric encoding for the per-slot breaker-state gauge.
STATE_CODES = {CLOSED: 0.0, OPEN: 1.0, HALF_OPEN: 2.0}


class CircuitBreaker:
    def __init__(self, window: int = 20, min_requests: int = 5,
                 error_threshold: float = 0.5, open_duration_s: float = 1.0,
                 half_open_probes: int = 2,
                 time_fn: Callable[[], float] = time.monotonic):
        if window < 1 or min_requests < 1 or half_open_probes < 1:
            raise ValueError("window, min_requests and half_open_probes "
                             "must be >= 1")
        self.window = int(window)
        self.min_requests = int(min_requests)
        self.error_threshold = float(error_threshold)
        self.open_duration_s = float(open_duration_s)
        self.half_open_probes = int(half_open_probes)
        self._now = time_fn
        self._lock = threading.Lock()
        self._outcomes: deque = deque(maxlen=self.window)
        self._state = CLOSED
        self._opened_at: Optional[float] = None
        self._probes_inflight = 0
        self._probe_successes = 0
        self._transitions = 0

    # -- caller side --------------------------------------------------------------

    def allow(self) -> bool:
        """May this replica take work right now?

        In the open state this is also where the cool-down expiry is
        noticed (the breaker has no timer thread); in half-open it admits
        at most ``half_open_probes`` concurrent probes.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._now() - self._opened_at >= self.open_duration_s:
                    self._transition(HALF_OPEN)
                else:
                    return False
            # half-open: bounded concurrent probes
            if self._probes_inflight >= self.half_open_probes:
                return False
            self._probes_inflight += 1
            return True

    # -- outcome feed -------------------------------------------------------------

    def record_success(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_probes:
                    self._outcomes.clear()
                    self._transition(CLOSED)
                return
            self._outcomes.append(True)
            self._maybe_trip()

    def record_failure(self) -> None:
        with self._lock:
            if self._state == HALF_OPEN:
                self._probes_inflight = max(0, self._probes_inflight - 1)
                self._trip()
                return
            self._outcomes.append(False)
            self._maybe_trip()

    # -- internals ----------------------------------------------------------------

    def _maybe_trip(self) -> None:
        if self._state != CLOSED or len(self._outcomes) < self.min_requests:
            return
        errors = sum(1 for ok in self._outcomes if not ok)
        if errors / len(self._outcomes) >= self.error_threshold:
            self._trip()

    def _trip(self) -> None:
        self._opened_at = self._now()
        self._transition(OPEN)

    def _transition(self, state: str) -> None:
        if state != self._state:
            self._transitions += 1
        self._state = state
        self._probes_inflight = 0
        self._probe_successes = 0

    # -- introspection ------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            # Surface cool-down expiry to readers without requiring traffic.
            if (self._state == OPEN
                    and self._now() - self._opened_at >= self.open_duration_s):
                self._transition(HALF_OPEN)
            return self._state

    def state_code(self) -> float:
        return STATE_CODES[self.state]

    def snapshot(self) -> dict:
        state = self.state
        with self._lock:
            outcomes = list(self._outcomes)
            return {
                "state": state,
                "window": len(outcomes),
                "errors": sum(1 for ok in outcomes if not ok),
                "transitions": self._transitions,
                "probes_inflight": self._probes_inflight,
            }
