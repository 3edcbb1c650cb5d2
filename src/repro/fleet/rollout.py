"""Rollout strategies for hot-swapping a model version under live traffic.

Swapping the registry pointer (PR 5) is atomic but *blind*: the new version
takes 100% of traffic the instant it is published.  A fleet can afford to be
careful, because it has replicas to spare:

* **Canary** (:class:`CanaryRollout`) — the candidate serves a configured
  fraction of real traffic while the rest stays on the baseline.  Both arms
  accumulate error counts and latency windows; once the canary has seen
  ``min_requests``, the gate compares its error rate and p99 against the
  baseline and decides **promote** (candidate becomes the only group) or
  **rollback** (candidate is retired, baseline keeps serving).  The caller
  (the fleet server) applies the decision — this class only measures
  and judges, so it is trivially unit-testable.
* **Shadow** (:class:`ShadowRollout`) — the candidate receives a *mirror*
  of every request but its answers are never returned to clients; instead
  the fleet hands both arms' logits to :meth:`ShadowRollout.record`,
  which tracks the worst absolute divergence.  Shadowing validates numerics
  (a merged TT model, a new backend, a quantised variant) at zero client
  risk before any cutover.

Traffic splitting uses a deterministic credit accumulator rather than a
RNG: every request adds ``fraction`` to a credit; the request routes to the
canary exactly when the credit crosses 1.  A 10% canary therefore gets
exactly every 10th request — no sampling noise in tests or short windows.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Dict, Optional

import numpy as np

__all__ = ["CanaryRollout", "ShadowRollout"]

#: Latency-window size per arm; canary decisions look at recent behaviour.
_WINDOW = 2048


def _p99(window: deque) -> float:
    if not window:
        return 0.0
    return float(np.percentile(np.asarray(window, dtype=np.float64), 99))


class _Arm:
    """Request outcomes for one side of a canary split."""

    def __init__(self):
        self.requests = 0
        self.errors = 0
        self.latencies: deque = deque(maxlen=_WINDOW)

    def record(self, latency_s: Optional[float], error: bool) -> None:
        self.requests += 1
        if error:
            self.errors += 1
        elif latency_s is not None:
            self.latencies.append(float(latency_s))

    @property
    def error_rate(self) -> float:
        return self.errors / self.requests if self.requests else 0.0


class CanaryRollout:
    """Measured traffic split with an auto-promote / auto-rollback gate.

    Parameters
    ----------
    fraction:
        Share of traffic routed to the candidate, in ``(0, 1)``.
    min_requests:
        Canary answers required before the gate may decide either way —
        protects against promoting (or rolling back) on a handful of
        requests.
    max_error_rate:
        Candidate error-rate ceiling; above it the gate rolls back
        immediately once ``min_requests`` is reached.
    max_p99_ratio:
        Candidate p99 may be at most this multiple of the baseline p99
        (baseline must have answered at least ``min_requests`` too for the
        latency comparison to be meaningful; until then the gate waits).
    """

    def __init__(self, version, fraction: float = 0.1, min_requests: int = 20,
                 max_error_rate: float = 0.1, max_p99_ratio: float = 3.0):
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        if min_requests < 1:
            raise ValueError(f"min_requests must be >= 1, got {min_requests}")
        self.version = version
        self.fraction = float(fraction)
        self.min_requests = int(min_requests)
        self.max_error_rate = float(max_error_rate)
        self.max_p99_ratio = float(max_p99_ratio)
        self._credit = 0.0
        self._lock = threading.Lock()
        self._arms: Dict[str, _Arm] = {"baseline": _Arm(), "canary": _Arm()}
        #: ``None`` while measuring, then ``"promote"`` / ``"rollback"``.
        self.decision: Optional[str] = None

    # -- splitting ----------------------------------------------------------------

    def choose_arm(self) -> str:
        """Deterministic credit split: every ``1/fraction``-th request canaries."""
        with self._lock:
            if self.decision is not None:
                # The gate already ruled; the fleet is about to apply it.
                return "baseline" if self.decision == "rollback" else "canary"
            self._credit += self.fraction
            if self._credit >= 1.0:
                self._credit -= 1.0
                return "canary"
            return "baseline"

    # -- measurement and judgement -------------------------------------------------

    def record(self, arm: str, latency_s: Optional[float], error: bool) -> Optional[str]:
        """Record one outcome; returns the gate decision once it fires.

        The first call that pushes the canary arm over the gate threshold
        gets the non-``None`` decision; later calls return ``None`` again so
        the fleet applies promote/rollback exactly once.
        """
        with self._lock:
            self._arms[arm].record(latency_s, error)
            if self.decision is not None:
                return None
            decision = self._evaluate()
            if decision is not None:
                self.decision = decision
            return decision

    def _evaluate(self) -> Optional[str]:
        canary = self._arms["canary"]
        baseline = self._arms["baseline"]
        if canary.requests < self.min_requests:
            return None
        if canary.error_rate > self.max_error_rate:
            return "rollback"
        # Latency gate needs a baseline to compare against.
        if baseline.requests < self.min_requests:
            return None
        base_p99 = _p99(baseline.latencies)
        if base_p99 > 0 and _p99(canary.latencies) > self.max_p99_ratio * base_p99:
            return "rollback"
        return "promote"

    def report(self) -> dict:
        """Current per-arm numbers (for dashboards and tests)."""
        with self._lock:
            return {
                "version": self.version,
                "fraction": self.fraction,
                "decision": self.decision,
                "arms": {
                    name: {
                        "requests": arm.requests,
                        "errors": arm.errors,
                        "error_rate": arm.error_rate,
                        "p99_s": _p99(arm.latencies),
                    }
                    for name, arm in self._arms.items()
                },
            }


class ShadowRollout:
    """Mirror-traffic numerics validation: compare, never answer.

    The fleet answers the client from the primary group, queues a copy of
    every answered request on the shadow candidate, and feeds both logit
    rows here.  ``tolerance`` bounds the acceptable absolute
    divergence (1e-5 by default — fused-engine float32 rounding).
    """

    def __init__(self, version, tolerance: float = 1e-5):
        self.version = version
        self.tolerance = float(tolerance)
        self._lock = threading.Lock()
        self.compared = 0
        self.mismatches = 0
        self.shadow_errors = 0
        self.max_abs_diff = 0.0

    def record(self, primary_logits: np.ndarray,
               shadow_logits: Optional[np.ndarray],
               shadow_error: bool = False) -> None:
        with self._lock:
            if shadow_error or shadow_logits is None:
                self.shadow_errors += 1
                return
            diff = float(np.max(np.abs(np.asarray(primary_logits)
                                       - np.asarray(shadow_logits))))
            self.compared += 1
            if diff > self.max_abs_diff:
                self.max_abs_diff = diff
            if diff > self.tolerance:
                self.mismatches += 1

    @property
    def clean(self) -> bool:
        """True when every comparison so far stayed within tolerance."""
        with self._lock:
            return self.mismatches == 0 and self.shadow_errors == 0

    def report(self) -> dict:
        with self._lock:
            return {
                "version": self.version,
                "tolerance": self.tolerance,
                "compared": self.compared,
                "mismatches": self.mismatches,
                "shadow_errors": self.shadow_errors,
                "max_abs_diff": self.max_abs_diff,
            }
