"""Typed errors of the serving fleet.

Everything a fleet can do to a request that is *not* answering it is
expressed as one of these types, so clients can branch on ``except`` clauses
instead of parsing message strings: back off and retry
(:class:`Overloaded`), give up on a stale request (:class:`DeadlineExceeded`),
resubmit elsewhere (:class:`ReplicaCrashed`), reopen a stream
(:class:`SessionClosed`), or stop submitting to a server that shut down
(:class:`BatcherClosed`).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaCrashed",
    "SessionClosed",
    "BatcherClosed",
]


class FleetError(RuntimeError):
    """Base class of every fleet-originated failure."""


class Overloaded(FleetError):
    """Admission control rejected the request: the model's queue is full.

    ``retry_after_s`` is the queue's estimate of when capacity frees up
    (queue depth over recent service rate) — the standard backpressure hint
    a client maps to ``Retry-After``.  Shedding at admission keeps the queue
    bounded, which is what keeps p99 for *admitted* requests bounded during
    a burst instead of letting every request time out in line.
    """

    def __init__(self, message: str, retry_after_s: float = 0.1):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceeded(FleetError):
    """The request's deadline passed before a replica could run it.

    Raised at admission (deadline already in the past) or when a replica
    pops the request — an expired request never reaches a fused forward, so
    a burst of stale work cannot starve fresh requests.
    """


class ReplicaCrashed(FleetError):
    """The replica serving this request died mid-flight.

    The crashed batch is requeued once for a sibling (the supervisor
    restarts the replica with a capped exponential backoff); this error only
    reaches the caller on a second crash, or when the group has no alive
    replica left.
    """

    def __init__(self, message: str, replica: Optional[str] = None):
        super().__init__(message if replica is None
                         else f"replica {replica}: {message}")
        self.replica = replica


class SessionClosed(FleetError):
    """The streaming session was closed (explicitly or by idle eviction)."""


class BatcherClosed(FleetError):
    """The server stopped serving the model before this request was served.

    ``close()`` and ``unregister()`` fail every still-queued request with
    this error (batches already running finish and answer), so no caller
    blocks forever across a shutdown.
    """
