"""``repro.fleet`` — the serving front-end for SNN engine snapshots.

Design note
-----------
One engine scales a model by batching: one lock, throughput bounded by one
fused forward at a time.  This package serves it through replica groups —
with one replica it is :class:`repro.serve.server.InferenceServer`, and with
N it scales by *replication*, the production pattern the paper's deployment
story implies once a trained snapshot serves real traffic:

* :mod:`~repro.fleet.admission` — one bounded priority queue per replica
  group: typed :class:`~repro.fleet.errors.Overloaded` backpressure with a
  ``retry_after_s`` hint, and per-request deadlines enforced before a stale
  request can occupy a batch slot
  (:class:`~repro.fleet.errors.DeadlineExceeded`);
* :mod:`~repro.fleet.replica` — N identical in-process engine snapshots
  (NumPy releases the GIL in its GEMMs), each with its own circuit breaker
  and worker thread, which pulls batches straight from its group's queue;
* :class:`~repro.fleet.server.FleetServer` — the groups and their
  supervisor: capped-backoff restarts, one requeue of a crashed batch,
  atomic pointer-swap deploys, and the response cache
  ``InferenceServer`` turns on;
* :mod:`~repro.fleet.rollout` — measured hot-swaps under live traffic:
  canary splits with an auto-promote / auto-rollback gate on error rate and
  p99, and shadow mirroring that compares candidate logits without ever
  answering from the candidate;
* :mod:`~repro.fleet.sessions` — streaming stateful sessions over the
  persistent-membrane runtime (:mod:`repro.runtime.streaming`): chunked
  event streams whose time-averaged logits match the one-shot fixed-``T``
  forward to 1e-6, with replica affinity, crash re-pinning and idle
  eviction.

Everything is instrumented through :mod:`repro.obs`: ``serve.request`` →
``serve.queue_wait`` → ``serve.batch`` → ``engine.infer`` span trees,
per-replica utilization and outstanding-request gauges, queue-depth gauges
and shed counters.  See the
README "Serving fleet" section and ``examples/fleet_quickstart.py``.
"""

from repro.fleet.admission import AdmissionQueue, FleetRequest
from repro.fleet.errors import (BatcherClosed, DeadlineExceeded, FleetError,
                                Overloaded, ReplicaCrashed, SessionClosed)
from repro.fleet.replica import Replica
from repro.fleet.rollout import CanaryRollout, ShadowRollout
from repro.fleet.server import FleetServer
from repro.fleet.sessions import StreamingSession

__all__ = [
    "AdmissionQueue",
    "FleetRequest",
    "FleetError",
    "Overloaded",
    "DeadlineExceeded",
    "ReplicaCrashed",
    "SessionClosed",
    "BatcherClosed",
    "Replica",
    "CanaryRollout",
    "ShadowRollout",
    "FleetServer",
    "StreamingSession",
]
