"""Deterministic fault injection and the failure hardening it drives.

Three pieces:

* :mod:`repro.resilience.faults` — a seeded :class:`FaultPlan` /
  :class:`FaultInjector` pair with zero-cost no-op sites when no plan is
  installed (the :mod:`repro.obs` tracing pattern), wired into the worker
  pool, serving replicas, compiled runtime, checkpoints and data loader;
* :mod:`repro.resilience.breaker` — the per-replica
  :class:`CircuitBreaker` (closed / open / half-open on error rate) that
  gates which fleet replicas pull work and feeds ``health_report()``;
* :mod:`repro.resilience.errors` — the typed failure taxonomy
  (:class:`NumericFault`, :class:`CheckpointCorruptError`,
  :class:`WorkerHungError`) the hardened paths raise.

The hardening itself lives where the failures live: the hung-worker
watchdog in :mod:`repro.parallel`, durable checksummed checkpoints in
:mod:`repro.training.checkpoint`, per-node numeric guards in
:mod:`repro.runtime` feeding the trainer's skip-step policy, and
breaker-aware replica workers in :mod:`repro.fleet`.
"""

from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.errors import (CheckpointCorruptError, NumericFault,
                                     ResilienceError, WorkerHungError)
from repro.resilience.faults import (FaultInjector, FaultPlan, FaultSpec,
                                     active_plan, get_injector, inject,
                                     install, uninstall)

__all__ = [
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "install",
    "uninstall",
    "get_injector",
    "active_plan",
    "inject",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ResilienceError",
    "NumericFault",
    "CheckpointCorruptError",
    "WorkerHungError",
]
