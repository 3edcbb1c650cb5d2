"""Typed failure taxonomy shared by the hardened subsystems.

Every recovery path in the stack resolves to one of these types (or to an
existing typed error such as :class:`repro.fleet.errors.Overloaded`), so a
caller — or a chaos test — can always distinguish "the system answered",
"the system refused with a reason", and "the system is broken".  Keeping
the classes here, at the bottom of the import graph (this module depends on
nothing), lets ``runtime``, ``training``, ``parallel`` and ``fleet`` all
raise them without cycles.
"""

from __future__ import annotations

__all__ = [
    "ResilienceError",
    "NumericFault",
    "CheckpointCorruptError",
    "WorkerHungError",
]


class ResilienceError(RuntimeError):
    """Base class for typed failures raised by the hardening layer."""


class NumericFault(ResilienceError):
    """A non-finite value surfaced from a guarded compiled-plan node.

    Carries the node label and the node's schedule position inside the
    plan (``-1`` for checks outside a plan, such as the trainer's step
    guard or the engine's logits check).
    """

    def __init__(self, label: str, position: int, detail: str = ""):
        self.label = label
        self.position = int(position)
        message = f"non-finite output from '{label}' (node {position})"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)


class CheckpointCorruptError(ResilienceError):
    """A checkpoint file failed its integrity check (checksum/format)."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"corrupt checkpoint {path}: {reason}")


class WorkerHungError(ResilienceError):
    """A pool worker missed its reply deadline but its process is alive.

    Unlike :class:`repro.parallel.pool.WorkerCrashError` (process died or
    reported an exception — the pool is torn down), a hang is *recoverable*:
    the coordinator still owns the shared-memory segments and every other
    worker, so the supervisor can kill and respawn just the hung rank and
    retry the step from the synced weights.
    """

    def __init__(self, rank: int, timeout_s: float):
        self.rank = int(rank)
        self.timeout_s = float(timeout_s)
        super().__init__(
            f"worker {rank} missed its reply deadline ({timeout_s:.1f}s) "
            f"but is still alive")
