"""The fleet server: replica groups, admission, rollout, sessions.

:class:`FleetServer` is the one serving front-end of the library:
:class:`repro.serve.server.InferenceServer` is its single-replica
configuration (one replica, no admission bound, a response cache, the model
registry as its version catalogue).  Per registered model it owns:

* a **replica group** — N identical engine snapshots
  (:mod:`repro.fleet.replica`) in front of **one** bounded, priority-ordered
  admission queue (:mod:`repro.fleet.admission`).  Each replica's worker
  thread pops up to ``max_batch_size`` requests (waiting at most
  ``max_wait_ms`` for co-riders), fails expired ones with
  :class:`~repro.fleet.errors.DeadlineExceeded`, runs one fused forward and
  resolves the client futures itself: one queue and one thread hop, and
  no router — an idle replica takes the next batch.
  A crashed batch is requeued once for a sibling (a canary request on the
  baseline's queue);
* a **supervisor thread**, off the request path — restarts dead replicas
  with capped exponential backoff, fails the queue of a group with no alive
  replica (:class:`~repro.fleet.errors.ReplicaCrashed`), closes retired
  groups once their queues drain, and evicts idle sessions;
* optional **rollout state** (:mod:`repro.fleet.rollout`) — a canary split
  chosen at ``submit`` (the request joins the candidate group's queue) or a
  shadow mirror queued once the primary batch answers, promoted or rolled
  back atomically by pointer swap;
* an optional **response cache** (:mod:`repro.serve.cache`) checked at
  ``submit`` and filled by the worker, keyed by the version of the group
  that computed the answer.

Every request runs under a ``serve.request`` root with a ``serve.queue_wait``
child, then the fused forward's shared ``serve.batch`` span (parented on the
batch leader, linked into every rider's tree) around ``engine.infer``.  The
root carries the request's ``arm`` and ``version``, the batch span its
``replica``.  Queue depth, per-replica outstanding and utilization, shed
counts, restarts and canary decisions export through the
:mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.fleet.admission import AdmissionQueue, FleetRequest
from repro.fleet.errors import (BatcherClosed, DeadlineExceeded, FleetError,
                                Overloaded, ReplicaCrashed)
from repro.fleet.replica import Replica
from repro.fleet.rollout import CanaryRollout, ShadowRollout
from repro.fleet.sessions import StreamingSession
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.resilience.breaker import HALF_OPEN, OPEN, CircuitBreaker
from repro.serve.cache import ResponseCache, input_digest
from repro.serve.engine import InferenceEngine
from repro.serve.stats import ServerStats

__all__ = ["FleetServer"]

#: Shed reasons exported as ``repro_fleet_shed_total{reason=...}``.
_SHED_REASONS = ("overloaded", "deadline", "crashed")

#: Supervisor period, and the longest an idle replica worker blocks on its
#: queue before it checks again whether it was killed or closed.
_TICK_S = 0.02


class _ReplicaSlot:
    """One position in a replica group, stable across restarts."""

    __slots__ = ("index", "replica", "generation", "restarts", "restart_at",
                 "healthy_since")

    def __init__(self, index: int, replica: Replica):
        self.index = index
        self.replica = replica
        self.generation = 0
        self.restarts = 0
        #: Scheduled restart time (monotonic) once the replica is seen dead.
        self.restart_at: Optional[float] = None
        #: Monotonic time the replica was last seen (re)entering the alive
        #: state; a sustained healthy window resets the backoff counter.
        self.healthy_since: Optional[float] = None


class _ReplicaGroup:
    """N identical replicas of one model version pulling from one queue."""

    def __init__(self, version, factory, count: int, capacity: int):
        self.version = version
        self.factory = factory  # (slot_index, generation) -> Replica
        self.queue = AdmissionQueue(capacity)
        self.slots = [_ReplicaSlot(i, factory(i, 0)) for i in range(count)]
        #: Worker loop every replica of the group runs (set by ``start``).
        self.loop: Optional[Callable[[Replica], None]] = None

    def start(self, loop: Callable[[Replica], None]) -> None:
        self.loop = loop
        for slot in self.slots:
            slot.replica.start(loop)

    def alive(self) -> List[Replica]:
        return [slot.replica for slot in self.slots if slot.replica.alive]

    def pick(self) -> Optional[Replica]:
        """The alive replica holding the fewest requests (sessions pin to it)."""
        alive = self.alive()
        return min(alive, key=lambda r: r.outstanding) if alive else None

    def close(self, timeout: float = 10.0) -> list:
        """Close the queue, join the workers once they drained it, and return
        whatever they left queued (a dead group drains nothing)."""
        self.queue.close()
        for slot in self.slots:
            slot.replica.close(timeout=timeout)
        return self.queue.drain()


class _ModelEntry:
    """Everything the fleet holds for one registered model name."""

    def __init__(self, name: str, group: _ReplicaGroup, stats: ServerStats,
                 cache: Optional[ResponseCache]):
        self.name = name
        self.group = group
        self.stats = stats
        self.cache = cache
        self.stopped = threading.Event()
        self.supervisor: Optional[threading.Thread] = None
        #: Serialises group-pointer swaps (canary promote/rollback, deploys).
        self.swap_lock = threading.Lock()
        self.canary: Optional[dict] = None  # {"rollout": CanaryRollout, "group": _ReplicaGroup}
        self.shadow: Optional[dict] = None  # {"rollout": ShadowRollout, "group": _ReplicaGroup}
        #: Groups replaced by a swap/rollback, closed by the supervisor —
        #: never by a replica worker, which would join itself.
        self.retired: List[_ReplicaGroup] = []
        self.sessions: Dict[str, StreamingSession] = {}
        self.session_lock = threading.Lock()
        self.metrics: dict = {}

    def groups(self) -> List[_ReplicaGroup]:
        """The serving group plus any canary or shadow candidate."""
        groups = [self.group]
        for rollout in (self.canary, self.shadow):
            if rollout is not None:
                groups.append(rollout["group"])
        return groups


class FleetServer:
    """Serve registered models from supervised replica groups.

    Parameters
    ----------
    replicas:
        Default replica count per model (override per ``register`` call).
        Replicas are in-process engines that overlap wherever NumPy
        releases the GIL.
    max_batch_size / max_wait_ms:
        Batching policy of every replica worker.
    queue_capacity:
        Admission bound per replica group; requests beyond it shed with
        :class:`Overloaded`.  An admitted request waits behind at most
        ``queue_capacity + replicas * max_batch_size`` others, which bounds
        the admitted tail latency however hard a burst overshoots.
    restart_backoff_s / restart_backoff_cap_s / max_restarts:
        Crash supervision: a dead replica is rebuilt after
        ``backoff * 2**restarts`` seconds (capped), at most ``max_restarts``
        times per slot.
    restart_reset_s:
        A replica that stays alive this long after a restart earns its slot's
        backoff counter back (``restarts`` resets to 0), so a replica that
        crashes rarely but over a long uptime is never permanently
        condemned by ``max_restarts``.
    breaker_window / breaker_min_requests / breaker_error_threshold /
    breaker_open_s:
        Per-replica circuit breaker
        (:class:`~repro.resilience.breaker.CircuitBreaker`) fed with one
        outcome per batch.  While open (``breaker_open_s``) the replica
        leaves the queue to its routable siblings, and when *every* breaker
        is open the replicas pull anyway; a half-open replica probes with
        batches of one request until its breaker closes.
    session_idle_timeout_s:
        Streaming sessions idle longer than this are evicted (closed with
        reason ``"idle"``).

    Metrics export into the process-wide registry
    (:func:`~repro.obs.metrics.default_registry`).
    """

    def __init__(
        self,
        replicas: int = 2,
        max_batch_size: int = 8,
        max_wait_ms: float = 2.0,
        queue_capacity: int = 64,
        restart_backoff_s: float = 0.2,
        restart_backoff_cap_s: float = 5.0,
        max_restarts: int = 5,
        restart_reset_s: float = 30.0,
        breaker_window: int = 20,
        breaker_min_requests: int = 5,
        breaker_error_threshold: float = 0.5,
        breaker_open_s: float = 1.0,
        session_idle_timeout_s: float = 60.0,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if max_batch_size < 1 or max_wait_ms < 0:
            raise ValueError("need max_batch_size >= 1 and max_wait_ms >= 0, got "
                             f"{max_batch_size} and {max_wait_ms}")
        self.default_replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.queue_capacity = int(queue_capacity)
        self.restart_backoff_s = float(restart_backoff_s)
        self.restart_backoff_cap_s = float(restart_backoff_cap_s)
        self.max_restarts = int(max_restarts)
        self.restart_reset_s = float(restart_reset_s)
        self._breaker_kwargs = dict(
            window=int(breaker_window),
            min_requests=int(breaker_min_requests),
            error_threshold=float(breaker_error_threshold),
            open_duration_s=float(breaker_open_s))
        self.session_idle_timeout_s = float(session_idle_timeout_s)
        #: Per-model response-cache entries (``0``: no cache).  Only
        #: :class:`~repro.serve.server.InferenceServer` turns the cache on.
        self.cache_capacity = 0
        self._metrics = default_registry()
        self._models: Dict[str, _ModelEntry] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- registration -------------------------------------------------------------

    def _make_factory(self, name: str, model, version, engine_kwargs: dict):
        """Build-recipe closure: (slot, generation) -> fresh replica.

        A prebuilt :class:`InferenceEngine` is served as is by slot 0's
        first incarnation; every other slot and every restart serves its
        :meth:`~InferenceEngine.clone`.
        """
        def factory(slot: int, generation: int) -> Replica:
            if not isinstance(model, InferenceEngine):
                engine = InferenceEngine(model, **engine_kwargs)
            else:
                engine = model if slot == generation == 0 else model.clone()
            # A fresh incarnation starts with a clean breaker: its
            # predecessor's error history belongs to the dead replica.
            return Replica(f"{name}/v{version}/r{slot}.{generation}", engine,
                           CircuitBreaker(**self._breaker_kwargs), model_name=name)

        return factory

    def _build_group(self, name: str, model, version, count: int,
                     warmup_sample, engine_kwargs: dict) -> _ReplicaGroup:
        factory = self._make_factory(name, model, version, engine_kwargs)
        group = _ReplicaGroup(version, factory, count, self.queue_capacity)
        if warmup_sample is not None:
            # Warm through the replicas' fused forward so first client
            # requests never pay first-call costs on any replica.
            batch = np.asarray(warmup_sample, dtype=np.float32)[None]
            for slot in group.slots:
                slot.replica.run_batch(batch)
        return group

    def _start_group(self, entry: _ModelEntry, group: _ReplicaGroup) -> None:
        group.start(lambda replica: self._serve(entry, group, replica))

    def register(
        self,
        name: str,
        model,
        version=1,
        replicas: Optional[int] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> InferenceEngine:
        """Stand up a replica group for ``model`` and start serving it.

        ``model`` is a :class:`~repro.models.base.SpikingModel` (each
        replica snapshots it with ``engine_kwargs``) or a prebuilt
        :class:`InferenceEngine`, which slot 0 then serves.  Returns slot
        0's engine.

        Raises ``ValueError`` when ``name`` is already registered and
        ``RuntimeError`` when the fleet is closed, both checked again once
        the group is built: a ``register`` that loses a race with another
        ``register`` or with :meth:`close` tears its own group down.
        """
        count = replicas if replicas is not None else self.default_replicas
        with self._lock:
            self._check_new_name(name)
        group = self._build_group(name, model, version, count,
                                  warmup_sample, engine_kwargs)
        try:
            with self._lock:
                self._check_new_name(name)
                cache = (ResponseCache(self.cache_capacity, name=name)
                         if self.cache_capacity > 0 else None)
                entry = _ModelEntry(name, group, ServerStats(name=name), cache)
                self._register_metrics(entry, count)
                entry.supervisor = threading.Thread(
                    target=self._supervise, args=(entry,),
                    name=f"fleet-supervisor-{name}", daemon=True)
                self._models[name] = entry
                self._start_group(entry, group)
                entry.supervisor.start()
        except BaseException:
            group.close()
            raise
        return group.slots[0].replica.engine

    def _check_new_name(self, name: str) -> None:
        """Raise unless ``name`` can be registered now (caller holds the lock)."""
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if name in self._models:
            raise ValueError(f"model {name!r} already registered; "
                             "use deploy() to roll out a new version")

    def _register_metrics(self, entry: _ModelEntry, count: int) -> None:
        name = entry.name
        labels = {"model": name}
        metrics = entry.metrics
        metrics["queue_depth"] = self._metrics.gauge(
            "repro_fleet_queue_depth", "Admission-queue depth",
            labels=labels, fn=lambda: entry.group.queue.depth)
        for reason in _SHED_REASONS:
            metrics[f"shed_{reason}"] = self._metrics.counter(
                "repro_fleet_shed_total", "Requests shed, by reason",
                labels={"model": name, "reason": reason})
        metrics["restarts"] = self._metrics.counter(
            "repro_fleet_replica_restarts_total", "Replica restarts",
            labels=labels)
        metrics["promotions"] = self._metrics.counter(
            "repro_fleet_canary_promotions_total", "Canary promotions",
            labels=labels)
        metrics["rollbacks"] = self._metrics.counter(
            "repro_fleet_canary_rollbacks_total", "Canary rollbacks",
            labels=labels)
        for outcome in ("ok", "error"):
            metrics[f"requests_{outcome}"] = self._metrics.counter(
                "repro_fleet_requests_total", "Fleet requests, by outcome",
                labels={"model": name, "outcome": outcome})

        def slot_reader(index: int, read: Callable[[Replica], float]):
            # The pull closure follows pointer swaps: it always reads the
            # entry's *current* primary group.
            def gauge() -> float:
                slots = entry.group.slots
                return float(read(slots[index].replica)) if index < len(slots) else 0.0
            return gauge

        per_replica = (
            ("outstanding", "repro_fleet_replica_outstanding",
             "Requests in the batch each replica holds", lambda r: r.outstanding),
            ("utilization", "repro_fleet_replica_utilization",
             "Busy fraction per replica", Replica.utilization),
            ("breaker", "repro_fleet_breaker_state",
             "Circuit-breaker state per replica (0=closed, 1=open, 2=half-open)",
             lambda r: r.breaker.state_code()))
        for index in range(count):
            for key, metric, doc, read in per_replica:
                metrics[f"{key}_{index}"] = self._metrics.gauge(
                    metric, doc, labels={"model": name, "replica": str(index)},
                    fn=slot_reader(index, read))

    # -- client surface -----------------------------------------------------------

    def submit(self, name: str, sample: np.ndarray, priority: int = 0,
               deadline_s: Optional[float] = None) -> Future:
        """Admit one ``(C, H, W)`` sample; returns a future of its logits row.

        Raises :class:`Overloaded` synchronously when the admission queue is
        full (``retry_after_s`` carries the backpressure hint), and
        ``RuntimeError`` once the server is closed.
        ``deadline_s`` is a relative deadline; a request that no replica
        pops in time resolves with :class:`DeadlineExceeded`.
        ``priority`` orders the admission queue (higher first).
        """
        return self._submit(name, sample, priority, deadline_s, use_cache=True)

    def _submit(self, name: str, sample: np.ndarray, priority: int,
                deadline_s: Optional[float], use_cache: bool) -> Future:
        """The one request path of both configurations: the response cache
        (when the server has one), then admission into the group's queue."""
        if self._closed:
            raise RuntimeError(f"cannot submit to a closed {type(self).__name__}")
        entry = self._entry(name)
        sample = np.asarray(sample, dtype=np.float32)
        if sample.ndim != 3:
            raise ValueError(f"submit expects a single (C, H, W) sample, "
                             f"got {sample.shape}")
        digest = None
        if use_cache and entry.cache is not None:
            digest = input_digest(sample)
            version = entry.group.version
            cached = entry.cache.get(f"{version}:{digest}")
            entry.stats.record_cache(hit=cached is not None)
            if cached is not None:
                return self._cache_hit(entry, version, cached)
        tracer = get_tracer()
        root = queue_span = None
        if tracer.enabled:
            root = tracer.start_span("serve.request", attrs={"model": name})
            queue_span = tracer.start_span("serve.queue_wait", parent=root)
        deadline = (time.monotonic() + float(deadline_s)
                    if deadline_s is not None else None)
        request = FleetRequest(sample, Future(), priority=priority,
                               deadline=deadline, root_span=root,
                               queue_span=queue_span, digest=digest)
        if request.expired():
            self._fail_request(entry, request,
                               DeadlineExceeded("deadline expired at admission"),
                               reason="deadline")
            return request.future
        try:
            self._admit(entry, request)
        except FleetError as error:
            if isinstance(error, Overloaded):
                entry.metrics["shed_overloaded"].inc()
            entry.metrics["requests_error"].inc()
            self._finish_spans(request, status="error")
            raise
        return request.future

    def _cache_hit(self, entry: _ModelEntry, version, row: np.ndarray) -> Future:
        """Answer from the response cache: counted and traced, never queued."""
        entry.stats.record_request(0.0)
        entry.metrics["requests_ok"].inc()
        tracer = get_tracer()
        if tracer.enabled:
            root = tracer.start_span("serve.request",
                                     attrs={"model": entry.name, "cache": "hit"})
            root.add_event("cache_hit", version=str(version))
            tracer.finish_span(root)
        future: Future = Future()
        future.set_result(row)
        return future

    def _admit(self, entry: _ModelEntry, request: FleetRequest) -> None:
        """Queue ``request`` on its arm's group.  The deterministic canary
        split sends a request on its credit to the candidate's queue, unless
        no candidate replica is alive: that counts as a canary error, and
        the baseline serves it.  A request whose group a swap retired (its
        queue closed) joins the group serving now; once the model stopped
        serving it fails with :class:`BatcherClosed`."""
        group = entry.group
        canary = entry.canary
        if canary is not None and canary["rollout"].choose_arm() == "canary":
            if canary["group"].alive():
                group = canary["group"]
                request.arm = "canary"
            else:
                self._record_arm(entry, "canary", None, error=True)
        while True:
            try:
                group.queue.put(request)
                return
            except Overloaded:
                if not group.queue.closed:
                    raise
            # Teardown sets ``stopped`` before it closes any queue.
            if entry.stopped.is_set():
                raise BatcherClosed(f"model {entry.name!r} stopped serving")
            group = self._as_baseline(entry, request)

    @staticmethod
    def _as_baseline(entry: _ModelEntry, request: FleetRequest) -> _ReplicaGroup:
        """Move ``request`` to the baseline arm; returns the serving group."""
        request.arm = "baseline"
        return entry.group

    def infer(self, name: str, sample: np.ndarray, priority: int = 0,
              deadline_s: Optional[float] = None,
              timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper around :meth:`submit`."""
        return self.submit(name, sample, priority=priority,
                           deadline_s=deadline_s).result(timeout=timeout)

    def open_session(self, name: str) -> StreamingSession:
        """Open a persistent-membrane streaming session pinned to a replica."""
        entry = self._entry(name)
        replica = entry.group.pick()
        if replica is None:
            raise ReplicaCrashed("no alive replica to pin session to")
        # The re-pin hook reads ``entry.group`` at call time, so sessions
        # follow promote/replace swaps instead of pinning to a retired group.
        session = StreamingSession(
            name, replica, pick_replica=lambda: entry.group.pick(),
            on_close=lambda s: self._drop_session(entry, s))
        with entry.session_lock:
            entry.sessions[session.session_id] = session
        return session

    def _drop_session(self, entry: _ModelEntry, session: StreamingSession) -> None:
        with entry.session_lock:
            entry.sessions.pop(session.session_id, None)

    # -- rollout ------------------------------------------------------------------

    def deploy(
        self,
        name: str,
        model,
        version,
        mode: str = "replace",
        fraction: float = 0.1,
        min_requests: int = 20,
        max_error_rate: float = 0.1,
        max_p99_ratio: float = 3.0,
        tolerance: float = 1e-5,
        replicas: Optional[int] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ):
        """Roll out a new version of an already-registered model.

        ``mode="replace"`` swaps the group atomically (the new group is
        fully built and warmed before the pointer moves; it is also how
        :meth:`InferenceServer.swap <repro.serve.server.InferenceServer.swap>`
        reaches the served group).  ``mode="canary"`` routes ``fraction`` of
        traffic to the candidate and auto-promotes / auto-rolls-back on the
        error-rate + p99 gate.  ``mode="shadow"`` mirrors all traffic to the
        candidate, compares logits, and never answers from it; inspect
        :meth:`shadow_report` and cut over with :meth:`promote_shadow`.
        Returns the rollout handle (``None`` for replace).  Raises
        ``RuntimeError``, after closing the new group, when the model is
        unregistered (or the fleet closed) while the group is being built.
        """
        if mode not in ("replace", "canary", "shadow"):
            raise ValueError(f"mode must be replace/canary/shadow, got {mode!r}")
        entry = self._entry(name)
        count = replicas if replicas is not None else len(entry.group.slots)
        group = self._build_group(name, model, version, count,
                                  warmup_sample, engine_kwargs)
        with entry.swap_lock:
            if not entry.stopped.is_set():
                if mode != "replace" and (entry.canary is not None
                                          or entry.shadow is not None):
                    entry.retired.append(group)
                    raise RuntimeError(
                        f"model {name!r} already has an active rollout; finish it first")
                self._start_group(entry, group)
                if mode == "replace":
                    entry.retired.append(entry.group)
                    entry.group = group
                    return None
                if mode == "canary":
                    rollout = CanaryRollout(version, fraction=fraction,
                                            min_requests=min_requests,
                                            max_error_rate=max_error_rate,
                                            max_p99_ratio=max_p99_ratio)
                    entry.canary = {"rollout": rollout, "group": group}
                    return rollout
                rollout = ShadowRollout(version, tolerance=tolerance)
                entry.shadow = {"rollout": rollout, "group": group}
                return rollout
        # Only reached when an unregister/close won the race: it has already
        # collected this entry's groups, so nothing else would close this one.
        group.close()
        raise RuntimeError(f"model {name!r} was unregistered during deploy")

    def canary_report(self, name: str) -> Optional[dict]:
        canary = self._entry(name).canary
        return canary["rollout"].report() if canary is not None else None

    def shadow_report(self, name: str) -> Optional[dict]:
        shadow = self._entry(name).shadow
        return shadow["rollout"].report() if shadow is not None else None

    def promote_shadow(self, name: str) -> dict:
        """Cut over to the shadow candidate (caller judged the report clean)."""
        entry = self._entry(name)
        with entry.swap_lock:
            if entry.shadow is None:
                raise RuntimeError(f"model {name!r} has no active shadow rollout")
            shadow = entry.shadow
            entry.shadow = None
            entry.retired.append(entry.group)
            entry.group = shadow["group"]
            return shadow["rollout"].report()

    def stop_shadow(self, name: str) -> dict:
        """Abort the shadow rollout, retiring the candidate group."""
        entry = self._entry(name)
        with entry.swap_lock:
            if entry.shadow is None:
                raise RuntimeError(f"model {name!r} has no active shadow rollout")
            shadow = entry.shadow
            entry.shadow = None
            entry.retired.append(shadow["group"])
            return shadow["rollout"].report()

    def _apply_canary(self, entry: _ModelEntry, decision: str) -> None:
        with entry.swap_lock:
            canary = entry.canary
            if canary is None:
                return
            entry.canary = None
            if decision == "promote":
                retired = entry.group
                entry.group = canary["group"]
                entry.metrics["promotions"].inc()
            else:
                retired = canary["group"]
                entry.metrics["rollbacks"].inc()
            # Teardown is deferred to the supervisor: this method runs on a
            # replica's worker thread, which must not join its own group.
            entry.retired.append(retired)

    def _record_arm(self, entry: _ModelEntry, arm: str,
                    latency: Optional[float], error: bool) -> None:
        canary = entry.canary
        if canary is None or arm == "shadow":
            return
        decision = canary["rollout"].record(arm, latency, error)
        if decision is not None:
            self._apply_canary(entry, decision)

    # -- replica workers ----------------------------------------------------------

    def _serve(self, entry: _ModelEntry, group: _ReplicaGroup,
               replica: Replica) -> None:
        """One replica's worker: pop a batch from the group queue, run it,
        answer it.  Exits when the replica is killed, or once the queue is
        empty and closed (or the replica closed)."""
        queue = group.queue
        while not replica.killed:
            if not queue.wait(_TICK_S):
                if queue.closed or not replica.alive:
                    return
                continue
            size = self._pull_size(group, replica)
            if not size:
                time.sleep(_TICK_S)
                continue
            batch = queue.pop_batch(size, self.max_wait_s)
            if batch:
                self._run_batch(entry, group, replica, batch)

    def _pull_size(self, group: _ReplicaGroup, replica: Replica) -> int:
        """How many requests ``replica`` may pop: none while its breaker is
        open and a sibling's is not (every breaker open: a full batch
        anyway), one per half-open probe, else a full batch."""
        state = replica.breaker.state
        if state == HALF_OPEN:
            return 1
        if state == OPEN and any(other.breaker.state != OPEN
                                 for other in group.alive()
                                 if other is not replica):
            return 0
        return self.max_batch_size

    @staticmethod
    def _try_start(request: FleetRequest) -> bool:
        """Move the client future to running; ``False`` if the client
        cancelled.  A requeued request already runs since its first pop."""
        if request.retries:
            return True
        try:
            return request.future.set_running_or_notify_cancel()
        except RuntimeError:  # pragma: no cover - already running/resolved
            return True

    def _run_batch(self, entry: _ModelEntry, group: _ReplicaGroup,
                   replica: Replica, batch: List[FleetRequest]) -> None:
        """Stack the batch, run one fused forward and resolve every future:
        the only place a request is answered from the engine."""
        now = time.monotonic()
        live = []
        for request in batch:
            if not self._try_start(request):
                self._finish_spans(request, status="cancelled")
            elif request.expired(now):
                self._fail_request(entry, request,
                                   DeadlineExceeded(
                                       "deadline expired after "
                                       f"{now - request.enqueued:.3f}s in queue"),
                                   reason="deadline", running=True)
            else:
                live.append(request)
        if not live:
            return
        tracer = get_tracer()
        # One shared batch span under the first traced request (the batch
        # leader), linked into every other rider's tree once it finishes.
        leader = next((request.root_span for request in live
                       if request.root_span is not None), None)
        batch_span = None
        if leader is not None:
            start_perf = time.perf_counter()
            for request in live:
                tracer.finish_span(request.queue_span, end_perf=start_perf)
            batch_span = tracer.start_span(
                "serve.batch", parent=leader,
                attrs={"batch_size": len(live), "model": entry.name,
                       "replica": replica.name})
        replica.outstanding = len(live)
        replica.breaker.allow()  # half-open: this batch of one is a probe
        start = time.perf_counter()
        try:
            with tracer.activate(batch_span):
                rows = replica.run_batch(
                    np.stack([request.sample for request in live]))
            if replica.killed:
                raise ReplicaCrashed("killed while holding a batch",
                                     replica=replica.name)
            if len(rows) != len(live):
                raise RuntimeError(f"engine returned {len(rows)} rows for "
                                   f"{len(live)} requests")
        except Exception as error:  # noqa: BLE001 - forwarded to the futures
            replica.breaker.record_failure()
            self._finish_batch_span(tracer, batch_span, live, leader, "error")
            self._fail_batch(entry, group.queue, replica, live, error)
            return
        finally:
            replica.outstanding = 0
        replica.breaker.record_success()
        done = time.monotonic()
        group.queue.note_served((time.perf_counter() - start) / len(live))
        # Record and finish spans *before* publishing: a caller woken by its
        # future must already see its request in the stats and the trace.
        self._finish_batch_span(tracer, batch_span, live, leader, "ok")
        answered = 0
        for request, row in zip(live, rows):
            if request.arm == "shadow":
                continue
            answered += 1
            latency = done - request.enqueued
            entry.stats.record_request(latency)
            entry.metrics["requests_ok"].inc()
            self._record_arm(entry, request.arm, latency, error=False)
            if request.digest is not None:
                entry.cache.put(f"{group.version}:{request.digest}", row)
            if request.root_span is not None:
                request.root_span.set_attrs(latency_s=latency, arm=request.arm,
                                            version=str(group.version))
            self._finish_spans(request, status="ok")
        if answered:
            entry.stats.record_batch(answered)
        for request, row in zip(live, rows):
            try:
                request.future.set_result(row)
            except InvalidStateError:  # pragma: no cover - client raced a cancel
                pass
        if entry.shadow is not None:
            self._mirror(entry, live, rows)

    @staticmethod
    def _finish_batch_span(tracer, batch_span, live: List[FleetRequest],
                           leader, status: str) -> None:
        """Close the shared batch span and link it into every rider's tree."""
        if batch_span is None:
            return
        batch_span.status = status
        tracer.finish_span(batch_span)
        for request in live:
            if request.root_span is not None and request.root_span is not leader:
                tracer.link(request.root_span, batch_span)

    def _fail_batch(self, entry: _ModelEntry, queue: AdmissionQueue,
                    replica: Replica, live: List[FleetRequest],
                    error: BaseException) -> None:
        """A crashed batch is requeued once for a sibling, a canary request
        on the baseline's queue; other errors, and a second crash, fail the
        requests."""
        crash = isinstance(error, ReplicaCrashed)
        for request in live:
            self._record_arm(entry, request.arm, None, error=True)
            failure = error
            if crash and request.retries == 0:
                request.retries = 1
                target = (self._as_baseline(entry, request).queue
                          if request.arm == "canary" else queue)
                if target.requeue(request):
                    if request.root_span is not None:
                        request.root_span.add_event("fleet.reroute",
                                                    from_replica=replica.name)
                    continue
                failure = ReplicaCrashed("fleet shut down while rerouting",
                                         replica=replica.name)
            self._fail_request(entry, request, failure,
                               reason="crashed" if crash else None,
                               running=True)

    def _mirror(self, entry: _ModelEntry, live: List[FleetRequest],
                rows: np.ndarray) -> None:
        """Queue a copy of each answered request on the shadow candidate and
        compare its logits with the primary row once it answers."""
        shadow = entry.shadow
        if shadow is None:
            return
        rollout: ShadowRollout = shadow["rollout"]
        for request, row in zip(live, rows):
            if request.arm == "shadow":
                continue
            copy = FleetRequest(request.sample, Future())
            copy.arm = "shadow"
            copy.future.add_done_callback(
                functools.partial(self._compare_shadow, rollout, row))
            try:
                shadow["group"].queue.put(copy)
            except Overloaded:
                rollout.record(row, None, shadow_error=True)

    @staticmethod
    def _compare_shadow(rollout: ShadowRollout, primary_row: np.ndarray,
                        future: Future) -> None:
        if future.cancelled() or future.exception() is not None:
            rollout.record(primary_row, None, shadow_error=True)
        else:
            rollout.record(primary_row, future.result())

    def _fail_request(self, entry: _ModelEntry, request: FleetRequest,
                      error: BaseException, reason: Optional[str],
                      running: bool = False) -> None:
        if not running and not self._try_start(request):
            self._finish_spans(request, status="cancelled")
            return
        if request.arm != "shadow":
            if reason in _SHED_REASONS:
                entry.metrics[f"shed_{reason}"].inc()
            entry.metrics["requests_error"].inc()
        try:
            request.future.set_exception(error)
        except InvalidStateError:  # pragma: no cover - already resolved
            pass
        if request.root_span is not None:
            request.root_span.set_attr("error", repr(error))
        self._finish_spans(request, status="error")

    def _fail_queued(self, entry: _ModelEntry, requests: List[FleetRequest],
                     crashed: bool) -> None:
        """Fail requests no replica will pop: the group died, or the fleet
        is shutting down.  A dead canary's requests fall back to the
        baseline instead."""
        for request in requests:
            if crashed:
                self._record_arm(entry, request.arm, None, error=True)
                if (request.arm == "canary" and self._as_baseline(
                        entry, request).queue.requeue(request)):
                    continue
                error: BaseException = ReplicaCrashed("no alive replica available")
            else:
                error = BatcherClosed(f"model {entry.name!r} stopped serving "
                                      "before this request was served")
            self._fail_request(entry, request, error,
                               reason="crashed" if crashed else None)

    def _finish_spans(self, request: FleetRequest, status: str) -> None:
        tracer = get_tracer()
        tracer.finish_span(request.queue_span)
        if request.root_span is not None:
            request.root_span.status = status
            tracer.finish_span(request.root_span)

    # -- supervision --------------------------------------------------------------

    def _supervise(self, entry: _ModelEntry) -> None:
        while not entry.stopped.wait(_TICK_S):
            self._maintain(entry)

    def _maintain(self, entry: _ModelEntry) -> None:
        now = time.monotonic()
        for group in entry.groups():
            for slot in group.slots:
                self._maintain_slot(entry, group, slot, now)
            if not group.alive():
                self._fail_queued(entry, group.queue.drain(), crashed=True)
        while True:
            with entry.swap_lock:
                if not entry.retired:
                    break
                group = entry.retired.pop()
            self._fail_queued(entry, group.close(timeout=5.0), crashed=True)
        if entry.sessions:
            self._evict_idle_sessions(entry, now)

    def _maintain_slot(self, entry: _ModelEntry, group: _ReplicaGroup,
                       slot: _ReplicaSlot, now: float) -> None:
        if slot.replica.alive:
            slot.restart_at = None
            if slot.healthy_since is None:
                slot.healthy_since = now
            elif (slot.restarts
                  and now - slot.healthy_since >= self.restart_reset_s):
                # Sustained health earns the backoff counter back: the next
                # crash restarts promptly instead of inheriting the stale
                # exponential penalty (or a permanent max_restarts ban).
                slot.restarts = 0
            return
        slot.healthy_since = None
        if slot.restarts >= self.max_restarts:
            return
        if slot.restart_at is None:
            backoff = min(self.restart_backoff_s * (2 ** slot.restarts),
                          self.restart_backoff_cap_s)
            slot.restart_at = now + backoff
            return
        if now < slot.restart_at:
            return
        old = slot.replica
        try:
            replacement = group.factory(slot.index, slot.generation + 1)
        except Exception:  # noqa: BLE001 - rebuild failed; the next tick
            slot.restarts += 1  # schedules a longer backoff
            slot.restart_at = None
            return
        replacement.start(group.loop)
        slot.replica = replacement
        slot.generation += 1
        slot.restarts += 1
        slot.restart_at = None
        entry.metrics["restarts"].inc()
        old.close(timeout=0.5)

    def _evict_idle_sessions(self, entry: _ModelEntry, now: float) -> None:
        with entry.session_lock:
            idle = [session for session in entry.sessions.values()
                    if now - session.last_used > self.session_idle_timeout_s]
        for session in idle:
            session.close(reason="idle")

    # -- introspection ------------------------------------------------------------

    def _entry(self, name: str) -> _ModelEntry:
        with self._lock:
            entry = self._models.get(name)
        if entry is None:
            raise KeyError(f"model {name!r} is not being served "
                           f"(registered: {sorted(self._models)})")
        return entry

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def stats(self, name: str) -> ServerStats:
        """The :class:`ServerStats` collector of one served model."""
        return self._entry(name).stats

    def cache(self, name: str) -> Optional[ResponseCache]:
        """The response cache of one served model (``None`` when disabled)."""
        return self._entry(name).cache

    def stats_table(self) -> Dict[str, Dict[str, float]]:
        """``{model_name: headline-stats}`` across every served model."""
        with self._lock:
            entries = list(self._models.values())
        return {entry.name: entry.stats.as_table() for entry in entries}

    def replica_status(self, name: str) -> List[dict]:
        """Per-slot health rows (for dashboards and the smoke scripts)."""
        entry = self._entry(name)
        return [
            {
                "slot": slot.index,
                "name": slot.replica.name,
                "alive": slot.replica.alive,
                "outstanding": slot.replica.outstanding,
                "utilization": slot.replica.utilization(),
                "restarts": slot.restarts,
                "breaker": slot.replica.breaker.state,
            }
            for slot in entry.group.slots
        ]

    def health_report(self, name: str) -> dict:
        """Readiness probe: is at least one replica alive with a non-open breaker?

        ``ready`` is the bit a load balancer or orchestration health check
        would consume; ``replicas`` carries the per-slot detail (liveness,
        breaker snapshot, restart budget) for debugging a not-ready fleet.
        """
        entry = self._entry(name)
        replicas = []
        ready = False
        for slot in entry.group.slots:
            breaker = slot.replica.breaker
            alive = slot.replica.alive
            routable = alive and breaker.state != OPEN
            ready = ready or routable
            replicas.append({
                "slot": slot.index,
                "name": slot.replica.name,
                "alive": alive,
                "routable": routable,
                "restarts": slot.restarts,
                "breaker": breaker.snapshot(),
            })
        return {
            "model": name,
            "ready": ready,
            "queue_depth": entry.group.queue.depth,
            "replicas": replicas,
        }

    def queue_depth(self, name: str) -> int:
        return self._entry(name).group.queue.depth

    # -- lifecycle ----------------------------------------------------------------

    def unregister(self, name: str, timeout: float = 10.0) -> None:
        """Tear one model down: supervisor, sessions, every replica group."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise KeyError(f"unknown model {name!r}")
        self._teardown(entry, timeout)

    def _teardown(self, entry: _ModelEntry, timeout: float) -> None:
        entry.stopped.set()
        if entry.supervisor is not None:
            entry.supervisor.join(timeout=timeout)
        with entry.session_lock:
            sessions = list(entry.sessions.values())
        for session in sessions:
            session.close(reason="server shutdown")
        with entry.swap_lock:
            groups = entry.groups() + entry.retired
            entry.canary = entry.shadow = None
            entry.retired = []
        # Queued requests fail typed at once; the workers finish the batches
        # they hold and exit on the closed, empty queues.
        for group in groups:
            group.queue.close()
            self._fail_queued(entry, group.queue.drain(), crashed=False)
        for group in groups:
            self._fail_queued(entry, group.close(timeout=timeout), crashed=False)
        entry.stats.deregister_metrics()
        if entry.cache is not None:
            entry.cache.deregister_metrics()
        for instrument in entry.metrics.values():
            if self._metrics.get(instrument.name, instrument.labels) is instrument:
                self._metrics.unregister(instrument.name, instrument.labels)

    def close(self, timeout: float = 10.0) -> None:
        """Tear the whole fleet down (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            entries = list(self._models.values())
            self._models.clear()
        for entry in entries:
            self._teardown(entry, timeout)

    def __enter__(self) -> "FleetServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"FleetServer(models={self.models()}, "
                f"replicas={self.default_replicas})")
