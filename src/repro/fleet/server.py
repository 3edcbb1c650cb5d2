"""The fleet router: replicas, admission, dispatch, rollout, sessions.

:class:`FleetServer` is the multi-replica counterpart of
:class:`repro.serve.server.InferenceServer`.  Where the single server owns
one engine behind one batcher, the fleet owns, per registered model:

* a **replica group** — N identical in-process engine snapshots
  (:mod:`repro.fleet.replica`), each behind its own micro-batcher and
  circuit breaker, supervised by a restart policy with capped exponential
  backoff;
* an **admission queue** — bounded and priority-ordered
  (:mod:`repro.fleet.admission`); over-capacity bursts shed with typed
  :class:`~repro.fleet.errors.Overloaded` instead of queueing unboundedly;
* a **dispatcher thread** — pops admitted requests, drops expired ones
  (:class:`~repro.fleet.errors.DeadlineExceeded`), picks the
  least-outstanding alive replica (queue depth breaks ties) and hands the
  sample to that replica's batcher.  A request whose replica crashes
  mid-flight is re-routed once to a healthy sibling before any error
  reaches the client;
* optional **rollout state** — a canary split or a shadow mirror
  (:mod:`repro.fleet.rollout`) evaluated continuously under live traffic,
  with promote/rollback applied atomically by pointer swap (retired
  replica groups are torn down by the dispatcher, never by a completion
  callback running on the retired group's own worker thread).

Observability: every request runs under a ``serve.request`` root span with
``fleet.route`` / ``fleet.canary`` children and the replica-level
``replica.request`` span nested below, so the flight recorder's slow-trace
ranking covers fleet requests exactly like single-server ones.  Queue
depth, per-replica outstanding counts and utilization, shed counts by
reason, restarts and canary decisions all export through the
:mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from typing import Dict, List, Optional

import numpy as np

from repro.fleet.admission import AdmissionQueue, FleetRequest
from repro.fleet.errors import DeadlineExceeded, Overloaded, ReplicaCrashed
from repro.fleet.replica import Replica
from repro.fleet.rollout import CanaryRollout, ShadowRollout
from repro.fleet.sessions import StreamingSession
from repro.obs.metrics import default_registry
from repro.obs.trace import get_tracer
from repro.resilience.breaker import OPEN, CircuitBreaker
from repro.serve.batcher import BatcherClosed
from repro.serve.engine import InferenceEngine
from repro.serve.stats import ServerStats

__all__ = ["FleetServer"]

#: Shed reasons exported as ``repro_fleet_shed_total{reason=...}``.
_SHED_REASONS = ("overloaded", "deadline", "crashed")

#: Dispatcher poll interval: the longest an idle dispatcher blocks on the
#: admission queue before it runs restart supervision again.
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
    """N identical replicas of one model version plus their build recipe."""

    def __init__(self, version, factory, count: int):
        self.version = version
        self.factory = factory  # (slot_index, generation) -> Replica
        self.slots = [_ReplicaSlot(i, factory(i, 0)) for i in range(count)]

    def alive(self) -> List[Replica]:
        return [slot.replica for slot in self.slots if slot.replica.alive]

    def pick(self) -> Optional[Replica]:
        """Least outstanding requests; queue depth breaks ties."""
        alive = self.alive()
        if not alive:
            return None
        return min(alive, key=lambda r: (r.outstanding, r.queue_depth))

    def ranked(self) -> List[Replica]:
        return sorted(self.alive(),
                      key=lambda r: (r.outstanding, r.queue_depth))

    def close(self, timeout: float = 10.0) -> None:
        for slot in self.slots:
            slot.replica.close(timeout=timeout)


class _ModelEntry:
    """Everything the fleet holds for one registered model name."""

    def __init__(self, name: str, group: _ReplicaGroup, queue: AdmissionQueue,
                 stats: ServerStats):
        self.name = name
        self.group = group
        self.queue = queue
        self.stats = stats
        self.stopping = False
        self.dispatcher: Optional[threading.Thread] = None
        #: Serialises group-pointer swaps (canary promote/rollback, deploys).
        self.swap_lock = threading.Lock()
        self.canary: Optional[dict] = None  # {"rollout": CanaryRollout, "group": _ReplicaGroup}
        self.shadow: Optional[dict] = None  # {"rollout": ShadowRollout, "group": _ReplicaGroup}
        #: Groups replaced by a swap/rollback, closed by the dispatcher —
        #: never by a completion callback running on the group's own worker.
        self.retired: List[_ReplicaGroup] = []
        self.sessions: Dict[str, StreamingSession] = {}
        self.session_lock = threading.Lock()
        self.metrics: dict = {}


class FleetServer:
    """Serve registered models from supervised multi-replica groups.

    Parameters
    ----------
    replicas:
        Default replica count per model (override per ``register`` call).
        Replicas are in-process engines that overlap wherever NumPy
        releases the GIL.
    max_batch_size / max_wait_ms:
        Per-replica micro-batching policy.
    queue_capacity:
        Admission bound per model; requests beyond it shed with
        :class:`Overloaded`.
    max_inflight_per_replica:
        Dispatch throttle: the dispatcher stops forwarding admitted
        requests while every alive replica already holds this many
        in-flight (default ``2 * max_batch_size`` — one batch computing,
        one ready behind it).  Without the throttle the replicas' unbounded
        batcher queues would absorb any burst and the admission bound
        could never engage; with it, over-capacity bursts shed at the
        front door and the tail latency of *admitted* requests stays
        bounded by ``(queue_capacity + inflight) x service time``.
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
        (:class:`~repro.resilience.breaker.CircuitBreaker`): each replica's
        recent outcomes feed a sliding window; at ``breaker_error_threshold``
        error fraction (with at least ``breaker_min_requests`` samples) the
        breaker opens and the router skips the replica for ``breaker_open_s``
        seconds, then half-opens with bounded probes.  When *every* breaker
        is open the router falls back to any alive replica — availability
        beats purity.
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
        max_inflight_per_replica: Optional[int] = None,
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
        self.default_replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.queue_capacity = int(queue_capacity)
        self.max_inflight = (int(max_inflight_per_replica)
                             if max_inflight_per_replica is not None
                             else 2 * self.max_batch_size)
        if self.max_inflight < 1:
            raise ValueError("max_inflight_per_replica must be >= 1, "
                             f"got {self.max_inflight}")
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
        self.registry = default_registry()
        self._models: Dict[str, _ModelEntry] = {}
        self._lock = threading.Lock()
        self._closed = False

    # -- registration -------------------------------------------------------------

    def _make_factory(self, name: str, model, version, engine_kwargs: dict):
        """Build-recipe closure: (slot, generation) -> fresh replica."""
        def factory(slot: int, generation: int) -> Replica:
            # A fresh incarnation starts with a clean breaker: its
            # predecessor's error history belongs to the dead replica.
            return Replica(
                f"{name}/v{version}/r{slot}.{generation}",
                InferenceEngine(model, **engine_kwargs),
                CircuitBreaker(**self._breaker_kwargs),
                max_batch_size=self.max_batch_size,
                max_wait_ms=self.max_wait_ms, model_name=name)

        return factory

    def _build_group(self, name: str, model, version, count: int,
                     warmup_sample, engine_kwargs: dict) -> _ReplicaGroup:
        factory = self._make_factory(name, model, version, engine_kwargs)
        group = _ReplicaGroup(version, factory, count)
        if warmup_sample is not None:
            # Warm through the real submit path so first client requests
            # never pay first-call costs on any replica.
            futures = [slot.replica.submit(np.asarray(warmup_sample,
                                                      dtype=np.float32))
                       for slot in group.slots]
            for future in futures:
                future.result(timeout=120.0)
        return group

    def register(
        self,
        name: str,
        model,
        version=1,
        replicas: Optional[int] = None,
        warmup_sample: Optional[np.ndarray] = None,
        **engine_kwargs,
    ) -> None:
        """Stand up a replica group for ``model`` and start serving it.

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
                entry = _ModelEntry(name, group,
                                    AdmissionQueue(self.queue_capacity),
                                    ServerStats(name=name))
                self._register_metrics(entry, count)
                entry.dispatcher = threading.Thread(
                    target=self._dispatch_loop, args=(entry,),
                    name=f"fleet-dispatch-{name}", daemon=True)
                self._models[name] = entry
                entry.dispatcher.start()
        except BaseException:
            group.close()
            raise

    def _check_new_name(self, name: str) -> None:
        """Raise unless ``name`` can be registered now (caller holds the lock)."""
        if self._closed:
            raise RuntimeError("FleetServer is closed")
        if name in self._models:
            raise ValueError(f"model {name!r} already registered; "
                             "use deploy() to roll out a new version")

    def _register_metrics(self, entry: _ModelEntry, count: int) -> None:
        name = entry.name
        labels = {"model": name}
        metrics = entry.metrics
        metrics["queue_depth"] = self.registry.gauge(
            "repro_fleet_queue_depth", "Admission-queue depth",
            labels=labels, fn=lambda: entry.queue.depth)
        for reason in _SHED_REASONS:
            metrics[f"shed_{reason}"] = self.registry.counter(
                "repro_fleet_shed_total", "Requests shed, by reason",
                labels={"model": name, "reason": reason})
        metrics["restarts"] = self.registry.counter(
            "repro_fleet_replica_restarts_total", "Replica restarts",
            labels=labels)
        metrics["promotions"] = self.registry.counter(
            "repro_fleet_canary_promotions_total", "Canary promotions",
            labels=labels)
        metrics["rollbacks"] = self.registry.counter(
            "repro_fleet_canary_rollbacks_total", "Canary rollbacks",
            labels=labels)
        for outcome in ("ok", "error"):
            metrics[f"requests_{outcome}"] = self.registry.counter(
                "repro_fleet_requests_total", "Fleet requests, by outcome",
                labels={"model": name, "outcome": outcome})

        def slot_reader(index: int, attribute: str):
            def read() -> float:
                # The pull closure follows pointer swaps: it always reads the
                # entry's *current* primary group.
                slots = entry.group.slots
                if index >= len(slots):
                    return 0.0
                replica = slots[index].replica
                if attribute == "outstanding":
                    return float(replica.outstanding)
                if attribute == "breaker":
                    return replica.breaker.state_code()
                return replica.utilization()
            return read

        for index in range(count):
            rlabels = {"model": name, "replica": str(index)}
            metrics[f"outstanding_{index}"] = self.registry.gauge(
                "repro_fleet_replica_outstanding",
                "Requests in flight per replica", labels=rlabels,
                fn=slot_reader(index, "outstanding"))
            metrics[f"utilization_{index}"] = self.registry.gauge(
                "repro_fleet_replica_utilization",
                "Busy fraction per replica", labels=rlabels,
                fn=slot_reader(index, "utilization"))
            metrics[f"breaker_{index}"] = self.registry.gauge(
                "repro_fleet_breaker_state",
                "Circuit-breaker state per replica "
                "(0=closed, 1=open, 2=half-open)", labels=rlabels,
                fn=slot_reader(index, "breaker"))

    # -- client surface -----------------------------------------------------------

    def submit(self, name: str, sample: np.ndarray, priority: int = 0,
               deadline_s: Optional[float] = None) -> Future:
        """Admit one ``(C, H, W)`` sample; returns a future of its logits row.

        Raises :class:`Overloaded` synchronously when the model's admission
        queue is full (``retry_after_s`` carries the backpressure hint).
        ``deadline_s`` is a relative deadline; a request that cannot be
        dispatched in time resolves with :class:`DeadlineExceeded`.
        ``priority`` orders the admission queue (higher first).
        """
        entry = self._entry(name)
        sample = np.asarray(sample, dtype=np.float32)
        if sample.ndim != 3:
            raise ValueError(f"submit expects a single (C, H, W) sample, "
                             f"got {sample.shape}")
        tracer = get_tracer()
        root = route = None
        if tracer.enabled:
            root = tracer.start_span("serve.request",
                                     attrs={"model": name, "fleet": True})
            route = tracer.start_span("fleet.route", parent=root)
        deadline = (time.monotonic() + float(deadline_s)
                    if deadline_s is not None else None)
        request = FleetRequest(sample, Future(), priority=priority,
                               deadline=deadline, root_span=root,
                               route_span=route)
        if request.expired():
            self._fail_request(entry, request,
                               DeadlineExceeded("deadline expired at admission"),
                               reason="deadline")
            return request.future
        try:
            entry.queue.put(request)
        except Overloaded:
            entry.metrics["shed_overloaded"].inc()
            entry.metrics["requests_error"].inc()
            self._finish_spans(request, status="error")
            raise
        return request.future

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

        ``mode="replace"`` swaps the group atomically (the single-server
        hot-swap, now fleet-wide: the new group is fully built and warmed
        before the pointer moves).  ``mode="canary"`` routes ``fraction`` of
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
            if not entry.stopping:
                if mode == "replace":
                    retired = entry.group
                    entry.group = group
                    entry.retired.append(retired)
                    return None
                if entry.canary is not None or entry.shadow is not None:
                    entry.retired.append(group)
                    raise RuntimeError(
                        f"model {name!r} already has an active rollout; finish it first")
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
            retired = entry.group
            entry.group = shadow["group"]
            entry.retired.append(retired)
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
            # Teardown is deferred to the dispatcher: this method runs on a
            # completion callback, i.e. on some replica's batcher worker —
            # closing a group from its own worker thread would self-join.
            entry.retired.append(retired)

    # -- dispatch -----------------------------------------------------------------

    def _has_capacity(self, entry: _ModelEntry) -> bool:
        """Whether some alive replica can accept more in-flight work.

        With no alive replica the answer is ``True`` on purpose: the
        dispatcher must keep popping so requests fail fast with a typed
        :class:`ReplicaCrashed` instead of rotting in the queue.
        """
        alive = entry.group.alive()
        if not alive:
            return True
        return any(replica.outstanding < self.max_inflight
                   for replica in alive)

    def _dispatch_loop(self, entry: _ModelEntry) -> None:
        while not entry.stopping:
            self._maintain(entry)
            if not self._has_capacity(entry):
                # Every replica is saturated: leave admitted requests in the
                # bounded queue (so new arrivals shed at the front door)
                # until a batch completes.
                time.sleep(min(_TICK_S, 0.005))
                continue
            request = entry.queue.get(timeout=_TICK_S)
            if request is not None:
                self._dispatch(entry, request)
        # Shutdown: resolve everything still queued with a typed error.
        for request in entry.queue.drain():
            self._fail_request(entry, request,
                               BatcherClosed("fleet shut down before this "
                                             "request was served"),
                               reason=None)

    @staticmethod
    def _try_start(request: FleetRequest) -> bool:
        """Move the client future to running; ``False`` if the client cancelled.

        A crash-rerouted request is already running (its first dispatch
        started it), so the transition is attempted only once.
        """
        if request.retries:
            return True
        try:
            return request.future.set_running_or_notify_cancel()
        except RuntimeError:  # pragma: no cover - already running/resolved
            return True

    def _dispatch(self, entry: _ModelEntry, request: FleetRequest) -> None:
        if not self._try_start(request):
            self._finish_spans(request, status="cancelled")
            return
        now = time.monotonic()
        if request.expired(now):
            self._fail_request(entry, request,
                               DeadlineExceeded(
                                   "deadline expired after "
                                   f"{now - request.enqueued:.3f}s in queue"),
                               reason="deadline", running=True)
            return
        tracer = get_tracer()
        # Arm choice: deterministic canary split while a rollout is measuring.
        group = entry.group
        request.arm = "baseline"
        canary = entry.canary
        if canary is not None and canary["rollout"].decision is None:
            if canary["rollout"].choose_arm() == "canary":
                if canary["group"].alive():
                    group = canary["group"]
                    request.arm = "canary"
                else:
                    # A fully-dead candidate is an arm outcome, not a client
                    # error: record it (possibly tripping rollback) and fall
                    # back to the baseline.
                    decision = canary["rollout"].record("canary", None, True)
                    if decision is not None:
                        self._apply_canary(entry, decision)
        dispatch_span = None
        if request.arm == "canary" and request.root_span is not None:
            dispatch_span = tracer.start_span(
                "fleet.canary", parent=request.route_span,
                attrs={"version": str(canary["rollout"].version)})
        replica_future = None
        replica = None
        # Two passes over the load-ranked candidates: breaker-allowed
        # replicas first, then — availability beats purity — the replicas
        # whose breakers are open, so an all-tripped group still serves.
        # ``allow()`` is consulted lazily, right before a submit, because a
        # half-open breaker counts each allow() as a probe in flight.
        skipped: List[Replica] = []
        ranked = group.ranked()
        for candidates in (ranked, skipped):
            for candidate in candidates:
                if candidates is ranked and not candidate.breaker.allow():
                    skipped.append(candidate)
                    continue
                try:
                    active = dispatch_span or request.route_span
                    with tracer.activate(active):
                        replica_future = candidate.submit(request.sample)
                    replica = candidate
                    break
                except ReplicaCrashed:
                    candidate.breaker.record_failure()
                    continue
            if replica_future is not None:
                break
        if dispatch_span is not None:
            tracer.finish_span(dispatch_span)
        if replica_future is None:
            if request.arm == "canary":
                # Candidate group died between the alive() check and submit.
                decision = canary["rollout"].record("canary", None, True)
                if decision is not None:
                    self._apply_canary(entry, decision)
            self._fail_request(entry, request,
                               ReplicaCrashed("no alive replica available"),
                               reason="crashed", running=True)
            return
        if request.route_span is not None:
            request.route_span.set_attrs(replica=replica.name, arm=request.arm)
        dispatched = time.monotonic()
        if entry.shadow is not None:
            self._mirror(entry, request, replica_future)
        replica_future.add_done_callback(
            lambda rf: self._complete(entry, request, replica, rf, dispatched))

    def _mirror(self, entry: _ModelEntry, request: FleetRequest,
                primary_future: Future) -> None:
        """Submit the shadow copy and compare logits once both arms answer."""
        shadow = entry.shadow
        replica = shadow["group"].pick()
        rollout: ShadowRollout = shadow["rollout"]
        if replica is None:
            rollout.record(None, None, shadow_error=True)
            return
        try:
            shadow_future = replica.submit(request.sample)
        except ReplicaCrashed:
            rollout.record(None, None, shadow_error=True)
            return
        remaining = [2]
        lock = threading.Lock()

        def arm_done(_f) -> None:
            with lock:
                remaining[0] -= 1
                if remaining[0] > 0:
                    return
            primary_error = (primary_future.cancelled()
                             or primary_future.exception() is not None)
            shadow_error = (shadow_future.cancelled()
                            or shadow_future.exception() is not None)
            if primary_error:
                return  # nothing trustworthy to compare against
            if shadow_error:
                rollout.record(primary_future.result(), None, shadow_error=True)
            else:
                rollout.record(primary_future.result(), shadow_future.result())

        primary_future.add_done_callback(arm_done)
        shadow_future.add_done_callback(arm_done)

    def _complete(self, entry: _ModelEntry, request: FleetRequest,
                  replica: Replica, replica_future: Future,
                  dispatched: float) -> None:
        """Completion hook: propagate, account, reroute crashes once."""
        now = time.monotonic()
        if replica_future.cancelled():
            error: Optional[BaseException] = ReplicaCrashed(
                "replica shut down mid-request", replica=replica.name)
        else:
            error = replica_future.exception()
        if error is None:
            replica.breaker.record_success()
        else:
            replica.breaker.record_failure()
        crash = isinstance(error, (ReplicaCrashed, BatcherClosed))
        if crash and request.retries == 0:
            request.retries = 1
            if request.arm == "canary" and entry.canary is not None:
                decision = entry.canary["rollout"].record("canary", None, True)
                if decision is not None:
                    self._apply_canary(entry, decision)
            if entry.queue.requeue(request):
                if request.root_span is not None:
                    request.root_span.add_event("fleet.reroute",
                                                from_replica=replica.name)
                return
            error = ReplicaCrashed("fleet shut down while rerouting",
                                   replica=replica.name)
        if error is not None:
            self._record_arm(entry, request, None, error=True)
            self._fail_request(entry, request, error,
                               reason="crashed" if crash else None,
                               running=True)
            return
        latency = now - request.enqueued
        entry.stats.record_request(latency)
        entry.queue.note_served(now - dispatched)
        entry.metrics["requests_ok"].inc()
        self._record_arm(entry, request, latency, error=False)
        try:
            request.future.set_result(replica_future.result())
        except InvalidStateError:  # pragma: no cover - client raced a cancel
            pass
        if request.root_span is not None:
            request.root_span.set_attrs(latency_s=latency, arm=request.arm)
        self._finish_spans(request, status="ok")

    def _record_arm(self, entry: _ModelEntry, request: FleetRequest,
                    latency: Optional[float], error: bool) -> None:
        canary = entry.canary
        if canary is None:
            return
        decision = canary["rollout"].record(request.arm, latency, error)
        if decision is not None:
            self._apply_canary(entry, decision)

    def _fail_request(self, entry: _ModelEntry, request: FleetRequest,
                      error: BaseException, reason: Optional[str],
                      running: bool = False) -> None:
        if not running and not self._try_start(request):
            self._finish_spans(request, status="cancelled")
            return
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

    def _finish_spans(self, request: FleetRequest, status: str) -> None:
        tracer = get_tracer()
        if request.route_span is not None and request.route_span.is_recording:
            tracer.finish_span(request.route_span)
        if request.root_span is not None:
            request.root_span.status = status
            tracer.finish_span(request.root_span)

    # -- maintenance --------------------------------------------------------------

    def _maintain(self, entry: _ModelEntry) -> None:
        now = time.monotonic()
        groups = [entry.group]
        if entry.canary is not None:
            groups.append(entry.canary["group"])
        if entry.shadow is not None:
            groups.append(entry.shadow["group"])
        for group in groups:
            for slot in group.slots:
                self._maintain_slot(entry, group, slot, now)
        while True:
            with entry.swap_lock:
                if not entry.retired:
                    break
                group = entry.retired.pop()
            group.close(timeout=5.0)
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
        except Exception:  # noqa: BLE001 - rebuild failed; back off further
            slot.restarts += 1
            backoff = min(self.restart_backoff_s * (2 ** slot.restarts),
                          self.restart_backoff_cap_s)
            slot.restart_at = now + backoff
            return
        slot.replica = replacement
        slot.generation += 1
        slot.restarts += 1
        slot.restart_at = None
        entry.metrics["restarts"].inc()
        try:
            old.close(timeout=0.5)
        except Exception:  # noqa: BLE001 - the old replica is already dead
            pass

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
            raise KeyError(f"unknown model {name!r} "
                           f"(registered: {sorted(self._models)})")
        return entry

    def models(self) -> List[str]:
        with self._lock:
            return sorted(self._models)

    def stats(self, name: str) -> ServerStats:
        return self._entry(name).stats

    def replica_status(self, name: str) -> List[dict]:
        """Per-slot health rows (for dashboards and the smoke scripts)."""
        entry = self._entry(name)
        return [
            {
                "slot": slot.index,
                "name": slot.replica.name,
                "alive": slot.replica.alive,
                "outstanding": slot.replica.outstanding,
                "queue_depth": slot.replica.queue_depth,
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
            "queue_depth": entry.queue.depth,
            "replicas": replicas,
        }

    def queue_depth(self, name: str) -> int:
        return self._entry(name).queue.depth

    # -- lifecycle ----------------------------------------------------------------

    def unregister(self, name: str, timeout: float = 10.0) -> None:
        """Tear one model down: dispatcher, sessions, every replica group."""
        with self._lock:
            entry = self._models.pop(name, None)
        if entry is None:
            raise KeyError(f"unknown model {name!r}")
        self._teardown(entry, timeout)

    def _teardown(self, entry: _ModelEntry, timeout: float) -> None:
        entry.stopping = True
        entry.queue.close()
        if entry.dispatcher is not None:
            entry.dispatcher.join(timeout=timeout)
        with entry.session_lock:
            sessions = list(entry.sessions.values())
        for session in sessions:
            session.close(reason="server shutdown")
        with entry.swap_lock:
            groups = [entry.group]
            if entry.canary is not None:
                groups.append(entry.canary["group"])
                entry.canary = None
            if entry.shadow is not None:
                groups.append(entry.shadow["group"])
                entry.shadow = None
            groups.extend(entry.retired)
            entry.retired = []
        for group in groups:
            group.close(timeout=timeout)
        for request in entry.queue.drain():
            self._fail_request(entry, request,
                               BatcherClosed("fleet shut down before this "
                                             "request was served"),
                               reason=None)
        entry.stats.deregister_metrics()
        for instrument in entry.metrics.values():
            if self.registry.get(instrument.name, instrument.labels) is instrument:
                self.registry.unregister(instrument.name, instrument.labels)

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
