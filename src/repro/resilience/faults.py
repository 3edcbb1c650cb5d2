"""Deterministic, seed-driven fault injection.

The framework mirrors the :mod:`repro.obs` tracing design: when no plan is
installed the whole layer costs one module-global read per *site* visit
(``get_injector()`` returning ``None``), so production code keeps its fault
sites compiled in permanently — exactly like tracer spans — and chaos tests
flip them on by installing a :class:`FaultPlan`.

Determinism is the point.  Every :class:`FaultSpec` owns an independent RNG
stream derived from ``SeedSequence(plan.seed, spawn_key=(spec_index,))`` and
its own visit counter, so the *n*-th matching visit of a site fires (or
not) identically on every replay of the same plan — across processes too:
pool workers re-install a fresh injector from the pickled plan, so their
counters start from zero deterministically rather than inheriting whatever
state the coordinator's injector had accumulated before the fork.

Registered sites (the strings passed to :meth:`FaultInjector.maybe`):

===================  ==========================================  =======================
site                 where                                        action params
===================  ==========================================  =======================
``worker.crash``     ``parallel/pool.py`` worker loop             ``rank``
``worker.hang``      ``parallel/pool.py`` worker loop             ``rank``, ``seconds``
``replica.crash``    ``fleet/replica.py`` fused forward           ``replica`` (substring)
``replica.slow``     ``fleet/replica.py`` fused forward           ``replica``, ``seconds``
``runtime.nan``      ``runtime/planner.py`` guarded replay        ``value`` (nan/inf)
``checkpoint.corrupt``  ``training/checkpoint.py`` save path      ``mode`` (truncate/bitflip/partial)
``data.prefetch``    ``data/datasets.py`` prefetch worker         —
===================  ==========================================  =======================

Every fire is observable: it increments the
``repro_faults_injected_total{site=...}`` counter, adds a ``fault.injected``
event to the current tracing span (when tracing is enabled), and is appended
to the injector's :meth:`~FaultInjector.fired` log.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs.trace import event as _span_event

__all__ = ["FaultSpec", "FaultPlan", "FaultInjector", "install", "uninstall",
           "get_injector", "active_plan", "inject"]

#: Keys a call site passes as *context* (matched against the spec) rather
#: than read back as action parameters.
_CONTEXT_KEYS = frozenset({"rank", "replica", "model", "epoch", "step"})


class FaultSpec:
    """One named fault: where it strikes, when, and what it does.

    Parameters
    ----------
    site:
        Registered site name (see the module table).
    at:
        Zero-based *matching-visit* indices at which to fire (int or
        sequence).  ``at=2`` fires on the third visit of the site whose
        context matches; ``at=(0, 3)`` fires twice.  Mutually exclusive
        with ``probability``.
    probability:
        Bernoulli fire probability per matching visit, drawn from the
        spec's own seeded stream.  Bounded by ``max_fires``.
    max_fires:
        Upper bound on total fires.  Defaults to ``len(at)`` when ``at``
        is given, else 1; pass ``None`` for unlimited (probability mode).
    params:
        Mixed match-context and action parameters.  Keys in
        ``{rank, replica, model, epoch, step}`` constrain *matching*
        (ints by equality, strings by substring); everything else
        (``seconds``, ``mode``, ``value``, ...) is handed back to the
        call site when the fault fires.
    """

    def __init__(self, site: str, at=None, probability: Optional[float] = None,
                 max_fires: Optional[int] = -1, **params):
        if at is not None and probability is not None:
            raise ValueError("FaultSpec takes at= or probability=, not both")
        self.site = str(site)
        self.at: Optional[Tuple[int, ...]] = None
        if at is not None:
            self.at = tuple(int(v) for v in (at if isinstance(at, (tuple, list, range)) else (at,)))
        self.probability = None if probability is None else float(probability)
        if max_fires == -1:  # sentinel: derive the default
            max_fires = len(self.at) if self.at is not None else 1
        self.max_fires = None if max_fires is None else int(max_fires)
        self.match = {k: v for k, v in params.items() if k in _CONTEXT_KEYS}
        self.action = {k: v for k, v in params.items() if k not in _CONTEXT_KEYS}

    def matches(self, context: Dict[str, object]) -> bool:
        for key, want in self.match.items():
            if key not in context:
                return False
            have = context[key]
            if isinstance(want, str):
                if want not in str(have):
                    return False
            elif have != want:
                return False
        return True

    def describe(self) -> dict:
        return {
            "site": self.site,
            "at": self.at,
            "probability": self.probability,
            "max_fires": self.max_fires,
            "match": dict(self.match),
            "action": dict(self.action),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSpec({self.describe()!r})"


class FaultPlan:
    """A seeded, immutable schedule of faults.

    The plan is plain data (picklable), so the coordinator ships it to pool
    workers inside the worker spec and each process rebuilds an identical
    :class:`FaultInjector` from it.
    """

    def __init__(self, seed: int = 0, faults: Sequence[FaultSpec] = ()):
        self.seed = int(seed)
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)

    def sites(self) -> Tuple[str, ...]:
        return tuple(sorted({spec.site for spec in self.faults}))

    def describe(self) -> dict:
        return {"seed": self.seed,
                "faults": [spec.describe() for spec in self.faults]}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan(seed={self.seed}, faults={len(self.faults)})"


class _SpecState:
    __slots__ = ("spec", "visits", "fires", "rng")

    def __init__(self, spec: FaultSpec, plan_seed: int, index: int):
        self.spec = spec
        self.visits = 0
        self.fires = 0
        self.rng = np.random.default_rng(
            np.random.SeedSequence(plan_seed, spawn_key=(index,)))


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at registered sites, deterministically."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._by_site: Dict[str, List[_SpecState]] = {}
        for index, spec in enumerate(plan.faults):
            self._by_site.setdefault(spec.site, []).append(
                _SpecState(spec, plan.seed, index))
        self._fired: List[dict] = []
        self._counters: Dict[str, object] = {}

    # -- the hot call -------------------------------------------------------------

    def maybe(self, site: str, **context) -> Optional[dict]:
        """Return the action params if a fault fires at ``site``, else ``None``.

        A site with no spec costs one dict lookup.  Visit counters advance
        only on *matching* visits, so one plan drives the same schedule no
        matter how many unrelated models/workers share the process.
        """
        states = self._by_site.get(site)
        if states is None:
            return None
        with self._lock:
            for state in states:
                spec = state.spec
                if not spec.matches(context):
                    continue
                visit = state.visits
                state.visits += 1
                if spec.max_fires is not None and state.fires >= spec.max_fires:
                    continue
                if spec.at is not None:
                    fire = visit in spec.at
                elif spec.probability is not None:
                    fire = bool(state.rng.random() < spec.probability)
                else:
                    fire = True
                if not fire:
                    continue
                state.fires += 1
                record = {"site": site, "visit": visit,
                          "context": dict(context),
                          "action": dict(spec.action)}
                self._fired.append(record)
                self._observe(site, context)
                return dict(spec.action)
        return None

    # -- observability ------------------------------------------------------------

    def _observe(self, site: str, context: Dict[str, object]) -> None:
        counter = self._counters.get(site)
        if counter is None:
            counter = _metrics.counter(
                "repro_faults_injected_total",
                help="Faults fired by the active FaultPlan, by site.",
                labels={"site": site})
            self._counters[site] = counter
        counter.inc()
        _span_event("fault.injected", site=site,
                    **{k: v for k, v in context.items()
                       if isinstance(v, (str, int, float, bool))})

    def fired(self, site: Optional[str] = None) -> List[dict]:
        """The fire log (copies), optionally filtered by site."""
        with self._lock:
            log = list(self._fired)
        if site is not None:
            log = [entry for entry in log if entry["site"] == site]
        return log

    def fire_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for entry in self.fired():
            counts[entry["site"]] = counts.get(entry["site"], 0) + 1
        return counts


# -- process-global installation ------------------------------------------------

_ACTIVE: Optional[FaultInjector] = None


def install(plan: FaultPlan) -> FaultInjector:
    """Install ``plan`` process-wide and return its injector."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan)
    return _ACTIVE


def uninstall() -> None:
    """Remove the active plan; every site reverts to the no-op fast path."""
    global _ACTIVE
    _ACTIVE = None


def get_injector() -> Optional[FaultInjector]:
    """The active injector, or ``None`` — the one check every site pays."""
    return _ACTIVE


def active_plan() -> Optional[FaultPlan]:
    injector = _ACTIVE
    return None if injector is None else injector.plan


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Scoped installation for tests: install on entry, uninstall on exit."""
    injector = install(plan)
    try:
        yield injector
    finally:
        uninstall()
