"""Hierarchical tracing spans with context-var propagation.

The tracer answers the question the pull-only counters cannot: *where did
this specific request spend its time?*  Every instrumented site opens a
:class:`Span` (``with obs.span("train.step"): ...``); spans nest through a
:mod:`contextvars` variable, so a span opened inside another becomes its
child — including across the explicit hand-offs the serving stack performs
(a served request's span rides the admission queue of
:class:`~repro.fleet.server.FleetServer`, and the replica worker activates
the batch span on the other side).

Design constraints, in priority order:

1. **Disabled tracing is free.**  ``tracer.span(...)`` with ``enabled=False``
   returns a cached no-op context manager — one attribute read, no
   allocation per call beyond the (tiny) kwargs dict at the call site.  Hot
   loops that want even that gone guard on :attr:`Tracer.enabled`.
2. **Finished spans are immutable and delivered exactly once** to every
   exporter; root spans additionally reach the
   :class:`~repro.obs.flight.FlightRecorder`.
3. **Trees may share subtrees.**  One fused batch answers many requests;
   the batch span object is linked as a child of *every* request span, so
   each request owns a connected tree down to the per-kernel children while
   exporters still see the batch span once.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Span", "Tracer", "get_tracer", "span", "event", "current_span"]

# One process-wide clock anchor: wall time at import plus the perf_counter
# offset, so every span timestamp is monotonic *and* convertible to an epoch
# microsecond for Chrome trace_event exports.
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def _now_us(perf: Optional[float] = None) -> float:
    p = time.perf_counter() if perf is None else perf
    return (_ANCHOR_WALL + (p - _ANCHOR_PERF)) * 1e6


_IDS = itertools.count(1)
_CURRENT: "ContextVar[Optional[Span]]" = ContextVar("repro_obs_current_span",
                                                    default=None)


class Span:
    """One timed node of a trace tree.

    Spans are created through the :class:`Tracer` (``tracer.span`` /
    ``tracer.start_span``); after :meth:`Tracer.finish_span` they are
    treated as immutable.  ``duration_s`` is ``None`` while the span is
    still open.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start_us",
                 "start_perf", "duration_s", "attrs", "events", "children",
                 "thread_id", "status", "_parent", "_finished")

    def __init__(self, name: str, parent: Optional["Span"] = None,
                 attrs: Optional[dict] = None, start_perf: Optional[float] = None):
        self.name = name
        self.span_id = next(_IDS)
        self._parent = parent
        if parent is not None:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = self.span_id
            self.parent_id = None
        self.start_perf = time.perf_counter() if start_perf is None else start_perf
        self.start_us = _now_us(self.start_perf)
        self.duration_s: Optional[float] = None
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.events: List[Tuple[float, str, dict]] = []
        self.children: List["Span"] = []
        self.thread_id = threading.get_ident()
        self.status = "ok"
        self._finished = False

    # -- mutation (only before finish) --------------------------------------------

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def set_attrs(self, **attrs) -> None:
        self.attrs.update(attrs)

    def add_event(self, name: str, **attrs) -> None:
        """Record a point-in-time marker inside this span."""
        self.events.append((_now_us(), name, attrs))

    # compatibility with the no-op span's interface
    event = add_event

    @property
    def is_recording(self) -> bool:
        return not self._finished

    # -- reading ------------------------------------------------------------------

    @property
    def duration_us(self) -> float:
        return (self.duration_s or 0.0) * 1e6

    def find(self, name: str) -> Optional["Span"]:
        """Depth-first lookup of a descendant (or self) by span name."""
        if self.name == name:
            return self
        for child in self.children:
            found = child.find(name)
            if found is not None:
                return found
        return None

    def walk(self):
        """Yield self and every descendant (shared subtrees appear once per link)."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, with_children: bool = False) -> dict:
        entry = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_us": self.start_us,
            "duration_us": self.duration_us,
            "thread_id": self.thread_id,
            "status": self.status,
            "attrs": dict(self.attrs),
            "events": [{"ts_us": ts, "name": name, "attrs": attrs}
                       for ts, name, attrs in self.events],
        }
        if with_children:
            entry["children"] = [c.to_dict(with_children=True) for c in self.children]
        return entry

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dur = f"{self.duration_s * 1e3:.3f}ms" if self.duration_s is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {dur}, children={len(self.children)})"


class _NoopSpan:
    """Shared do-nothing stand-in returned while tracing is disabled."""

    __slots__ = ()
    is_recording = False
    name = ""
    children: Sequence = ()
    attrs: dict = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def set_attr(self, key, value) -> None:
        pass

    def set_attrs(self, **attrs) -> None:
        pass

    def add_event(self, name, **attrs) -> None:
        pass

    event = add_event


NOOP_SPAN = _NoopSpan()


class _ActiveSpan:
    """Context manager that opens a span and installs it as the current one."""

    __slots__ = ("_tracer", "_name", "_attrs", "_token", "span")

    def __init__(self, tracer: "Tracer", name: str, attrs: Optional[dict]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self.span: Optional[Span] = None

    def __enter__(self) -> Span:
        self.span = Span(self._name, parent=_CURRENT.get(), attrs=self._attrs)
        self._token = _CURRENT.set(self.span)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        _CURRENT.reset(self._token)
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault("error", repr(exc))
        self._tracer.finish_span(self.span)
        return False


class _Activation:
    """Re-install an existing (open) span as current — the cross-thread hop."""

    __slots__ = ("_span", "_token")

    def __init__(self, span: Span):
        self._span = span

    def __enter__(self) -> Span:
        self._token = _CURRENT.set(self._span)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        _CURRENT.reset(self._token)
        return False


class Tracer:
    """Process-wide span factory, sampler and delivery hub.

    Parameters
    ----------
    enabled:
        Master switch.  When off, every ``span()`` call returns the cached
        no-op context manager.
    kernel_sample_rate:
        Fraction of compiled-runtime replays that emit per-kernel child
        spans (``0.0`` = never, ``1.0`` = every replay).  Kernel attribution
        forces the profiled (serial) replay path, so steady-state tracing
        overhead is controlled by this knob.
    """

    def __init__(self, enabled: bool = False, kernel_sample_rate: float = 0.0):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._exporters: tuple = ()
        self.flight = None  # type: Optional[object]
        self._kernel_counter = 0
        self.set_kernel_sample_rate(kernel_sample_rate)

    # -- configuration ------------------------------------------------------------

    def set_kernel_sample_rate(self, rate: float) -> None:
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"kernel_sample_rate must be in [0, 1], got {rate}")
        self.kernel_sample_rate = rate
        self._kernel_interval = int(round(1.0 / rate)) if rate > 0 else 0

    def add_exporter(self, exporter) -> None:
        with self._lock:
            self._exporters = self._exporters + (exporter,)

    def set_exporters(self, exporters: Sequence) -> None:
        with self._lock:
            self._exporters = tuple(exporters)

    @property
    def exporters(self) -> tuple:
        return self._exporters

    # -- span creation ------------------------------------------------------------

    def span(self, name: str, **attrs):
        """``with tracer.span("train.step", epoch=3) as sp: ...``"""
        if not self.enabled:
            return NOOP_SPAN
        return _ActiveSpan(self, name, attrs or None)

    def start_span(self, name: str, parent: Optional[Span] = None,
                   attrs: Optional[dict] = None,
                   use_current_parent: bool = False) -> Optional[Span]:
        """Manually open a span (caller must :meth:`finish_span` it).

        Used where a span outlives the opening scope — e.g. a request span
        created at submit time and finished by a worker thread.  Returns
        ``None`` when tracing is disabled, so callers can thread the value
        through queues unconditionally.
        """
        if not self.enabled:
            return None
        if use_current_parent and parent is None:
            parent = _CURRENT.get()
        return Span(name, parent=parent, attrs=attrs)

    def activate(self, span: Optional[Span]):
        """Install an open span as the calling thread's current span."""
        if span is None:
            return NOOP_SPAN
        return _Activation(span)

    def finish_span(self, span: Optional[Span],
                    end_perf: Optional[float] = None) -> None:
        """Close a span: stamp the duration, attach to parent, deliver."""
        if span is None or span._finished:
            return
        end = time.perf_counter() if end_perf is None else end_perf
        span.duration_s = max(0.0, end - span.start_perf)
        span._finished = True
        parent = span._parent
        if parent is not None:
            with self._lock:
                parent.children.append(span)
        self._deliver(span)

    def link(self, parent: Optional[Span], child: Optional[Span]) -> None:
        """Attach an already-delivered span as an additional child of ``parent``.

        This is how one fused-batch span becomes part of every co-batched
        request's tree without being exported more than once.
        """
        if parent is None or child is None:
            return
        with self._lock:
            if child not in parent.children:
                parent.children.append(child)

    def add_timed_children(self, parent: Optional[Span],
                           timings: Sequence[Tuple[str, float, int]]) -> None:
        """Fabricate finished children from ``(label, seconds, calls)`` rows.

        The compiled runtime's profile hooks measure per-kernel durations
        but not individual start times; the children are laid out
        sequentially from the parent's start, which matches the serial
        profiled replay that produced them.
        """
        if parent is None or not self.enabled:
            return
        cursor = parent.start_perf
        for label, seconds, calls in timings:
            child = Span(label, parent=parent, start_perf=cursor)
            child.attrs["calls"] = calls
            cursor += seconds
            self.finish_span(child, end_perf=cursor)

    # -- delivery -----------------------------------------------------------------

    def _deliver(self, span: Span) -> None:
        for exporter in self._exporters:
            try:
                exporter.export(span)
            except Exception:  # noqa: BLE001 - telemetry must never break serving
                pass
        if span.parent_id is None and self.flight is not None:
            try:
                self.flight.record(span)
            except Exception:  # noqa: BLE001
                pass

    # -- sampling -----------------------------------------------------------------

    def sample_kernels(self) -> bool:
        """Deterministic counter-based sampler for per-kernel attribution.

        The counter increment is intentionally unlocked: a rare lost update
        under contention only shifts *which* replay gets sampled, never
        correctness.
        """
        interval = self._kernel_interval
        if not self.enabled or interval == 0:
            return False
        if interval == 1:
            return True
        self._kernel_counter += 1
        return self._kernel_counter % interval == 0


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer instance."""
    return _TRACER


def span(name: str, **attrs):
    """Open a child span of the caller's current span (module-level sugar)."""
    return _TRACER.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Record a point-in-time event on the current span (no-op when none)."""
    current = _CURRENT.get()
    if current is not None and _TRACER.enabled:
        current.add_event(name, **attrs)


def current_span() -> Optional[Span]:
    """The caller's current span, or ``None`` outside any traced scope."""
    return _CURRENT.get()
