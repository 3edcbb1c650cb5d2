"""Unified observability: tracing spans, metrics registry, flight recorder.

Before this package, the stack's telemetry was fragmented and pull-only:
``ServerStats`` percentiles, ``runtime_stats()`` counters and profiler
summaries each lived in their own silo and none of them could
answer "where did *this* slow request spend its time?".  ``repro.obs`` is
the cross-cutting layer they now all report into:

* **metrics** (:mod:`repro.obs.metrics`) — process-wide registry of
  counters / gauges / histograms with Prometheus text exposition and JSON
  snapshots.  ``ServerStats`` and the compiled runtime register their
  instruments here.
* **tracing** (:mod:`repro.obs.trace`) — hierarchical spans with
  context-var propagation, carried across the serving queue hop so
  a request's tree covers enqueue → batch assembly → compiled replay →
  per-kernel children (planner kernel labels), and through the trainer so a step
  splits into data-wait / forward / backward / optimizer.
* **exporters** (:mod:`repro.obs.export`) — Chrome ``trace_event`` JSON
  (open in ``chrome://tracing`` / Perfetto) and a JSONL span log.
* **flight recorder** (:mod:`repro.obs.flight`) — bounded retention of the
  K slowest request traces, surfaced by
  :meth:`repro.serve.server.InferenceServer.debug_report`.

Quickstart::

    from repro import obs

    chrome = obs.ChromeTraceExporter()
    obs.configure(enabled=True, exporters=[chrome],
                  kernel_sample_rate=1 / 16, flight_capacity=8)
    ...  # train / serve as usual
    chrome.write("trace.json")                 # -> chrome://tracing
    print(obs.render_prometheus())             # -> metrics endpoint body
    obs.disable()

Tracing is **off** by default; disabled instrumentation reduces to one flag
check per site, measured well under 1% of serve p50
(``benchmarks/test_bench_obs.py``).
"""

from __future__ import annotations

import threading
from typing import Iterable, Optional, Sequence

from repro.obs.export import ChromeTraceExporter, JSONLExporter
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               counter, default_registry, gauge, histogram,
                               render_prometheus)
from repro.obs.trace import (Span, Tracer, current_span, event, get_tracer,
                             span)

__all__ = [
    "Span", "Tracer", "get_tracer", "span", "event", "current_span",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "default_registry",
    "counter", "gauge", "histogram", "render_prometheus",
    "ChromeTraceExporter", "JSONLExporter", "FlightRecorder",
    "configure", "disable", "enabled", "flight_recorder", "serve_metrics",
]


def configure(
    enabled: bool = True,
    exporters: Optional[Sequence] = None,
    kernel_sample_rate: Optional[float] = None,
    flight_capacity: Optional[int] = 8,
    flight_names: Optional[Iterable[str]] = ("serve.request",),
) -> Tracer:
    """Switch tracing on (or reconfigure it) in one call.

    Parameters
    ----------
    enabled:
        Master switch for span creation.
    exporters:
        Replaces the tracer's exporter set when given (``[]`` detaches all).
    kernel_sample_rate:
        Fraction of compiled-runtime replays that emit per-kernel child
        spans; ``None`` keeps the current rate (initially ``0``).
    flight_capacity:
        Size of the flight recorder; ``None`` leaves the current recorder
        untouched, ``0`` removes it.
    flight_names:
        Root-span names the recorder retains (default: request traces).
    """
    tracer = get_tracer()
    tracer.enabled = bool(enabled)
    if exporters is not None:
        tracer.set_exporters(exporters)
    if kernel_sample_rate is not None:
        tracer.set_kernel_sample_rate(kernel_sample_rate)
    if flight_capacity is not None:
        if flight_capacity == 0:
            tracer.flight = None
        else:
            tracer.flight = FlightRecorder(capacity=flight_capacity,
                                           names=flight_names)
    return tracer


def disable() -> None:
    """Turn span creation off (instruments keep counting; they are cheap)."""
    get_tracer().enabled = False


def enabled() -> bool:
    """Whether tracing is currently on — the guard for hot-loop call sites."""
    return get_tracer().enabled


def flight_recorder() -> Optional[FlightRecorder]:
    """The tracer's current flight recorder (``None`` when unset)."""
    return get_tracer().flight


def serve_metrics(port: int = 9105, host: str = "127.0.0.1"):
    """Expose :func:`render_prometheus` over HTTP on a daemon thread.

    Returns the :class:`http.server.ThreadingHTTPServer`; call its
    ``shutdown()`` to stop scraping.  ``GET /metrics`` (or ``/``) answers
    with the text exposition of the default registry.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    class _Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path.rstrip("/") not in ("", "/metrics"):
                self.send_response(404)
                self.end_headers()
                return
            body = render_prometheus().encode()
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # pragma: no cover - silence stdlib logging
            pass

    server = ThreadingHTTPServer((host, port), _Handler)
    thread = threading.Thread(target=server.serve_forever,
                              name="obs-metrics-http", daemon=True)
    thread.start()
    return server
