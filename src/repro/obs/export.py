"""Span exporters: Chrome ``trace_event`` JSON and a JSONL span log.

Exporters receive every finished span exactly once (via
:meth:`repro.obs.trace.Tracer._deliver`).  They must be thread-safe — spans
finish on trainer threads, serving replica workers and prefetch threads
concurrently — and must never raise into the traced code path.

* :class:`ChromeTraceExporter` accumulates complete-events (``"ph": "X"``)
  plus instant events for span markers; :meth:`ChromeTraceExporter.write`
  emits a file loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
* :class:`JSONLExporter` appends one JSON object per span, either to a file
  (streaming, crash-safe) or to an in-memory list for tests.
"""

from __future__ import annotations

import json
import os
import threading
from typing import List, Optional

from repro.obs.trace import Span

__all__ = ["ChromeTraceExporter", "JSONLExporter"]


class ChromeTraceExporter:
    """Collect spans as Chrome ``trace_event`` complete events.

    ``export`` is on the traced hot path (every finished span, including
    per-kernel children), so it only appends the span *reference* — finished
    spans are immutable — and the trace_event dicts are built lazily at read
    time (:meth:`trace_events` / :meth:`to_json`).

    Parameters
    ----------
    max_events:
        Bound on buffered events; once reached, further spans are counted in
        :attr:`dropped` instead of retained (the trace stays valid, just
        truncated — the flight recorder is the tool for "keep the slow ones").
    """

    def __init__(self, max_events: int = 200_000):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = int(max_events)
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._event_count = 0
        self.dropped = 0
        self._pid = os.getpid()

    def export(self, span: Span) -> None:
        cost = 1 + len(span.events)  # one complete event + one instant each
        with self._lock:
            if self._event_count + cost > self.max_events:
                self.dropped += cost
                return
            self._spans.append(span)
            self._event_count += cost

    # -- reading ------------------------------------------------------------------

    def _span_events(self, span: Span) -> List[dict]:
        events = [{
            "name": span.name,
            "cat": span.name.split(".", 1)[0] or "span",
            "ph": "X",
            "ts": span.start_us,
            "dur": max(span.duration_us, 0.001),
            "pid": self._pid,
            "tid": span.thread_id,
            "args": _args(span),
        }]
        for ts_us, name, attrs in span.events:
            events.append({
                "name": name,
                "cat": "event",
                "ph": "i",
                "s": "t",
                "ts": ts_us,
                "pid": self._pid,
                "tid": span.thread_id,
                "args": {k: _jsonable(v) for k, v in attrs.items()},
            })
        return events

    def trace_events(self) -> List[dict]:
        with self._lock:
            spans = list(self._spans)
        out: List[dict] = []
        for span in spans:
            out.extend(self._span_events(span))
        return out

    def to_json(self) -> str:
        """The full ``{"traceEvents": [...]}`` document as a string."""
        payload = {
            "traceEvents": self.trace_events(),
            "displayTimeUnit": "ms",
            "otherData": {"dropped_events": self.dropped},
        }
        return json.dumps(payload)

    def write(self, path: str) -> str:
        """Write the trace document to ``path``; open it in chrome://tracing."""
        with open(path, "w") as handle:
            handle.write(self.to_json())
        return path

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._event_count = 0
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return self._event_count


class JSONLExporter:
    """One JSON object per finished span.

    With ``path`` given, lines are appended (and flushed) as spans finish, so
    a crashed process still leaves a readable log.  Without a path, spans
    collect in :attr:`records` (handy in tests).
    """

    def __init__(self, path: Optional[str] = None, max_records: int = 200_000):
        self.path = path
        self.max_records = int(max_records)
        self._lock = threading.Lock()
        self._handle = None
        self.records: List[dict] = []
        self.dropped = 0

    def export(self, span: Span) -> None:
        entry = span.to_dict()
        entry["attrs"] = {k: _jsonable(v) for k, v in entry["attrs"].items()}
        with self._lock:
            if self.path is not None:
                if self._handle is None:
                    self._handle = open(self.path, "a")
                self._handle.write(json.dumps(entry) + "\n")
                self._handle.flush()
            elif len(self.records) < self.max_records:
                self.records.append(entry)
            else:
                self.dropped += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def clear(self) -> None:
        with self._lock:
            self.records.clear()
            self.dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self.records)


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def _args(span: Span) -> dict:
    args = {k: _jsonable(v) for k, v in span.attrs.items()}
    args["span_id"] = span.span_id
    args["trace_id"] = span.trace_id
    if span.parent_id is not None:
        args["parent_id"] = span.parent_id
    if span.status != "ok":
        args["status"] = span.status
    return args
