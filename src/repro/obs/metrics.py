"""Thread-safe metrics registry: counters, gauges and histograms.

One process-wide :class:`MetricsRegistry` replaces the fragmented pull-only
accounting that grew per subsystem (``ServerStats`` percentiles here,
``runtime_stats()`` counts there): instruments register under a
metric name plus static labels and every consumer reads the same numbers,
either as a JSON snapshot (:meth:`MetricsRegistry.snapshot`) or as
Prometheus text exposition (:meth:`MetricsRegistry.to_prometheus`).

Histograms keep **two** views of the same stream:

* fixed cumulative buckets (Prometheus ``_bucket{le=...}`` semantics) for
  cheap cross-process aggregation, and
* a bounded sliding-window reservoir from which quantiles are computed with
  the repo's one shared percentile routine,
  :func:`repro.metrics.profiler.summarize_latencies` — serving endpoints and
  BENCH recorders can never disagree on what "p99" means.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "default_registry", "counter", "gauge", "histogram",
           "render_prometheus", "DEFAULT_LATENCY_BUCKETS"]

#: Default histogram buckets (seconds): 100 µs .. ~26 s in powers of four.
DEFAULT_LATENCY_BUCKETS = tuple(1e-4 * 4 ** i for i in range(10))


def _sanitize(name: str) -> str:
    """Prometheus metric names allow ``[a-zA-Z0-9_:]`` only."""
    return "".join(c if c.isalnum() or c in "_:" else "_" for c in name)


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_sanitize(k)}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class _Instrument:
    """Shared identity: a metric name plus a frozen label set."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        self.name = name
        self.help = help
        self.labels: Dict[str, str] = dict(labels or {})
        self._lock = threading.Lock()

    @property
    def key(self) -> Tuple[str, tuple]:
        return (self.name, tuple(sorted(self.labels.items())))

    def snapshot(self) -> dict:  # pragma: no cover - overridden
        raise NotImplementedError

    def to_prometheus_samples(self) -> List[Tuple[str, Dict[str, str], float]]:
        raise NotImplementedError  # pragma: no cover - overridden


class Counter(_Instrument):
    """Monotonically increasing count (requests served, cache hits, ...)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}

    def to_prometheus_samples(self):
        return [(_sanitize(self.name), self.labels, self._value)]


class Gauge(_Instrument):
    """Point-in-time value; either set directly or read through a callback."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", labels: Optional[Dict[str, str]] = None,
                 fn: Optional[Callable[[], float]] = None):
        super().__init__(name, help, labels)
        self._value = 0.0
        self._fn = fn

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Pull-mode: ``fn()`` is evaluated at every read."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            try:
                return float(self._fn())
            except Exception:  # noqa: BLE001 - a broken callback must not kill a scrape
                return math.nan
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}

    def to_prometheus_samples(self):
        return [(_sanitize(self.name), self.labels, self.value)]


class Histogram(_Instrument):
    """Distribution instrument with fixed buckets plus a quantile reservoir.

    Parameters
    ----------
    buckets:
        Upper bounds (sorted ascending) of the cumulative buckets; a
        ``+Inf`` bucket is implicit.
    max_samples:
        Size of the sliding-window reservoir quantiles are computed from.
        The window keeps the most *recent* observations at bounded memory —
        a long-running server reports current percentiles, not lifetime
        ones.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 labels: Optional[Dict[str, str]] = None,
                 buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                 max_samples: int = 8192):
        super().__init__(name, help, labels)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.bounds = tuple(bounds)
        self.max_samples = int(max_samples)
        self._bucket_counts = [0] * (len(self.bounds) + 1)  # +Inf last
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._window: "deque[float]" = deque(maxlen=self.max_samples)

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            index = len(self.bounds)
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    index = i
                    break
            self._bucket_counts[index] += 1
            self._window.append(value)

    # -- reading ------------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def max(self) -> float:
        return self._max

    def window(self) -> List[float]:
        """A copy of the sliding-window reservoir (most recent observations)."""
        with self._lock:
            return list(self._window)

    def quantile_summary(self, percentiles: tuple = (50, 95, 99)) -> Dict[str, float]:
        """Reservoir quantiles via the repo's shared percentile math."""
        from repro.metrics.profiler import summarize_latencies

        return summarize_latencies(self.window(), percentiles=percentiles)

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative ``{le: count}`` view (Prometheus semantics)."""
        with self._lock:
            counts = list(self._bucket_counts)
        out: Dict[str, int] = {}
        running = 0
        for bound, count in zip(self.bounds, counts[:-1]):
            running += count
            out[f"{bound:g}"] = running
        out["+Inf"] = running + counts[-1]
        return out

    def reset(self) -> None:
        with self._lock:
            self._bucket_counts = [0] * (len(self.bounds) + 1)
            self._count = 0
            self._sum = 0.0
            self._max = 0.0
            self._window.clear()

    def snapshot(self) -> dict:
        quantiles = self.quantile_summary()
        return {
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "max": self._max,
            "buckets": self.bucket_counts(),
            "quantiles": quantiles,
        }

    def to_prometheus_samples(self):
        base = _sanitize(self.name)
        samples = []
        for le, count in self.bucket_counts().items():
            labels = dict(self.labels)
            labels["le"] = le
            samples.append((base + "_bucket", labels, float(count)))
        samples.append((base + "_sum", self.labels, self._sum))
        samples.append((base + "_count", self.labels, float(self._count)))
        return samples


class MetricsRegistry:
    """Name/label-keyed store of instruments with get-or-create semantics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, tuple], _Instrument] = {}

    # -- registration -------------------------------------------------------------

    def register(self, instrument: _Instrument, replace: bool = False) -> _Instrument:
        """Insert an externally-built instrument (e.g. one owned by ServerStats).

        With ``replace=True`` an existing registration under the same
        name+labels is overwritten — the scrape follows the newest owner,
        which is the behaviour a hot-swapped serving stack wants.
        """
        with self._lock:
            key = instrument.key
            existing = self._instruments.get(key)
            if existing is not None and not replace:
                if type(existing) is not type(instrument):
                    raise ValueError(
                        f"metric {key} already registered as {existing.kind}"
                    )
                return existing
            self._instruments[key] = instrument
            return instrument

    def _get_or_create(self, cls, name: str, help: str,
                       labels: Optional[Dict[str, str]], **kwargs) -> _Instrument:
        probe_key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            existing = self._instruments.get(probe_key)
            if existing is not None:
                if type(existing) is not cls:
                    raise ValueError(
                        f"metric {probe_key} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                return existing
            instrument = cls(name, help=help, labels=labels, **kwargs)
            self._instruments[instrument.key] = instrument
            return instrument

    def counter(self, name: str, help: str = "",
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Optional[Dict[str, str]] = None,
              fn: Optional[Callable[[], float]] = None) -> Gauge:
        instrument = self._get_or_create(Gauge, name, help, labels)
        if fn is not None:
            instrument.set_function(fn)
        return instrument

    def histogram(self, name: str, help: str = "",
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
                  max_samples: int = 8192) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels,
                                   buckets=buckets, max_samples=max_samples)

    def unregister(self, name: str, labels: Optional[Dict[str, str]] = None) -> bool:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            return self._instruments.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._instruments.clear()

    # -- reading ------------------------------------------------------------------

    def instruments(self) -> List[_Instrument]:
        with self._lock:
            return list(self._instruments.values())

    def get(self, name: str, labels: Optional[Dict[str, str]] = None) -> Optional[_Instrument]:
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            return self._instruments.get(key)

    def snapshot(self) -> dict:
        """JSON-able ``{name: [{labels, ...instrument snapshot}]}`` dump."""
        out: Dict[str, List[dict]] = {}
        for instrument in self.instruments():
            entry = {"labels": dict(instrument.labels)}
            entry.update(instrument.snapshot())
            out.setdefault(instrument.name, []).append(entry)
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (``text/plain; version=0.0.4``)."""
        by_name: Dict[str, List[_Instrument]] = {}
        for instrument in self.instruments():
            by_name.setdefault(instrument.name, []).append(instrument)
        lines: List[str] = []
        for name in sorted(by_name):
            group = by_name[name]
            metric = _sanitize(name)
            help_text = next((i.help for i in group if i.help), "")
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} {group[0].kind}")
            for instrument in group:
                for sample_name, labels, value in instrument.to_prometheus_samples():
                    lines.append(f"{sample_name}{_format_labels(labels)} {value:g}")
        return "\n".join(lines) + "\n"


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide registry every built-in instrument reports into."""
    return _DEFAULT


def counter(name: str, help: str = "", labels: Optional[Dict[str, str]] = None) -> Counter:
    return _DEFAULT.counter(name, help=help, labels=labels)


def gauge(name: str, help: str = "", labels: Optional[Dict[str, str]] = None,
          fn: Optional[Callable[[], float]] = None) -> Gauge:
    return _DEFAULT.gauge(name, help=help, labels=labels, fn=fn)


def histogram(name: str, help: str = "", labels: Optional[Dict[str, str]] = None,
              buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
              max_samples: int = 8192) -> Histogram:
    return _DEFAULT.histogram(name, help=help, labels=labels,
                              buckets=buckets, max_samples=max_samples)


def render_prometheus() -> str:
    """Text exposition of the default registry (the scrape endpoint body)."""
    return _DEFAULT.to_prometheus()
