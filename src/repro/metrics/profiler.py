"""Training-time measurement.

Table II's "Training time (s)" column is defined as the wall-clock time of
the forward and backward passes on a *single batch* of inputs.  The profiler
here measures exactly that on the NumPy engine: the absolute numbers are CPU
times rather than RTX-3090 times, but the *relative* reductions of STT / PTT
/ HTT against the dense baseline are the reproduced quantity.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.models.base import SpikingModel
from repro.snn.loss import mean_output_cross_entropy

__all__ = ["TrainingTimeProfiler", "time_training_step", "summarize_latencies",
           "summarize_runtime"]


def summarize_latencies(durations: List[float],
                        percentiles: tuple = (50, 95, 99)) -> Dict[str, float]:
    """Summarise a sample of durations (seconds) into mean / max / percentiles.

    Returns ``{"count", "mean_s", "max_s", "p50_s", "p95_s", "p99_s"}`` (one
    ``p<N>_s`` key per requested percentile).  An empty sample yields zeros,
    so callers can render a stats table before traffic arrives.  This is the
    shared percentile math behind both the serving-side accounting
    (:class:`repro.serve.stats.ServerStats`) and ad-hoc BENCH recorders.
    """
    keys = ["count", "mean_s", "max_s"] + [f"p{int(p)}_s" for p in percentiles]
    if not durations:
        return {key: 0.0 for key in keys}
    array = np.asarray(durations, dtype=np.float64)
    summary = {
        "count": float(array.size),
        "mean_s": float(array.mean()),
        "max_s": float(array.max()),
    }
    for p in percentiles:
        summary[f"p{int(p)}_s"] = float(np.percentile(array, p))
    return summary


def summarize_runtime(source, top_k: int = 10) -> Dict[str, object]:
    """Capture-vs-replay report for a compiled-runtime owner.

    ``source`` is anything exposing ``runtime_stats()`` — a
    :class:`~repro.training.trainer.BPTTTrainer` with ``compile=True``, a
    compiled :class:`~repro.serve.engine.InferenceEngine`, or a raw
    ``CompiledTrainStep`` / ``CompiledForward``.  Returns the runtime's
    accounting (captures, replays, plan and arena statistics) augmented with
    a latency percentile summary of the replay durations and the
    capture-vs-replay speedup (how much cheaper a replayed step is than the
    capture that built its plan).

    When the runtime was built with ``profile=True``, the report also carries
    ``hot_ops``: the top-``top_k`` kernels by accumulated replay seconds
    (``{"op", "seconds", "calls", "share"}`` per entry, forward kernels and
    ``bwd:``-prefixed backward kernels ranked together), so graph-optimizer
    wins are attributable to specific kernels.
    """
    stats_fn = getattr(source, "runtime_stats", None)
    if stats_fn is None:
        raise TypeError(f"{type(source).__name__} does not expose runtime_stats()")
    stats = stats_fn()
    if stats is None:
        raise ValueError("compiled runtime is not active on this source "
                         "(construct it with compile=True)")
    report = dict(stats)
    durations = list(getattr(source, "replay_durations", [])
                     or getattr(getattr(source, "_compiled", None), "replay_durations", []))
    report["replay_latency"] = summarize_latencies(durations)
    mean_capture = float(report.get("mean_capture_s", 0.0))
    mean_replay = float(report.get("mean_replay_s", 0.0))
    report["capture_over_replay"] = (mean_capture / mean_replay) if mean_replay > 0 else 0.0
    kernels = report.get("kernels")
    if kernels:
        total = sum(entry["seconds"] for entry in kernels.values()) or 1.0
        ranked = sorted(kernels.items(), key=lambda item: -item[1]["seconds"])
        report["hot_ops"] = [
            {"op": label, "seconds": entry["seconds"], "calls": entry["calls"],
             "share": entry["seconds"] / total}
            for label, entry in ranked[:top_k]
        ]
    return report


def time_training_step(
    model: SpikingModel,
    inputs: np.ndarray,
    labels: np.ndarray,
    repeats: int = 3,
    warmup: int = 1,
    loss_fn: Optional[Callable] = None,
) -> float:
    """Median wall-clock seconds of one forward+backward pass on ``inputs``.

    Parameters
    ----------
    model:
        A spiking model (dense or TT-converted).
    inputs:
        ``(T, N, C, H, W)`` batch.
    labels:
        ``(N,)`` integer labels.
    repeats, warmup:
        Number of timed repetitions (median reported) and discarded warm-up
        passes.
    loss_fn:
        Loss taking ``(outputs_per_timestep, labels)``; defaults to the
        paper's mean-logit cross entropy.
    """
    loss_fn = loss_fn or mean_output_cross_entropy
    durations: List[float] = []
    for iteration in range(warmup + repeats):
        model.zero_grad()
        start = time.perf_counter()
        outputs = model.run_timesteps(inputs)
        loss = loss_fn(outputs, labels)
        loss.backward()
        elapsed = time.perf_counter() - start
        if iteration >= warmup:
            durations.append(elapsed)
    return float(np.median(durations))


@dataclass
class TrainingTimeProfiler:
    """Collects training-step timings for several methods and reports reductions."""

    repeats: int = 3
    warmup: int = 1
    timings: Dict[str, float] = field(default_factory=dict)

    def measure(self, name: str, model: SpikingModel, inputs: np.ndarray,
                labels: np.ndarray, loss_fn: Optional[Callable] = None) -> float:
        """Time one method and remember the result under ``name``."""
        duration = time_training_step(model, inputs, labels, repeats=self.repeats,
                                      warmup=self.warmup, loss_fn=loss_fn)
        self.timings[name] = duration
        return duration

    def reduction_vs(self, name: str, baseline: str = "baseline") -> float:
        """Relative training-time reduction of ``name`` against ``baseline`` (in %)."""
        if baseline not in self.timings or name not in self.timings:
            raise KeyError(f"both '{name}' and '{baseline}' must be measured first")
        base = self.timings[baseline]
        return 100.0 * (base - self.timings[name]) / base

    def as_table(self, baseline: str = "baseline") -> Dict[str, Dict[str, float]]:
        """Dictionary of time and percentage reduction per measured method."""
        table: Dict[str, Dict[str, float]] = {}
        for name, duration in self.timings.items():
            entry = {"time_s": duration}
            if baseline in self.timings and name != baseline:
                entry["reduction_pct"] = self.reduction_vs(name, baseline)
            table[name] = entry
        return table
