"""Dynamic micro-batching: coalesce concurrent requests into fused batches.

Serving one image at a time wastes the fused engine: a batch-1 forward pays
the full per-layer Python / im2col / GEMM-setup overhead for a single sample,
while a batch-16 forward pays it once for sixteen.  The :class:`MicroBatcher`
exploits that asymmetry — concurrent single-sample requests enter a queue,
a worker drains the queue into one ``(N, C, H, W)`` batch under a

* ``max_batch_size`` — never put more than this many samples in one batch;
* ``max_wait_ms`` — never hold the first request longer than this waiting
  for the batch to fill;

policy, runs the engine **once**, and scatters the logit rows back to the
per-request futures.  Every submitted request resolves exactly once — with a
result, or with the exception the batch raised, or cancelled at close.

Tracing (:mod:`repro.obs`): when the tracer is enabled, every submitted
request opens a root ``serve.request`` span whose *object* rides through the
queue alongside the future — the worker thread finishes the ``queue_wait``
child at dequeue, opens one shared ``serve.batch`` span around the fused
forward (linked into **every** co-batched request's tree), and activates it
so the engine's replay spans (and sampled per-kernel children) nest inside.
That is the context-var hop that makes "where did this request wait?"
answerable per request rather than on average.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional, Tuple, Union

import numpy as np

from repro.obs.trace import get_tracer
from repro.serve.engine import InferenceEngine
from repro.serve.stats import ServerStats

__all__ = ["MicroBatcher", "BatcherClosed"]

#: Queue sentinel asking the worker thread to exit.
_SHUTDOWN = object()


class BatcherClosed(RuntimeError):
    """The batcher shut down before this queued request could be served.

    Raised from ``future.result()`` for requests that were accepted into the
    queue but never reached the worker — :meth:`MicroBatcher.close` resolves
    every still-queued future with this error (or a plain cancellation when
    the future can still be cancelled), so no caller blocks forever across a
    shutdown.
    """


class MicroBatcher:
    """Coalesce single-sample requests into fused batches.

    One worker thread drains the queue: the NumPy engine serialises forwards
    internally, so a second worker would only contend for its lock.

    Parameters
    ----------
    infer_fn:
        An :class:`~repro.serve.engine.InferenceEngine` or any callable that
        maps a stacked ``(N, C, H, W)`` batch to an ``(N, ...)`` array of
        per-sample results (row ``i`` answers request ``i``).
    max_batch_size:
        Upper bound on samples per fused forward.
    max_wait_ms:
        Longest time the *first* request of a batch may wait for co-riders.
        Small values favour latency, large values favour batch fill.
    stats:
        Optional :class:`~repro.serve.stats.ServerStats` receiving per-request
        latencies and per-batch fill records.
    name:
        Served-model name carried as the ``model`` attribute on request /
        batch trace spans.
    span_name:
        Name of the per-request trace span (default ``"serve.request"``).
        The fleet router names its replica-level batchers
        ``"replica.request"`` so their spans read as children of the
        router's ``serve.request`` root rather than as second roots.
    nest_spans:
        When ``True``, the request span parents itself on the submitting
        thread's *current* span (the router activates its ``fleet.route``
        span around :meth:`submit`).  Default ``False`` keeps the span a
        trace root, which is what a standalone batcher wants.
    """

    def __init__(
        self,
        infer_fn: Union[InferenceEngine, Callable[[np.ndarray], np.ndarray]],
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        stats: Optional[ServerStats] = None,
        name: Optional[str] = None,
        span_name: str = "serve.request",
        nest_spans: bool = False,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if isinstance(infer_fn, InferenceEngine):
            infer_fn = infer_fn.infer
        self._infer_fn = infer_fn
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_ms / 1000.0
        self.stats = stats
        self.name = name
        self.span_name = span_name
        self.nest_spans = bool(nest_spans)
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._close_lock = threading.Lock()
        self._worker = threading.Thread(target=self._worker_loop,
                                        name="micro-batcher", daemon=True)
        self._worker.start()

    # -- submission ---------------------------------------------------------------

    def submit(self, sample: np.ndarray) -> Future:
        """Enqueue one ``(C, H, W)`` sample; returns a future of its logits row."""
        sample = np.asarray(sample, dtype=np.float32)
        if sample.ndim != 3:
            raise ValueError(f"submit expects a single (C, H, W) sample, got {sample.shape}")
        future: Future = Future()
        tracer = get_tracer()
        spans = None
        if tracer.enabled:
            # The request span is a trace *root* (flight-recorder eligible);
            # it travels through the queue by reference and is finished by
            # the worker that answers it.
            attrs = {"model": self.name} if self.name is not None else None
            root = tracer.start_span(self.span_name, attrs=attrs,
                                     use_current_parent=self.nest_spans)
            qspan = tracer.start_span("serve.queue_wait", parent=root)
            spans = (root, qspan)
        with self._close_lock:
            if self._closed:
                if spans is not None:
                    spans[0].status = "error"
                    tracer.finish_span(spans[1])
                    tracer.finish_span(spans[0])
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            self._queue.put((sample, future, time.monotonic(), spans))
        return future

    def infer(self, sample: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking convenience wrapper: ``submit(sample).result(timeout)``."""
        return self.submit(sample).result(timeout=timeout)

    def predict(self, sample: np.ndarray, timeout: Optional[float] = None) -> int:
        """Blocking class prediction for one sample."""
        return int(np.argmax(self.infer(sample, timeout=timeout)))

    @property
    def pending(self) -> int:
        """Number of requests currently queued (excludes in-flight batches)."""
        return self._queue.qsize()

    # -- worker -------------------------------------------------------------------

    def _gather(self, first) -> Tuple[list, bool]:
        """Collect up to ``max_batch_size`` requests starting from ``first``.

        Returns the gathered batch and whether a shutdown sentinel was seen.
        """
        batch = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(batch) < self.max_batch_size:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
            except queue.Empty:
                break
            if item is _SHUTDOWN:
                return batch, True
            batch.append(item)
        return batch, False

    def _process(self, batch: list) -> None:
        """Run one fused forward and scatter the rows to the request futures."""
        tracer = get_tracer()
        live = []
        for item in batch:
            _, future, _, spans = item
            if future.set_running_or_notify_cancel():
                live.append(item)
            elif spans is not None:
                spans[0].status = "cancelled"
                tracer.finish_span(spans[1])
                tracer.finish_span(spans[0])
        if not live:
            return
        from repro.resilience import faults

        injector = faults.get_injector()
        if injector is not None:
            # Queue-stall fault: the worker sits on a formed batch before the
            # fused forward, so queued requests age exactly as they would
            # behind a wedged engine (deadline/backpressure behaviour under
            # test, nothing here crashes).
            stall = injector.maybe("batcher.stall", model=self.name or "")
            if stall is not None:
                time.sleep(float(stall.get("seconds", 0.05)))
        start_perf = time.perf_counter()
        # One shared batch span, parented on the first traced request (the
        # batch leader) and linked into every other rider's tree below.
        leader = next((spans[0] for _, _, _, spans in live if spans is not None),
                      None)
        batch_span = None
        if leader is not None:
            for _, _, _, spans in live:
                if spans is not None:
                    tracer.finish_span(spans[1], end_perf=start_perf)
            batch_span = tracer.start_span(
                "serve.batch", parent=leader,
                attrs={"batch_size": len(live), "model": self.name})
        try:
            stacked = np.stack([sample for sample, _, _, _ in live], axis=0)
            if batch_span is not None:
                with tracer.activate(batch_span):
                    results = np.asarray(self._infer_fn(stacked))
            else:
                results = np.asarray(self._infer_fn(stacked))
            if results.shape[0] != len(live):
                raise RuntimeError(
                    f"infer_fn returned {results.shape[0]} rows for {len(live)} requests"
                )
        except BaseException as error:  # noqa: BLE001 - forwarded to the futures
            if batch_span is not None:
                batch_span.status = "error"
                batch_span.set_attr("error", repr(error))
                tracer.finish_span(batch_span)
            for _, future, _, spans in live:
                future.set_exception(error)
                if spans is not None:
                    root = spans[0]
                    root.status = "error"
                    root.set_attr("error", repr(error))
                    if batch_span is not None and root is not leader:
                        tracer.link(root, batch_span)
                    tracer.finish_span(root)
            return
        done = time.monotonic()
        done_perf = time.perf_counter()
        if batch_span is not None:
            tracer.finish_span(batch_span, end_perf=done_perf)
        for row, (_, future, enqueued, spans) in zip(results, live):
            future.set_result(row)
            if spans is not None:
                root = spans[0]
                if root is not leader:
                    tracer.link(root, batch_span)
                root.set_attr("latency_s", done - enqueued)
                tracer.finish_span(root, end_perf=done_perf)
            if self.stats is not None:
                self.stats.record_request(done - enqueued)
        if self.stats is not None:
            self.stats.record_batch(len(live))

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch, shutdown = self._gather(item)
            self._process(batch)
            if shutdown:
                return

    # -- lifecycle ----------------------------------------------------------------

    def close(self, timeout: Optional[float] = 10.0, drain: bool = True) -> None:
        """Stop the worker and deterministically resolve every queued future.

        With ``drain=True`` (default) the worker finishes all already-queued
        requests before exiting; with ``drain=False`` queued requests are
        resolved immediately (cancelled, or failed with
        :class:`BatcherClosed` if cancellation is no longer possible) without
        running the engine.  In *either* mode, anything still queued after
        the worker has been joined — a worker wedged inside ``infer_fn``
        past ``timeout``, or one that died — is resolved the same way, so no
        caller blocked in ``future.result()`` can hang across shutdown.
        Requests already handed to the worker resolve through the normal
        batch path.  New submissions fail fast once ``close`` has begun.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if not drain:
            self._resolve_queued()
        self._queue.put(_SHUTDOWN)
        self._worker.join(timeout=timeout)
        self._resolve_queued()

    def _resolve_queued(self) -> None:
        """Pop every queued request and resolve its future (cancel or fail).

        The shutdown sentinel is re-queued so a worker that un-wedges later
        still finds its exit signal instead of blocking on an empty queue.
        """
        items: list = []
        sentinels = 0
        while True:
            try:
                entry = self._queue.get_nowait()
            except queue.Empty:
                break
            if entry is _SHUTDOWN:
                sentinels += 1
            else:
                items.append(entry)
        for _ in range(sentinels):
            self._queue.put(_SHUTDOWN)
        tracer = get_tracer()
        for _, future, _, spans in items:
            if not future.cancel() and not future.done():
                # set_running_or_notify_cancel was never called on a queued
                # future, so cancel() only fails in a benign race with a
                # worker that just picked the request up; failing it here
                # would double-resolve, hence the done() re-check.
                try:
                    future.set_exception(BatcherClosed(
                        "MicroBatcher closed before this request was served"))
                except Exception:  # pragma: no cover - future already resolved
                    pass
            if spans is not None:
                spans[0].status = "cancelled"
                tracer.finish_span(spans[1])
                tracer.finish_span(spans[0])

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MicroBatcher(max_batch_size={self.max_batch_size}, "
                f"max_wait_ms={self.max_wait_s * 1e3:.1f})")
