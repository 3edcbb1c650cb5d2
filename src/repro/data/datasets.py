"""Dataset and data-loader abstractions (NumPy equivalents of torch.utils.data)."""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Iterator, Optional, Tuple

import numpy as np

__all__ = ["Dataset", "ArrayDataset", "EventDataset", "DataLoader"]


class Dataset:
    """Minimal dataset protocol: ``__len__`` and ``__getitem__``."""

    def __len__(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def __getitem__(self, index: int):  # pragma: no cover - abstract
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Static-image dataset backed by in-memory arrays.

    ``images`` has shape ``(N, C, H, W)`` and ``labels`` shape ``(N,)``.  An
    optional per-sample ``transform`` is applied on access (augmentation).
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray,
                 transform: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        images = np.asarray(images, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError("labels must be a 1-D array matching the number of images")
        self.images = images
        self.labels = labels
        self.transform = transform

    def __len__(self) -> int:
        return self.images.shape[0]

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        image = self.images[index]
        if self.transform is not None:
            image = self.transform(image)
        return image, int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class EventDataset(Dataset):
    """Event-frame dataset: every sample is a ``(T, C, H, W)`` frame sequence."""

    def __init__(self, frames: np.ndarray, labels: np.ndarray,
                 transform: Optional[Callable[[np.ndarray], np.ndarray]] = None):
        frames = np.asarray(frames, dtype=np.float32)
        labels = np.asarray(labels, dtype=np.int64)
        if frames.ndim != 5:
            raise ValueError(f"frames must be (N, T, C, H, W), got {frames.shape}")
        if labels.ndim != 1 or labels.shape[0] != frames.shape[0]:
            raise ValueError("labels must be a 1-D array matching the number of samples")
        self.frames = frames
        self.labels = labels
        self.transform = transform

    def __len__(self) -> int:
        return self.frames.shape[0]

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        sample = self.frames[index]
        if self.transform is not None:
            sample = self.transform(sample)
        return sample, int(self.labels[index])

    @property
    def timesteps(self) -> int:
        return self.frames.shape[1]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


class DataLoader:
    """Batch iterator over a dataset with optional shuffling and prefetch.

    For :class:`ArrayDataset` the yielded batch is ``(images (N, C, H, W),
    labels (N,))``; for :class:`EventDataset` the frames are transposed to
    the model-facing layout ``(T, N, C, H, W)``.

    With ``prefetch=True`` batch assembly (per-sample transforms, stacking)
    runs on a background thread into a double buffer of ``prefetch_depth``
    batches, overlapping with the consumer's train step.  The shuffle order
    is drawn from the loader's seeded generator *before* the worker starts
    and batches are yielded strictly in order, so prefetching is
    bit-deterministic with the non-prefetch iterator for a given ``seed``
    (per-sample ``transform`` callables must not share unseeded global
    state).  Transient assembly failures (the ``OSError`` family — flaky
    storage, injected ``data.prefetch`` faults) are retried up to
    ``prefetch_retries`` times with linear backoff; permanent errors still
    propagate to the consumer with the ``data.prefetch_error`` span.

    Epoch permutations derive from ``(seed, epoch)``: each ``__iter__``
    advances an internal epoch counter and :meth:`set_epoch` pins it, so
    loaders built with the same seed reproduce the same order and a resumed
    run can rewind to any epoch.
    """

    def __init__(self, dataset: Dataset, batch_size: int = 32, shuffle: bool = True,
                 drop_last: bool = False, seed: Optional[int] = None,
                 prefetch: bool = False, prefetch_depth: int = 2,
                 prefetch_retries: int = 2,
                 prefetch_retry_backoff_s: float = 0.05):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if prefetch_depth < 1:
            raise ValueError(f"prefetch_depth must be >= 1, got {prefetch_depth}")
        if prefetch_retries < 0:
            raise ValueError(f"prefetch_retries must be >= 0, got {prefetch_retries}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self.prefetch = prefetch
        self.prefetch_depth = prefetch_depth
        self.prefetch_retries = int(prefetch_retries)
        self.prefetch_retry_backoff_s = float(prefetch_retry_backoff_s)
        # Materialise an entropy base even for seed=None: every epoch's
        # permutation is then a pure function of ``(self.seed, epoch)``.
        self.seed = seed if seed is not None else int(
            np.random.SeedSequence().entropy % (2 ** 32))
        self._epoch = 0

    def set_epoch(self, epoch: int) -> None:
        """Pin the permutation epoch for the next ``__iter__``.

        A trainer that builds a fresh loader per epoch (or resumes from a
        checkpoint) calls this with the epoch number to draw that epoch's
        ``(seed, epoch)`` permutation.
        """
        self._epoch = int(epoch)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def _assemble(self, batch_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        samples = [self.dataset[int(i)] for i in batch_idx]
        data = np.stack([s[0] for s in samples], axis=0)
        labels = np.array([s[1] for s in samples], dtype=np.int64)
        if data.ndim == 5:
            # (N, T, C, H, W) -> (T, N, C, H, W) for the timestep loop.
            data = np.transpose(data, (1, 0, 2, 3, 4))
        return data, labels

    def _permutation(self, epoch: int) -> np.ndarray:
        """The epoch's sample order, a pure function of ``(seed, epoch)``."""
        if not self.shuffle:
            return np.arange(len(self.dataset))
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(epoch,)))
        return rng.permutation(len(self.dataset))

    def _batch_indices(self) -> list:
        indices = self._permutation(self._epoch)
        self._epoch += 1
        batches = []
        for start in range(0, len(indices), self.batch_size):
            batch_idx = indices[start:start + self.batch_size]
            if self.drop_last and len(batch_idx) < self.batch_size:
                break
            batches.append(batch_idx)
        return batches

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        batches = self._batch_indices()
        if not self.prefetch:
            for batch_idx in batches:
                yield self._assemble(batch_idx)
            return
        yield from self._iter_prefetch(batches)

    def _iter_prefetch(self, batches: list) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        buffer: "queue.Queue" = queue.Queue(maxsize=self.prefetch_depth)
        sentinel = object()
        # Captured on the *consumer* thread so a background failure lands in
        # the trace the training loop is building, not in a detached tree.
        from repro.obs.trace import current_span, get_tracer

        tracer = get_tracer()
        consumer_span = current_span() if tracer.enabled else None

        def assemble_with_retry(batch_idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            """One batch, retrying *transient* (OSError-family) failures.

            Programming errors (bad transform, index bugs) propagate on
            first occurrence; I/O blips retry ``prefetch_retries`` times
            with linear backoff before being treated as permanent.  The
            ``data.prefetch`` fault site injects such a blip for the chaos
            suite.
            """
            from repro.obs import metrics as _metrics
            from repro.resilience import faults

            attempt = 0
            while True:
                try:
                    injector = faults.get_injector()
                    if injector is not None:
                        action = injector.maybe("data.prefetch")
                        if action is not None:
                            raise OSError(action.get(
                                "message", "injected transient prefetch error"))
                    return self._assemble(batch_idx)
                except OSError:
                    attempt += 1
                    if attempt > self.prefetch_retries:
                        raise
                    _metrics.counter(
                        "repro_data_prefetch_retries_total",
                        "Prefetch batches retried after a transient error").inc()
                    time.sleep(self.prefetch_retry_backoff_s * attempt)

        def worker() -> None:
            done = 0
            try:
                for batch_idx in batches:
                    buffer.put(assemble_with_retry(batch_idx))
                    done += 1
            except BaseException as exc:  # propagate to the consumer
                if tracer.enabled:
                    # Stamp the failure into the consumer's trace at failure
                    # time — the exception itself surfaces a batch (or more)
                    # later, once the consumer drains the buffered items.
                    span = tracer.start_span(
                        "data.prefetch_error", parent=consumer_span,
                        attrs={"error": repr(exc), "batches_assembled": done},
                        use_current_parent=False)
                    if span is not None:
                        span.status = "error"
                        tracer.finish_span(span)
                buffer.put((sentinel, exc))
            else:
                buffer.put((sentinel, None))

        thread = threading.Thread(target=worker, name="dataloader-prefetch", daemon=True)
        thread.start()
        try:
            while True:
                item = buffer.get()
                if isinstance(item, tuple) and len(item) == 2 and item[0] is sentinel:
                    if item[1] is not None:
                        raise item[1]
                    break
                yield item
        finally:
            # Unblock the worker if the consumer abandons the iterator early.
            while thread.is_alive():
                try:
                    buffer.get_nowait()
                except queue.Empty:
                    thread.join(timeout=0.05)
