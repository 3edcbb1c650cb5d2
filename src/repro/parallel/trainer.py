"""Data-parallel BPTT training: N replicas, one optimizer, shared-memory all-reduce.

:class:`DataParallelTrainer` is a :class:`~repro.training.trainer.BPTTTrainer`
whose gradients come from ``num_workers`` forked replicas (each running
``BPTTTrainer.forward_backward``, eager or compiled) × ``accum_steps``
sequential micro-shards per worker:

1. the coordinator loads every effective batch of ``config.batch_size``
   samples — given to :meth:`~DataParallelTrainer.train_step`, or drawn from
   its own seeded :class:`~repro.data.datasets.DataLoader` by
   :meth:`~DataParallelTrainer.fit` — and partitions it into
   ``num_workers * accum_steps`` contiguous micro-shards
   (:func:`split_batch`), which travel to the workers with the step command;
2. worker ``w`` runs its micro-shards sequentially, accumulating
   ``(n_k / N) * grad_k`` in float64 into its shared-memory row;
3. the coordinator tree-reduces the rows (fixed association → deterministic
   bits for a given worker count) onto ``param.grad``, adopts rank 0's
   buffers (BN running statistics), and the inherited ``train_step`` steps
   the optimizer **once**; updated weights broadcast back through the
   shared weights buffer before the next step.

Because micro-shard losses/gradients are combined with exact ``n_k / N``
weights, the aggregate equals single-process full-batch training up to
floating-point association (each shard's float32 forward and backward sum
over fewer samples) — losses within ``1e-6``, asserted in
``tests/test_parallel.py`` and ``tests/test_direct_coding.py`` — for models
whose per-sample computation is batch-independent.  A 1-worker run is
bitwise the single-process trainer, its full ``state_dict()`` included.
Batch-norm layers in *training* mode compute their statistics per
micro-shard (exactly like per-device BN in standard distributed data
parallel); with BN, data-parallel training is instead bit-for-bit governed
by the micro-shard semantics, and parity holds against the
gradient-accumulation fallback (``num_workers=1, accum_steps=N``) rather
than against one monolithic batch.

``accum_steps`` is the small-machine fallback: the same effective batch
(and therefore the same micro-shard decomposition) runs on fewer
processes, trading wall-clock for memory/cores.

Checkpoint/resume (:meth:`save_checkpoint` / :meth:`load_checkpoint`)
bundles model, optimizer and scheduler ``state_dict``\\ s plus the NumPy RNG
and the ``(epoch, batch)`` shard cursor; a killed run resumed from the
checkpoint reproduces the uninterrupted loss sequence exactly (same worker
count) because data order is re-derived from ``DataLoader.set_epoch`` and
the reduction order is deterministic.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.data.datasets import DataLoader, Dataset
from repro.obs.metrics import counter, gauge, histogram
from repro.obs.trace import Span, current_span, get_tracer
from repro.parallel.pool import DEFAULT_TIMEOUT_S, WorkerPool
from repro.resilience.errors import WorkerHungError
from repro.training.checkpoint import load_training_state, save_training_state
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer, EpochResult

__all__ = ["DataParallelTrainer", "split_batch"]


def split_batch(data: np.ndarray, labels: np.ndarray,
                num_shards: int) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Partition one batch into ``num_shards`` contiguous micro-shards.

    Static batches ``(N, C, H, W)`` split along axis 0; event batches
    ``(T, N, C, H, W)`` along axis 1 (the loader yields them time-major).
    Explicit-batch and epoch training both go through here, so they shard
    identically.  Trailing shards may be empty when ``N < num_shards``.
    """
    data = np.asarray(data)
    labels = np.asarray(labels)
    batch_axis = 1 if data.ndim == 5 else 0
    return list(zip(np.array_split(data, num_shards, axis=batch_axis),
                    np.array_split(labels, num_shards)))


class DataParallelTrainer(BPTTTrainer):
    """:class:`~repro.training.trainer.BPTTTrainer` whose gradients come from a worker pool.

    Only :meth:`forward_backward` differs: it splits the batch over the
    workers and all-reduces their gradients onto ``param.grad``.
    :meth:`~repro.training.trainer.BPTTTrainer.train_step` (the optimizer
    update and the statistics), the optimizer/scheduler set-up and
    :meth:`~repro.training.trainer.BPTTTrainer.evaluate` are inherited.
    Parameters mirror ``BPTTTrainer`` (``loss_fn``, ``augment``,
    ``compile``/``optimize``), plus:

    num_workers:
        Worker processes; each runs its micro-shards through its own
        replica trainer.
    accum_steps:
        Sequential micro-shards per worker per step — the
        gradient-accumulation fallback.  ``num_workers=1, accum_steps=4``
        runs the exact micro-shard decomposition of a 4-worker step on one
        process.
    train_dataset:
        Optional; :meth:`fit` and :meth:`train_epoch` iterate it on the
        coordinator (shuffled by ``config.seed`` and the epoch number) and
        step each batch like :meth:`train_step`.  Explicit
        :meth:`train_step` calls work without it.
    drop_last:
        Skip each epoch's short final batch.
    """

    def __init__(
        self,
        model,
        config: TrainingConfig,
        num_workers: int = 2,
        accum_steps: int = 1,
        loss_fn: Optional[Callable] = None,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        compile: bool = True,
        optimize: str = "O1",
        train_dataset: Optional[Dataset] = None,
        drop_last: bool = False,
        step_timeout_s: float = DEFAULT_TIMEOUT_S,
        max_step_retries: int = 2,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if accum_steps < 1:
            raise ValueError(f"accum_steps must be >= 1, got {accum_steps}")
        if config.batch_size < num_workers * accum_steps:
            raise ValueError(
                f"batch_size {config.batch_size} cannot feed "
                f"{num_workers} workers x {accum_steps} accumulation steps")
        super().__init__(model, config, loss_fn=loss_fn, augment=augment,
                         compile=compile, optimize=optimize)
        self.num_workers = num_workers
        self.accum_steps = accum_steps
        self.train_dataset = train_dataset
        self.drop_last = bool(drop_last)
        #: Watchdog: per-step reply deadline and how many hung-worker
        #: recoveries (kill + respawn + retry from synced weights) to attempt
        #: before giving up with the original :class:`WorkerHungError`.
        self.step_timeout_s = float(step_timeout_s)
        self.max_step_retries = int(max_step_retries)
        self.step_retries = 0

        #: per-step mean losses in execution order (this process only — not
        #: checkpointed); lets tests compare resumed loss curves exactly.
        self.step_loss_history: List[float] = []
        self._pool: Optional[WorkerPool] = None
        self._cursor: Dict[str, int] = {"epoch": 0, "batch": 0}
        self._allreduce_hist = histogram(
            "train_allreduce_seconds",
            help="Gradient tree-reduce + deposit time per data-parallel step",
            buckets=tuple(1e-5 * 4 ** i for i in range(10)))
        self._util_gauges = [
            gauge("train_worker_utilization",
                  help="Busy fraction of one data-parallel worker",
                  labels={"worker": str(rank)})
            for rank in range(num_workers)
        ]
        self._retry_counter = counter(
            "repro_train_step_retries_total",
            help="Train steps retried after a hung-worker recovery")

    # -- pool lifecycle ----------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is not None and not self._pool.closed:
            return self._pool
        self._pool = WorkerPool(
            self.model, self.num_workers,
            loss_fn=self.loss_fn,
            timesteps=self.config.timesteps,
            step_mode=self.config.step_mode,
            augment=self.augment,
            compile=self.compile,
            optimize=self.optimize,
        )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory segments."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "DataParallelTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- steps -------------------------------------------------------------------

    def forward_backward(self, data: np.ndarray,
                         labels: np.ndarray) -> Tuple[float, int, bool]:
        """The batch's gradients from the pool; returns ``(loss, correct, replayed)``.

        The batch is split into ``num_workers * accum_steps`` micro-shards
        (:func:`split_batch`); each worker runs its shards through its
        replica's :meth:`~repro.training.trainer.BPTTTrainer.forward_backward`.
        The gradient rows are tree-reduced onto ``param.grad``, and rank 0's
        buffers (BN running statistics) replace the coordinator's.
        ``replayed`` is ``True`` only if every worker replayed a plan.
        """
        labels = np.asarray(labels)
        shards = split_batch(data, labels, self.num_workers * self.accum_steps)
        messages = [{"cmd": "step", "total_n": len(labels),
                     "shards": shards[w * self.accum_steps:(w + 1) * self.accum_steps]}
                    for w in range(self.num_workers)]
        pool = self._ensure_pool()
        replies = self._run_step(pool, messages)
        tracer = get_tracer()
        self._emit_worker_spans(tracer, current_span(), replies)
        with tracer.span("train.allreduce", workers=pool.num_workers):
            start = time.perf_counter()
            pool.assign_reduced_gradients()
            self._allreduce_hist.observe(time.perf_counter() - start)
        pool.adopt_buffers(replies)
        for rank, util in enumerate(pool.utilization()):
            self._util_gauges[rank].set(util)
        # Rank-ordered summation: deterministic bits for a fixed pool size.
        loss = 0.0
        for reply in replies:
            loss += reply["loss_scaled"]
        correct = sum(reply["correct"] for reply in replies)
        return loss, correct, all(reply["replayed"] for reply in replies)

    def _run_step(self, pool: WorkerPool,
                  messages: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Send one step's shards and gather the replies, retrying hung workers.

        The optimizer has not stepped when a hang surfaces (gradients are
        still in the workers' rows), and the coordinator still holds the
        step's shards, so a retry re-sends the *same* messages from the same
        synced weights — recovered runs reproduce the fault-free loss curve
        exactly.
        """
        attempts = 0
        while True:
            try:
                pool.sync_weights()
                for rank, msg in enumerate(messages):
                    pool.send(rank, msg)
                return pool.gather(timeout=self.step_timeout_s)
            except WorkerHungError as hung:
                while True:
                    attempts += 1
                    if attempts > self.max_step_retries:
                        pool.close(graceful=False)
                        raise hung
                    tracer = get_tracer()
                    with tracer.span("train.worker_restart", rank=hung.rank,
                                     attempt=attempts):
                        pool.restart_worker(hung.rank)
                        try:
                            pool.resync(timeout=self.step_timeout_s)
                        except WorkerHungError as again:
                            hung = again  # another rank hung during recovery
                            continue
                    self.step_retries += 1
                    self._retry_counter.inc()
                    break

    def _emit_worker_spans(self, tracer, step_span, replies) -> None:
        """Lay the workers' reported busy windows into the coordinator's trace.

        Workers report ``perf_counter`` timestamps; on every supported
        platform that clock is system-wide, so the child spans line up with
        the coordinator's own timeline.
        """
        if not tracer.enabled or not isinstance(step_span, Span):
            return
        step_span.set_attrs(parallel=True, workers=self.num_workers,
                            accum_steps=self.accum_steps)
        for rank, reply in enumerate(replies):
            child = Span("train.worker", parent=step_span,
                         attrs={"rank": rank, "n": reply["n"],
                                "replayed": bool(reply["replayed"])},
                         start_perf=reply["t_start"])
            tracer.finish_span(child, end_perf=reply["t_end"])

    # -- epochs ------------------------------------------------------------------

    def train_epoch(self, epoch: int = 0, start_batch: int = 0,
                    max_batches: Optional[int] = None) -> EpochResult:
        """Train one epoch over the trainer's ``train_dataset``.

        The coordinator draws the epoch's batches from a
        :class:`~repro.data.datasets.DataLoader` seeded with ``config.seed``
        (``set_epoch(epoch)`` fixes the order) and steps each one exactly as
        :meth:`train_step` does.  ``start_batch`` skips already-consumed
        batches when resuming mid-epoch; ``max_batches`` stops early after
        that many batches (the cursor then stays mid-epoch, the scheduler
        does not advance, and the partial result is not appended to
        :attr:`history` — checkpoint and resume from there).
        """
        if self.train_dataset is None:
            raise ValueError("train_epoch needs the trainer's train_dataset")
        loader = DataLoader(self.train_dataset, batch_size=self.config.batch_size,
                            shuffle=True, drop_last=self.drop_last,
                            seed=self.config.seed)
        loader.set_epoch(epoch)
        num_batches = len(loader)
        stop_at = num_batches if max_batches is None else min(
            num_batches, start_batch + max_batches)
        self.model.train()
        tracer = get_tracer()
        losses: List[float] = []
        accuracies: List[float] = []
        start = time.perf_counter()
        with tracer.span("train.epoch", epoch=epoch, parallel=True) as epoch_span:
            batches = itertools.islice(loader, start_batch, stop_at)
            for step, (data, labels) in enumerate(batches, start=start_batch):
                stats = self.train_step(data, labels)
                losses.append(stats["loss"])
                accuracies.append(stats["accuracy"])
                self.step_loss_history.append(stats["loss"])
                self._cursor = {"epoch": epoch, "batch": step + 1}
            epoch_span.set_attr("batches", len(losses))
        duration = time.perf_counter() - start
        completed = stop_at == num_batches
        result = EpochResult(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
            duration_s=duration,
            learning_rate=self.optimizer.lr,
        )
        if completed:
            if self.scheduler is not None:
                self.scheduler.step()
            self._cursor = {"epoch": epoch + 1, "batch": 0}
            self.history.append(result)
        return result

    def fit(self, train_dataset: Optional[Dataset] = None,
            epochs: Optional[int] = None, verbose: bool = False) -> List[EpochResult]:
        """Train for ``epochs`` epochs, resuming from the cursor when set.

        After :meth:`load_checkpoint`, the first call continues mid-epoch at
        the stored ``(epoch, batch)`` position.
        """
        if train_dataset is not None:
            self.train_dataset = train_dataset
        epochs = epochs if epochs is not None else self.config.epochs
        epoch = self._cursor["epoch"]
        start_batch = self._cursor["batch"]
        while epoch < epochs:
            result = self.train_epoch(epoch, start_batch=start_batch)
            start_batch = 0
            epoch += 1
            if verbose:  # pragma: no cover - cosmetic
                print(f"epoch {epoch}/{epochs}: loss={result.loss:.4f} "
                      f"train_acc={result.accuracy:.3f} ({result.duration_s:.1f}s)")
        return self.history

    # -- checkpoint / resume -----------------------------------------------------

    def save_checkpoint(self, path: str) -> str:
        """Snapshot model + optimizer + scheduler + RNG + shard cursor."""
        return save_training_state(
            path, self.model, self.optimizer, self.scheduler,
            cursor=dict(self._cursor),
            extra={
                "num_workers": self.num_workers,
                "accum_steps": self.accum_steps,
                "num_shards": self.num_workers * self.accum_steps,
                "effective_batch": self.config.batch_size,
                "seed": self.config.seed,
                "history": list(self.history),
            })

    def load_checkpoint(self, path: str) -> Dict[str, object]:
        """Restore a snapshot; the next :meth:`fit` resumes at its cursor.

        Resume is *elastic*: the worker count may differ from the saving
        run's (replicas hold no state).  The loss curve is bit-identical
        when ``num_workers * accum_steps`` (the micro-shard decomposition)
        and the worker count match the original run, and equal to within
        floating-point association otherwise.
        """
        state = load_training_state(path, self.model, self.optimizer,
                                    self.scheduler)
        self._cursor = {"epoch": int(state["cursor"].get("epoch", 0)),
                        "batch": int(state["cursor"].get("batch", 0))}
        self.history = list(state["extra"].get("history", []))
        if self._pool is not None and not self._pool.closed:
            self._pool.sync_weights()
        return state

    # -- stats -------------------------------------------------------------------

    def runtime_stats(self) -> Optional[List[Optional[Dict[str, object]]]]:
        """Per-worker compiled-runtime accounting (``None`` before any step)."""
        if self._pool is None or self._pool.closed:
            return None
        return self._pool.worker_stats()

    def utilization(self) -> Optional[List[float]]:
        """Per-worker busy fractions since the pool spawned."""
        if self._pool is None or self._pool.closed:
            return None
        return self._pool.utilization()
