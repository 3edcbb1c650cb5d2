"""BPTT trainer for spiking models (dense or TT-converted).

Implements the inner loop of Algorithm 1 (lines 6-18): for every batch, run
all timesteps forward building the autograd graph, compute the cross entropy
of the time-averaged logits (or a custom loss such as TET), backpropagate
through time and update the sub-convolution weights with SGD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.autograd.tensor import no_grad
from repro.data.datasets import ArrayDataset, DataLoader, Dataset, EventDataset
from repro.models.base import SpikingModel
from repro.obs import metrics as _metrics
from repro.obs.trace import event as _span_event
from repro.obs.trace import get_tracer
from repro.optim import SGD, Adam, CosineAnnealingLR
from repro.resilience.errors import NumericFault
from repro.snn.encoding import prepare_batch
from repro.snn.loss import mean_output_cross_entropy
from repro.training.config import TrainingConfig

__all__ = ["EpochResult", "BPTTTrainer", "build_optimizer", "evaluate_accuracy"]


@dataclass
class EpochResult:
    """Statistics of one training epoch."""

    epoch: int
    loss: float
    accuracy: float
    duration_s: float
    learning_rate: float


def build_optimizer(model: SpikingModel, config: TrainingConfig):
    """The ``(optimizer, scheduler)`` pair that ``config`` asks for.

    Adam runs at a constant learning rate (scheduler ``None``); SGD with
    momentum follows a cosine schedule over ``config.schedule_horizon``.
    """
    if config.optimizer.lower() == "adam":
        return Adam(model.parameters(), lr=config.learning_rate,
                    weight_decay=config.weight_decay), None
    optimizer = SGD(model.parameters(), lr=config.learning_rate,
                    momentum=config.momentum, weight_decay=config.weight_decay)
    return optimizer, CosineAnnealingLR(optimizer, t_max=config.schedule_horizon)


def evaluate_accuracy(model: SpikingModel, dataset: Dataset, batch_size: int = 64,
                      timesteps: Optional[int] = None,
                      augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                      step_mode: Optional[str] = None) -> float:
    """Top-1 accuracy of ``model`` on ``dataset`` (no gradients, eval mode).

    Static images without ``augment`` run direct-coded over the model's own
    timesteps (:func:`~repro.snn.encoding.prepare_batch`).
    """
    timesteps = timesteps or model.timesteps
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=False)
    was_training = model.training
    model.eval()
    correct = 0
    total = 0
    try:
        with no_grad():
            for data, labels in loader:
                batch = prepare_batch(data, timesteps, augment)
                predictions = model.predict(batch, step_mode=step_mode)
                correct += int((predictions == labels).sum())
                total += len(labels)
    finally:
        # Restore the caller's mode even if a batch raised mid-evaluation.
        if was_training:
            model.train()
    return correct / max(total, 1)


class BPTTTrainer:
    """Backpropagation-through-time trainer.

    Parameters
    ----------
    model:
        A :class:`~repro.models.base.SpikingModel` (dense baseline or
        TT-converted).
    config:
        Hyper-parameters (:class:`~repro.training.config.TrainingConfig`).
    loss_fn:
        Loss over the list of per-timestep logits; defaults to the paper's
        mean-logit cross entropy, replaceable by
        :class:`~repro.snn.loss.TETLoss` for the Table III TET row.
    augment:
        Optional batch augmentation applied to the ``(T, N, C, H, W)`` input
        (e.g. :class:`~repro.snn.augment.NeuromorphicAugment` for NDA).
        Without one, static ``(N, C, H, W)`` images run direct-coded
        (:meth:`~repro.models.base.SpikingModel.run_images`): the stem
        computes once instead of on ``T`` identical copies.
    compile:
        Opt into the capture/replay runtime (:mod:`repro.runtime`): the first
        step per input signature is captured into an execution plan, every
        later step replays the plan on the new batch — no per-step autograd
        tape, near-zero steady-state allocations — and parameter updates stay
        eager.  A batch-shape (or train-mode/timesteps/step-mode) change
        re-captures automatically.  Replayed steps are numerically equivalent
        to eager ones; ``tests/test_runtime.py`` asserts the equivalence.
    optimize:
        Plan-time graph-optimizer level for the compiled runtime
        (:mod:`repro.runtime.optimizer`): ``"O0"`` replays the captured op
        stream node-for-node, ``"O1"`` (default) drops identity pools —
        value-exact, so losses/gradients/parameters stay *bit-identical* to
        O0 (asserted in ``tests/test_optimizer.py``);
        ``"O2"`` additionally enables the inference-only folds — which a
        training plan does not contain, so O2 training behaves like O1.
        Ignored without ``compile=True``.
    profile:
        Record per-kernel replay timings, surfaced as a top-k hot-op table by
        :func:`repro.metrics.profiler.summarize_runtime`.
    backend:
        Only ``"numpy"`` is accepted: training runs the NumPy reference
        kernels in float32.  Any other name raises :class:`ValueError`.
    guard_numerics:
        Numeric-guard policy (:mod:`repro.resilience`).  A step whose loss or
        gradients are non-finite — or, with ``compile=True``, whose replay
        raised a :class:`~repro.resilience.errors.NumericFault` from a
        non-finite node output — is *skipped* (the parameter update is
        withheld and the step excluded from epoch statistics).  More than
        ``max_skip_steps`` consecutive skips raises a typed
        :class:`~repro.resilience.errors.NumericFault` — persistent bad
        numerics should fail loudly, not silently stall training.
    max_skip_steps:
        Bound on consecutive guard-skipped steps before the trainer raises
        (only meaningful with ``guard_numerics=True``).
    """

    def __init__(
        self,
        model: SpikingModel,
        config: TrainingConfig,
        loss_fn: Optional[Callable] = None,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        compile: bool = False,
        optimize: str = "O1",
        profile: bool = False,
        backend: str = "numpy",
        guard_numerics: bool = False,
        max_skip_steps: int = 3,
    ):
        self.model = model
        self.config = config
        self.loss_fn = loss_fn or mean_output_cross_entropy
        self.augment = augment
        self.compile = bool(compile)
        self.optimize = optimize
        self.profile = bool(profile)
        self.guard_numerics = bool(guard_numerics)
        self.max_skip_steps = int(max_skip_steps)
        self.skipped_steps = 0
        self._consecutive_skips = 0
        from repro.runtime.replay import check_backend

        check_backend(backend)
        self._compiled = None
        self.optimizer, self.scheduler = build_optimizer(model, config)
        self.history: List[EpochResult] = []

    # -- single steps -----------------------------------------------------------

    def train_step(self, data: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
        """One forward+backward+update on a single batch; returns loss/accuracy."""
        tracer = get_tracer()
        with tracer.span("train.step", compiled=self.compile,
                         batch_size=int(np.asarray(data).shape[0])):
            batch = prepare_batch(data, self.config.timesteps, self.augment)
            labels = np.asarray(labels)
            if self.compile:
                return self._compiled_step(batch, labels)
            self.optimizer.zero_grad()
            with tracer.span("train.forward"):
                outputs = self.model.run_batch(batch, step_mode=self.config.step_mode)
                loss = self.loss_fn(outputs, labels)
            with tracer.span("train.backward"):
                loss.backward()
            if self._guard_skip(float(loss.data)):
                return {"loss": float(loss.data), "accuracy": 0.0, "skipped": 1.0}
            with tracer.span("train.optimizer"):
                self.optimizer.step()

            mean_logits = sum(o.data for o in outputs) / len(outputs)
            accuracy = float((np.argmax(mean_logits, axis=1) == labels).mean())
            return {"loss": float(loss.data), "accuracy": accuracy}

    def _guard_skip(self, loss_value: float) -> bool:
        """``True`` → withhold this step's update (non-finite loss or grads).

        Only active under ``guard_numerics``.  The gradients are zeroed so a
        later ``optimizer.step()`` cannot apply the poisoned update, and more
        than ``max_skip_steps`` *consecutive* skips escalates to a typed
        :class:`NumericFault` instead of silently stalling training.
        """
        if not self.guard_numerics:
            return False
        bad = not np.isfinite(loss_value)
        if not bad:
            for param in self.model.parameters():
                grad = param.grad
                if grad is not None and not np.isfinite(grad).all():
                    bad = True
                    break
        if not bad:
            self._consecutive_skips = 0
            return False
        self.skipped_steps += 1
        self._consecutive_skips += 1
        _metrics.counter("repro_train_steps_skipped_total",
                         "Train steps skipped by the numeric guard").inc()
        _span_event("train.step_skipped", loss=loss_value,
                    consecutive=self._consecutive_skips)
        if self._consecutive_skips > self.max_skip_steps:
            raise NumericFault(
                "train.step", -1,
                detail=f"{self._consecutive_skips} consecutive non-finite steps")
        self.optimizer.zero_grad()
        return True

    def _compiled_step(self, batch: np.ndarray, labels: np.ndarray) -> Dict[str, float]:
        """Capture/replay variant of :meth:`train_step` (same contract)."""
        from repro.runtime.replay import CompiledTrainStep

        if self._compiled is None:
            self._compiled = CompiledTrainStep(self.model, self.loss_fn,
                                               step_mode=self.config.step_mode,
                                               optimize=self.optimize,
                                               profile=self.profile,
                                               guard_numerics=self.guard_numerics)
        self.optimizer.zero_grad()
        # The forward+backward span (runtime.replay / capture) is
        # opened inside CompiledTrainStep.run, with per-kernel children when
        # sampling is on; only the eager parameter update is timed here.
        try:
            loss, logits_per_step, replayed = self._compiled.run(batch, labels)
        except NumericFault:
            # A guarded replay stops at the first non-finite node, before
            # backward: the same bad step the eager path sees as a NaN loss.
            loss, replayed = float("nan"), True
        if self._guard_skip(loss):
            return {"loss": loss, "accuracy": 0.0, "replayed": float(replayed),
                    "skipped": 1.0}
        with get_tracer().span("train.optimizer"):
            self.optimizer.step()

        mean_logits = sum(logits_per_step) / len(logits_per_step)
        accuracy = float((np.argmax(mean_logits, axis=1) == labels).mean())
        return {"loss": loss, "accuracy": accuracy, "replayed": float(replayed)}

    def runtime_stats(self) -> Optional[Dict[str, object]]:
        """Capture-vs-replay accounting of the compiled runtime (``None`` if eager)."""
        if self._compiled is None:
            return None
        return self._compiled.runtime_stats()

    # -- epochs ------------------------------------------------------------------

    def train_epoch(self, loader: DataLoader, epoch: int = 0) -> EpochResult:
        """Train one full epoch over ``loader``."""
        self.model.train()
        losses: List[float] = []
        accuracies: List[float] = []
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("train.epoch", epoch=epoch) as epoch_span:
            # Explicit iterator so the time spent *waiting on data* (loader
            # shuffle/stack, prefetch-queue gets) is attributed to its own
            # span, separate from the train.step compute below.
            batches = iter(loader)
            while True:
                with tracer.span("train.data_wait"):
                    try:
                        data, labels = next(batches)
                    except StopIteration:
                        break
                stats = self.train_step(data, labels)
                if stats.get("skipped"):
                    continue  # guard-skipped steps don't pollute epoch stats
                losses.append(stats["loss"])
                accuracies.append(stats["accuracy"])
            epoch_span.set_attr("batches", len(losses))
        duration = time.perf_counter() - start
        if self.scheduler is not None:
            self.scheduler.step()
        result = EpochResult(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
            duration_s=duration,
            learning_rate=self.optimizer.lr,
        )
        self.history.append(result)
        return result

    def fit(self, train_dataset: Dataset, epochs: Optional[int] = None,
            eval_dataset: Optional[Dataset] = None, verbose: bool = False) -> List[EpochResult]:
        """Train for ``epochs`` epochs (default: the config value)."""
        epochs = epochs if epochs is not None else self.config.epochs
        loader = DataLoader(train_dataset, batch_size=self.config.batch_size,
                            shuffle=True, seed=self.config.seed)
        for epoch in range(epochs):
            result = self.train_epoch(loader, epoch=epoch)
            if verbose:  # pragma: no cover - cosmetic
                message = (f"epoch {epoch + 1}/{epochs}: loss={result.loss:.4f} "
                           f"train_acc={result.accuracy:.3f} ({result.duration_s:.1f}s)")
                if eval_dataset is not None:
                    message += f" eval_acc={evaluate_accuracy(self.model, eval_dataset):.3f}"
                print(message)
        return self.history

    def evaluate(self, dataset: Dataset, batch_size: Optional[int] = None) -> float:
        """Top-1 accuracy on ``dataset``."""
        return evaluate_accuracy(self.model, dataset,
                                 batch_size=batch_size or self.config.batch_size,
                                 timesteps=self.config.timesteps,
                                 step_mode=self.config.step_mode)
