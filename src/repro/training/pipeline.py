"""The full TT-SNN training pipeline (Algorithm 1 of the paper).

End to end:

1. build (or receive) the dense baseline SNN,
2. estimate TT-ranks with VBMF on the dense weights (line 2),
3. replace every decomposable convolution by an STT / PTT / HTT module whose
   cores are initialised by TT-decomposing the dense weights (lines 3-5),
4. train with BPTT and surrogate gradients (lines 6-18),
5. merge the trained TT cores back into dense kernels for spike-driven
   inference (lines 19-22, Eq. 6).

:class:`TTSNNPipeline` packages those stages and records the efficiency
metrics (parameters, FLOPs, training-step time) alongside accuracy so that
one call produces a full Table II row.  The result also carries a
ready-to-serve :class:`~repro.serve.engine.InferenceEngine` snapshot, so
``pipeline.run(...)`` hands deployment (:mod:`repro.serve`) an eval-mode
model without any extra plumbing: merged if stage 5 ran, TT cores otherwise.
Stage 5 refuses an HTT model whose schedule has half timesteps
(:func:`repro.tt.reconstruct.merge_tt_layer`); run it with
``merge_after_training=False``.  :meth:`TTSNNPipeline.run` checks that
right after the build, so such a run fails before it trains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.data.datasets import Dataset
from repro.metrics.params import count_parameters
from repro.metrics.profiler import time_training_step
from repro.models.base import SpikingModel
from repro.models.builder import convert_to_tt, count_tt_layers
from repro.snn.loss import mean_output_cross_entropy
from repro.serve.engine import InferenceEngine
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer, evaluate_accuracy
from repro.tt.reconstruct import check_mergeable, merge_model

__all__ = ["PipelineResult", "TTSNNPipeline"]


@dataclass
class PipelineResult:
    """Everything one pipeline run produces (one row of Table II).

    ``serving_engine`` is an eval-mode
    :class:`~repro.serve.engine.InferenceEngine` snapshot of the trained
    model — register it with a :class:`~repro.serve.server.InferenceServer`
    (or :class:`~repro.serve.registry.ModelRegistry`) to start serving.
    """

    method: str
    accuracy: float
    parameters: int
    training_step_time_s: float
    epochs_trained: int
    tt_layers: int
    merged_layers: int = 0
    history: List = field(default_factory=list)
    serving_engine: Optional["InferenceEngine"] = None

    def as_dict(self) -> Dict[str, float]:
        return {
            "method": self.method,
            "accuracy": self.accuracy,
            "parameters_M": self.parameters / 1e6,
            "training_step_time_s": self.training_step_time_s,
            "tt_layers": self.tt_layers,
            "merged_layers": self.merged_layers,
        }


class TTSNNPipeline:
    """Algorithm-1 pipeline: decompose -> train -> merge.

    Parameters
    ----------
    model_factory:
        Zero-argument callable building a *fresh dense* spiking model (so the
        baseline and every TT variant start from identical topology).
    config:
        Training configuration; ``config.tt_variant`` selects the method
        (``None`` = dense baseline) and ``config.tt_rank`` the rank policy
        (``"vbmf"`` reproduces the paper's automatic rank selection).
    loss_fn, augment:
        Forwarded to :class:`~repro.training.trainer.BPTTTrainer`.
    """

    def __init__(
        self,
        model_factory: Callable[[], SpikingModel],
        config: TrainingConfig,
        loss_fn: Optional[Callable] = None,
        augment: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ):
        self.model_factory = model_factory
        self.config = config
        self.loss_fn = loss_fn
        self.augment = augment
        self.model: Optional[SpikingModel] = None
        self.trainer: Optional[BPTTTrainer] = None
        self.replaced_layers: List[str] = []

    # -- stage 1-3: build + decompose ------------------------------------------

    def build(self) -> SpikingModel:
        """Instantiate the model and (for TT variants) apply the decomposition."""
        rng = np.random.default_rng(self.config.seed)
        model = self.model_factory()
        if self.config.tt_variant is not None:
            self.replaced_layers = convert_to_tt(
                model,
                variant=self.config.tt_variant,
                rank=self.config.tt_rank,
                timesteps=self.config.timesteps,
                schedule=self.config.htt_schedule,
                decompose_weights=True,
                rng=rng,
            )
        self.model = model
        self.trainer = BPTTTrainer(model, self.config, loss_fn=self.loss_fn, augment=self.augment)
        return model

    # -- stage 4: train ----------------------------------------------------------

    def train(self, train_dataset: Dataset, epochs: Optional[int] = None,
              eval_dataset: Optional[Dataset] = None, verbose: bool = False):
        """Train the (decomposed) model with BPTT."""
        if self.trainer is None:
            self.build()
        return self.trainer.fit(train_dataset, epochs=epochs, eval_dataset=eval_dataset,
                                verbose=verbose)

    # -- stage 5: merge ----------------------------------------------------------

    def merge(self) -> int:
        """Merge TT cores back into dense kernels (Eq. 6); returns layers merged."""
        if self.model is None:
            raise RuntimeError("build() must run before merge()")
        return merge_model(self.model)

    # -- stage 6: serve ----------------------------------------------------------

    def serve(self) -> InferenceEngine:
        """Snapshot the current model into a ready-to-serve inference engine.

        The engine deep-copies the model and freezes it in ``eval()`` mode,
        so serving never disturbs further training on the pipeline's own
        instance.  TT layers that :meth:`merge` did not merge serve as TT
        cores (the engine's default).
        """
        if self.model is None:
            raise RuntimeError("build() must run before serve()")
        return InferenceEngine(self.model)

    # -- one-shot run -------------------------------------------------------------

    def run(
        self,
        train_dataset: Dataset,
        eval_dataset: Optional[Dataset] = None,
        epochs: Optional[int] = None,
        profile_batch: Optional[Dict[str, np.ndarray]] = None,
        merge_after_training: bool = True,
        build_serving_engine: bool = True,
        verbose: bool = False,
    ) -> PipelineResult:
        """Run the whole pipeline and collect a Table-II-style result row.

        ``profile_batch`` (optional) is a dict with ``"inputs"`` shaped
        ``(T, N, C, H, W)`` and ``"labels"`` used to time one training step;
        when omitted the timing column is skipped (reported as 0).

        ``build_serving_engine`` controls whether the result carries a
        ready-to-serve :class:`~repro.serve.engine.InferenceEngine` snapshot
        (a deep copy of the trained model); pass ``False`` for sweeps that
        keep many results alive and never serve them — ``pipeline.serve()``
        snapshots on demand later.
        """
        model = self.build()
        merge = merge_after_training and self.config.tt_variant is not None
        if merge:
            # A merge that stage 5 would refuse fails here, before any epoch.
            check_mergeable(model)
        tt_layers = count_tt_layers(model)
        history = self.train(train_dataset, epochs=epochs, eval_dataset=eval_dataset,
                             verbose=verbose)

        step_time = 0.0
        if profile_batch is not None:
            step_time = time_training_step(model, profile_batch["inputs"],
                                           profile_batch["labels"], repeats=3, warmup=1,
                                           loss_fn=self.loss_fn or mean_output_cross_entropy)

        parameters = count_parameters(model)
        eval_set = eval_dataset if eval_dataset is not None else train_dataset
        accuracy = evaluate_accuracy(model, eval_set, batch_size=self.config.batch_size,
                                     timesteps=self.config.timesteps)

        merged = self.merge() if merge else 0

        method = self.config.tt_variant or "baseline"
        return PipelineResult(
            method=method,
            accuracy=accuracy,
            parameters=parameters,
            training_step_time_s=step_time,
            epochs_trained=len(history),
            tt_layers=tt_layers,
            merged_layers=merged,
            history=history,
            serving_engine=self.serve() if build_serving_engine else None,
        )
