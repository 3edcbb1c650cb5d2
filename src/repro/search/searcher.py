"""End-to-end one-shot search: warm-up, explore, Pareto-select, materialise, serve.

:class:`Searcher` drives the whole pipeline that replaces the paper's single
VBMF pass:

1. **warm-up** — train the entangled supernet with uniform random
   (format, rank) sampling per step (SPOS-style), through an eager
   :class:`~repro.training.trainer.BPTTTrainer` (per-step sampling would
   capture one compiled plan per distinct configuration).
2. **explore** — delegate to a :class:`~repro.search.strategies.SearchStrategy`
   (random / evolutionary); each candidate is scored in-process by
   :meth:`Searcher.evaluate_config`: validation accuracy of the sampled
   subnet plus the analytic :func:`~repro.search.cost.model_cost`
   (hardware-aware when an accelerator model is given).
3. **select** — extract the accuracy-vs-cost Pareto front and pick a winner
   (:func:`~repro.search.pareto.select_winner`).
4. **materialise** — turn the winning configuration into a standalone
   concrete model (bitwise-equal to the sampled subnet), optionally
   fine-tune it with a compiled trainer (fixed config: one capture, then
   replays), and expose it to :mod:`repro.serve` — its engine answers
   requests like any other trained model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.datasets import DataLoader, Dataset
from repro.hardware.accelerator import ExistingAcceleratorModel
from repro.models.base import SpikingModel
from repro.models.specs import LayerSpec
from repro.obs.trace import get_tracer
from repro.search.cost import COST_METRICS, measured_params, model_cost
from repro.search.pareto import SELECTION_MODES, ParetoPoint, pareto_front, select_winner
from repro.search.space import CandidateConfig, LayerChoice
from repro.search.strategies import EvolutionarySearch, SearchStrategy
from repro.search.supernet import TTSupernet
from repro.training.config import TrainingConfig
from repro.training.trainer import BPTTTrainer, EpochResult, evaluate_accuracy

__all__ = ["SearchConfig", "SearchResult", "Searcher"]


@dataclass
class SearchConfig:
    """Hyper-parameters of one search run (laptop-scale defaults)."""

    #: supernet warm-up epochs with per-step random sampling
    warmup_epochs: int = 1
    #: training batch size (warm-up and fine-tuning)
    batch_size: int = 16
    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    #: batch size used when evaluating sampled subnets on the validation set
    eval_batch_size: int = 64
    #: Pareto cost axis: ``"params"``, ``"macs"`` or ``"energy_pj"``
    cost_metric: str = "macs"
    #: HTT half-path timesteps for the cost model (default ``timesteps // 2``)
    half_timesteps: Optional[int] = None
    #: winner selection mode (see :func:`repro.search.pareto.select_winner`)
    selection: str = "knee"
    cost_budget: Optional[float] = None
    #: fine-tuning epochs for the materialised winner (0 skips fine-tuning)
    finetune_epochs: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.warmup_epochs < 0:
            raise ValueError("warmup_epochs must be >= 0")
        if self.finetune_epochs < 0:
            raise ValueError("finetune_epochs must be >= 0")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"unknown selection mode {self.selection!r}; "
                             f"options: {SELECTION_MODES}")
        if self.cost_metric not in COST_METRICS:
            raise ValueError(f"unknown cost metric {self.cost_metric!r}; "
                             f"options: {COST_METRICS}")
        if self.selection == "budget" and self.cost_budget is None:
            raise ValueError("selection='budget' needs a cost_budget")


@dataclass
class SearchResult:
    """Everything :meth:`Searcher.run` produces."""

    front: List[ParetoPoint]
    evaluated: List[ParetoPoint]
    winner: ParetoPoint
    model: SpikingModel
    supernet: TTSupernet
    warmup_history: List[EpochResult] = field(default_factory=list)
    finetune_history: List[EpochResult] = field(default_factory=list)

    @property
    def winner_config(self) -> CandidateConfig:
        return self.winner.config

    def engine(self, **engine_kwargs):
        """:class:`~repro.serve.engine.InferenceEngine` of the winner.

        By default the engine serves the winner's TT cores.  With
        ``merge=True`` it merges them per Eq. 6, which is exact for
        dense/STT/PTT layers (and for strided layers, thanks to the
        supernet's ``stride_mode="last"`` default); an HTT layer with half
        timesteps refuses the merge (:class:`ValueError`).
        """
        from repro.serve.engine import InferenceEngine

        return InferenceEngine(self.model, **engine_kwargs)

    def publish(self, server, name: str, warmup_sample=None, **register_kwargs):
        """Register the winner on a :class:`~repro.serve.server.InferenceServer`."""
        return server.register(name, self.model, warmup_sample=warmup_sample,
                               **register_kwargs)

    def summary(self) -> Dict[str, object]:
        return {
            "evaluated": len(self.evaluated),
            "front_size": len(self.front),
            "winner": [choice.encode() for choice in self.winner.config],
            "winner_accuracy": self.winner.accuracy,
            "winner_cost": self.winner.cost.as_dict(),
            "winner_measured_params": measured_params(self.model),
        }


class Searcher:
    """Drive warm-up, candidate exploration and winner deployment.

    Parameters
    ----------
    supernet:
        The entangled :class:`~repro.search.supernet.TTSupernet`.
    train_dataset, val_dataset:
        Supernet training data and the held-out set candidates are scored on.
    specs:
        Layer specifications of the target architecture
        (:func:`repro.models.specs.model_layer_specs`); the cost model is
        analytic, so paper-scale specs are the usual choice even when the
        supernet itself is width-scaled.  The decomposable-layer count must
        match the search space.
    config:
        :class:`SearchConfig` (defaults are laptop-scale).
    strategy:
        A :class:`~repro.search.strategies.SearchStrategy`; defaults to
        :class:`~repro.search.strategies.EvolutionarySearch`.
    accelerator:
        Optional hardware model (e.g.
        :class:`~repro.hardware.accelerator.ExistingAcceleratorModel` or the
        multi-cluster design); enables the ``"energy_pj"`` cost axis.
    """

    def __init__(
        self,
        supernet: TTSupernet,
        train_dataset: Dataset,
        val_dataset: Dataset,
        specs: Sequence[LayerSpec],
        config: Optional[SearchConfig] = None,
        strategy: Optional[SearchStrategy] = None,
        accelerator: Optional[ExistingAcceleratorModel] = None,
    ):
        self.supernet = supernet
        self.train_dataset = train_dataset
        self.val_dataset = val_dataset
        self.specs = list(specs)
        self.config = config or SearchConfig()
        self.strategy = strategy or EvolutionarySearch()
        self.accelerator = accelerator
        self.rng = np.random.default_rng(self.config.seed)

        decomposable = sum(1 for s in self.specs
                           if s.kind == "conv" and s.decomposable)
        if decomposable != len(supernet.space):
            raise ValueError(
                f"spec list has {decomposable} decomposable layers but the search "
                f"space has {len(supernet.space)} — pass specs of the supernet's "
                f"architecture (repro.models.specs.model_layer_specs)"
            )
        if self.config.cost_metric == "energy_pj" and accelerator is None:
            raise ValueError("cost_metric='energy_pj' needs an accelerator model")

        self.timesteps = supernet.timesteps
        # HTT candidates are costed with the schedule the supernet actually
        # executes (all entangled layers share one schedule); an explicit
        # config value still overrides.
        if self.config.half_timesteps is not None:
            self.half_timesteps = self.config.half_timesteps
        else:
            self.half_timesteps = sum(supernet.layers()[0].schedule)
        training = TrainingConfig(
            timesteps=self.timesteps,
            epochs=max(1, self.config.warmup_epochs),
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            seed=self.config.seed,
        )
        self.trainer = BPTTTrainer(self.supernet, training)
        self._eval_cache: Dict[tuple, ParetoPoint] = {}

    @property
    def space(self):
        return self.supernet.space

    @property
    def cost_metric(self) -> str:
        return self.config.cost_metric

    # -- pipeline stages -----------------------------------------------------

    def warmup(self) -> List[EpochResult]:
        """Train the supernet with uniform random per-step (format, rank) sampling."""
        history: List[EpochResult] = []
        loader = DataLoader(self.train_dataset, batch_size=self.config.batch_size,
                            shuffle=True, seed=self.config.seed)
        for epoch in range(self.config.warmup_epochs):
            self.supernet.train()
            losses: List[float] = []
            accuracies: List[float] = []
            start = time.perf_counter()
            for data, labels in loader:
                self.supernet.sample_random(self.rng)
                stats = self.trainer.train_step(data, labels)
                losses.append(stats["loss"])
                accuracies.append(stats["accuracy"])
            history.append(EpochResult(
                epoch=epoch,
                loss=float(np.mean(losses)) if losses else float("nan"),
                accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
                duration_s=time.perf_counter() - start,
                learning_rate=self.trainer.optimizer.lr,
            ))
        return history

    def evaluate_config(self, config: Sequence[LayerChoice]) -> ParetoPoint:
        """Score one candidate: sampled-subnet accuracy plus analytic cost (cached)."""
        config = self.space.validate_config(config)
        key = self.space.encode(config)
        cached = self._eval_cache.get(key)
        with get_tracer().span("search.candidate", config=str(key),
                               cached=cached is not None) as sp:
            if cached is not None:
                return cached
            self.supernet.apply_config(config)
            accuracy = evaluate_accuracy(
                self.supernet, self.val_dataset,
                batch_size=self.config.eval_batch_size, timesteps=self.timesteps,
            )
            cost = model_cost(
                config, self.specs, timesteps=self.timesteps,
                half_timesteps=self.half_timesteps, accelerator=self.accelerator,
            )
            point = ParetoPoint(config=config, accuracy=accuracy, cost=cost)
            sp.set_attrs(accuracy=accuracy, cost=cost)
            self._eval_cache[key] = point
            return point

    def finetune(self, model: SpikingModel) -> List[EpochResult]:
        """Fine-tune a materialised winner on the training set."""
        if self.config.finetune_epochs < 1:
            return []
        training = TrainingConfig(
            timesteps=self.timesteps,
            epochs=self.config.finetune_epochs,
            batch_size=self.config.batch_size,
            learning_rate=self.config.learning_rate,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
            seed=self.config.seed,
        )
        trainer = BPTTTrainer(model, training, compile=True)
        return trainer.fit(self.train_dataset)

    def run(self) -> SearchResult:
        """Full pipeline; see the module docstring for the stages."""
        warmup_history = self.warmup()
        evaluated = self.strategy.search(self)
        if not evaluated:
            raise RuntimeError(f"strategy '{self.strategy.name}' evaluated no candidates")
        front = pareto_front(evaluated, metric=self.config.cost_metric)
        winner = select_winner(front, mode=self.config.selection,
                               metric=self.config.cost_metric,
                               budget=self.config.cost_budget)
        model = self.supernet.materialise(winner.config)
        finetune_history = self.finetune(model)
        return SearchResult(
            front=front,
            evaluated=list(evaluated),
            winner=winner,
            model=model,
            supernet=self.supernet,
            warmup_history=warmup_history,
            finetune_history=finetune_history,
        )
