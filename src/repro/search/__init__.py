"""One-shot TT-rank/format search with hardware-aware Pareto selection.

The paper fixes one decomposition format for the whole network and one
offline VBMF rank per layer; this subsystem *searches* both, per layer,
without training each candidate from scratch:

:mod:`repro.search.space`
    The per-layer search space: format in ``{dense, stt, ptt, htt}`` and
    rank from a divisor-friendly grid, plus config sampling / mutation /
    crossover operators.
:mod:`repro.search.supernet`
    TangleNAS-style weight entanglement over TT cores — a rank-``r`` core is
    a leading slice of the shared rank-``R`` core, and all formats are
    wirings of the same four cores — so one supernet trains every choice.
:mod:`repro.search.strategies`
    Random sampling and evolutionary search over the supernet; each
    candidate is scored in-process on the validation set.
:mod:`repro.search.cost`
    The shared ``model_cost()`` helper: analytic parameters/MACs
    (:mod:`repro.metrics`) plus simulated training energy on an accelerator
    model (:mod:`repro.hardware`).
:mod:`repro.search.pareto`
    Accuracy-vs-cost Pareto front extraction and winner selection
    (knee / best-accuracy / lowest-cost / cost-budget).
:mod:`repro.search.searcher`
    The end-to-end :class:`~repro.search.searcher.Searcher`: warm-up,
    explore, select, materialise the winner into a concrete model and hand
    it to :mod:`repro.serve`.
"""

from repro.search.space import (
    FORMATS,
    TT_FORMATS,
    LayerChoice,
    LayerSearchSpace,
    SearchSpace,
)
from repro.search.supernet import EntangledTTConv2d, TTSupernet
from repro.search.cost import CandidateCost, measured_params, mixed_format_energy, model_cost
from repro.search.pareto import ParetoPoint, dominates, pareto_front, select_winner
from repro.search.strategies import (
    EvolutionarySearch,
    RandomSearch,
    SearchStrategy,
)
from repro.search.searcher import SearchConfig, SearchResult, Searcher

__all__ = [
    "FORMATS",
    "TT_FORMATS",
    "LayerChoice",
    "LayerSearchSpace",
    "SearchSpace",
    "EntangledTTConv2d",
    "TTSupernet",
    "CandidateCost",
    "model_cost",
    "mixed_format_energy",
    "measured_params",
    "ParetoPoint",
    "dominates",
    "pareto_front",
    "select_winner",
    "SearchStrategy",
    "RandomSearch",
    "EvolutionarySearch",
    "SearchConfig",
    "SearchResult",
    "Searcher",
]
