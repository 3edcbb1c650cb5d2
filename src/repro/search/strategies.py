"""Search strategies over the entangled supernet.

Every strategy consumes the :class:`~repro.search.searcher.Searcher` facade
(which owns the supernet, the trainer, the validation data and the cost
model) and returns the list of evaluated candidates it explored; the searcher
extracts the Pareto front from that history.  Each candidate is scored with
:meth:`~repro.search.searcher.Searcher.evaluate_config`, one at a time.  Two
strategies are provided:

* :class:`RandomSearch` — uniform sampling; the one-shot baseline and the
  warm-up distribution.
* :class:`EvolutionarySearch` — tournament-free (top-k parent) evolution with
  uniform crossover and per-layer mutation, the standard one-shot NAS
  selector (SPOS-style).

At an equal evaluation budget neither beats the other beyond the seed spread
at quickstart scale (EXPERIMENTS.md, "Search strategies at an equal budget").
"""

from __future__ import annotations

from typing import Dict, List

from repro.search.pareto import ParetoPoint
from repro.search.space import CandidateConfig

__all__ = ["SearchStrategy", "RandomSearch", "EvolutionarySearch"]


class SearchStrategy:
    """Interface: explore the space through a searcher, return what was evaluated."""

    name = "base"

    def search(self, searcher) -> List[ParetoPoint]:  # pragma: no cover - abstract
        raise NotImplementedError


class RandomSearch(SearchStrategy):
    """Evaluate ``num_samples`` uniformly random configurations."""

    name = "random"

    def __init__(self, num_samples: int = 16):
        if num_samples < 1:
            raise ValueError(f"num_samples must be >= 1, got {num_samples}")
        self.num_samples = num_samples

    def search(self, searcher) -> List[ParetoPoint]:
        seen: Dict[tuple, CandidateConfig] = {}
        attempts = 0
        while len(seen) < self.num_samples and attempts < self.num_samples * 10:
            attempts += 1
            config = searcher.space.random_config(searcher.rng)
            seen.setdefault(searcher.space.encode(config), config)
        return [searcher.evaluate_config(config) for config in seen.values()]


class EvolutionarySearch(SearchStrategy):
    """Mutation/crossover evolution over per-layer (format, rank) choices.

    Each generation keeps the ``parents`` fittest candidates (accuracy first,
    cost as tie-break), carries ``elite`` of them over unchanged, and fills
    the population with crossover children mutated at ``mutation_prob`` per
    layer.  All distinct evaluations across generations are returned, so the
    Pareto front benefits from the full exploration history.
    """

    name = "evolution"

    def __init__(self, population_size: int = 8, generations: int = 4,
                 parents: int = 4, elite: int = 2, mutation_prob: float = 0.3):
        if population_size < 2:
            raise ValueError(f"population_size must be >= 2, got {population_size}")
        if generations < 1:
            raise ValueError(f"generations must be >= 1, got {generations}")
        if not 1 <= parents <= population_size:
            raise ValueError(f"parents must lie in [1, {population_size}], got {parents}")
        if not 0 <= elite <= parents:
            raise ValueError(f"elite must lie in [0, {parents}], got {elite}")
        if not 0.0 <= mutation_prob <= 1.0:
            raise ValueError(f"mutation_prob must lie in [0, 1], got {mutation_prob}")
        self.population_size = population_size
        self.generations = generations
        self.parents = parents
        self.elite = elite
        self.mutation_prob = mutation_prob

    def search(self, searcher) -> List[ParetoPoint]:
        space, rng = searcher.space, searcher.rng
        evaluated: Dict[tuple, ParetoPoint] = {}

        def evaluate_generation(configs: List[CandidateConfig]) -> List[ParetoPoint]:
            points = [searcher.evaluate_config(config) for config in configs]
            for config, point in zip(configs, points):
                evaluated[space.encode(config)] = point
            return points

        def fitness(point: ParetoPoint):
            return (-point.accuracy, point.cost.scalar(searcher.cost_metric))

        population = [space.random_config(rng) for _ in range(self.population_size)]
        for _ in range(self.generations):
            ranked = sorted(evaluate_generation(population), key=fitness)
            parents = [point.config for point in ranked[:self.parents]]
            children: List[CandidateConfig] = list(parents[:self.elite])
            while len(children) < self.population_size:
                mother = parents[int(rng.integers(0, len(parents)))]
                father = parents[int(rng.integers(0, len(parents)))]
                child = space.mutate(space.crossover(mother, father, rng), rng,
                                     prob=self.mutation_prob)
                children.append(child)
            population = children
        evaluate_generation(population)
        return list(evaluated.values())
