"""Accuracy-vs-cost Pareto front extraction and winner selection.

Candidates maximise accuracy and minimise one cost scalar (parameters, MACs
or simulated energy — :class:`~repro.search.cost.CandidateCost`).  A
candidate *dominates* another when it is at least as good on both objectives
and strictly better on one; the front is the set of non-dominated candidates,
returned sorted by ascending cost so it reads as a trade-off curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.search.cost import CandidateCost
from repro.search.space import LayerChoice

__all__ = ["SELECTION_MODES", "ParetoPoint", "dominates", "pareto_front", "select_winner"]

#: Winner-selection modes accepted by :func:`select_winner`.
SELECTION_MODES: Tuple[str, ...] = ("knee", "accuracy", "cost", "budget")


@dataclass
class ParetoPoint:
    """One evaluated candidate: configuration, accuracy and cost."""

    config: Tuple[LayerChoice, ...]
    accuracy: float
    cost: CandidateCost
    metadata: Dict[str, object] = field(default_factory=dict)

    def objectives(self, metric: str = "macs") -> Tuple[float, float]:
        """(accuracy, cost) pair used for dominance checks."""
        return (self.accuracy, self.cost.scalar(metric))

    def summary(self, metric: str = "macs") -> Dict[str, float]:
        out = {"accuracy": self.accuracy}
        out.update(self.cost.as_dict())
        out["cost"] = self.cost.scalar(metric)
        return out


def dominates(a: ParetoPoint, b: ParetoPoint, metric: str = "macs") -> bool:
    """Whether ``a`` Pareto-dominates ``b`` (>= accuracy, <= cost, one strict)."""
    acc_a, cost_a = a.objectives(metric)
    acc_b, cost_b = b.objectives(metric)
    if acc_a < acc_b or cost_a > cost_b:
        return False
    return acc_a > acc_b or cost_a < cost_b


def _dedup(points: Sequence[ParetoPoint]) -> List[ParetoPoint]:
    """Collapse duplicate configurations, keeping the best-accuracy record."""
    best: Dict[tuple, ParetoPoint] = {}
    for point in points:
        key = tuple(choice.encode() for choice in point.config)
        if key not in best or point.accuracy > best[key].accuracy:
            best[key] = point
    return list(best.values())


def pareto_front(points: Sequence[ParetoPoint], metric: str = "macs") -> List[ParetoPoint]:
    """Non-dominated subset of ``points``, sorted by ascending cost.

    Duplicate configurations are collapsed first (keeping the best accuracy),
    so re-evaluations cannot crowd the front.
    """
    unique = _dedup(points)
    front = [
        p for p in unique
        if not any(dominates(q, p, metric) for q in unique if q is not p)
    ]
    return sorted(front, key=lambda p: (p.cost.scalar(metric), -p.accuracy))


def select_winner(
    front: Sequence[ParetoPoint],
    mode: str = "knee",
    metric: str = "macs",
    budget: Optional[float] = None,
) -> ParetoPoint:
    """Pick one deployment configuration from a Pareto front.

    Modes
    -----
    ``"accuracy"``
        Highest accuracy (ties broken by lower cost).
    ``"cost"``
        Lowest cost (ties broken by higher accuracy).
    ``"budget"``
        Highest accuracy whose cost is within ``budget``; falls back to the
        cheapest point when nothing fits.
    ``"knee"``
        The point with maximal perpendicular distance above the chord from
        the cheapest to the most accurate front point — the classic
        best-bang-for-the-buck trade-off.  Degenerate fronts (fewer than
        three points, or zero accuracy/cost spread) fall back to
        ``"accuracy"``.
    """
    if mode not in SELECTION_MODES:
        raise ValueError(f"unknown selection mode {mode!r}; options: {SELECTION_MODES}")
    if not front:
        raise ValueError("cannot select a winner from an empty Pareto front")
    points = sorted(front, key=lambda p: (p.cost.scalar(metric), -p.accuracy))
    if mode == "cost":
        return points[0]
    if mode == "accuracy":
        return max(points, key=lambda p: (p.accuracy, -p.cost.scalar(metric)))
    if mode == "budget":
        if budget is None:
            raise ValueError("mode='budget' needs a cost budget")
        affordable = [p for p in points if p.cost.scalar(metric) <= budget]
        if not affordable:
            return points[0]
        return max(affordable, key=lambda p: (p.accuracy, -p.cost.scalar(metric)))

    costs = [p.cost.scalar(metric) for p in points]
    accs = [p.accuracy for p in points]
    cost_span = max(costs) - min(costs)
    acc_span = max(accs) - min(accs)
    if len(points) < 3 or cost_span <= 0 or acc_span <= 0:
        return max(points, key=lambda p: (p.accuracy, -p.cost.scalar(metric)))
    # Normalised chord from (cheapest) to (most accurate); the knee is the
    # point farthest above it.
    x = [(c - min(costs)) / cost_span for c in costs]
    y = [(a - min(accs)) / acc_span for a in accs]
    x0, y0 = x[0], y[0]
    x1, y1 = x[-1], y[-1]
    best_index, best_distance = 0, float("-inf")
    for index in range(len(points)):
        # Signed distance to the chord (positive = above the line).
        distance = (x1 - x0) * (y[index] - y0) - (y1 - y0) * (x[index] - x0)
        if distance > best_distance:
            best_index, best_distance = index, distance
    return points[best_index]
