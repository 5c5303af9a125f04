"""Cost function guiding the exploration (Section 7).

The paper combines the number of CSC conflicts with the estimated logic
complexity through a designer-chosen weight ``W`` in [0, 1]: ``W -> 0``
biases the search towards removing CSC conflicts, ``W -> 1`` towards
reducing the estimated logic.  Both terms are cheap on purpose -- exact
evaluation (state-signal insertion, decomposition, mapping) at every search
step would dominate the run time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..logic.complexity import estimate_logic_complexity
from ..sg.graph import StateGraph
from ..sg.properties import csc_conflicts


@dataclass(frozen=True)
class CostBreakdown:
    """The two terms of the heuristic cost and their combination."""

    logic_literals: int
    csc_conflict_pairs: int
    weight: float
    csc_scale: float
    state_count: int

    @property
    def value(self) -> float:
        logic_term = self.weight * self.logic_literals
        csc_term = (1.0 - self.weight) * self.csc_scale * self.csc_conflict_pairs
        # Tiny pressure towards smaller SGs breaks ties deterministically in
        # favour of less concurrency (larger don't-care sets downstream).
        return logic_term + csc_term + 1e-3 * self.state_count


def measure_terms(sg: StateGraph, exact_covers: bool) -> Tuple[int, int, int]:
    """The weight-independent cost terms of ``sg``.

    ``(literal estimate, CSC conflict pairs, state count)``; the reduction
    search keeps them per configuration in its
    :class:`~repro.reduction.fwdred.ReductionSpace`, so sweeps over ``W``
    or the frontier width re-measure nothing.
    """
    estimate = estimate_logic_complexity(sg, exact=exact_covers)
    return estimate.literals, len(csc_conflicts(sg)), len(sg)


class CostFunction:
    """The weighted cost of Section 7 for one weight ``W``.

    The reduction search never calls it on a graph: it measures each
    configuration once (:func:`measure_terms`) and combines the terms with
    :meth:`from_terms`.  :meth:`breakdown` and calls on a graph measure it
    afresh each time.
    """

    def __init__(self, weight: float = 0.5, csc_scale: float = 20.0,
                 exact_covers: bool = False) -> None:
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight W must lie in [0, 1]")
        self.weight = weight
        self.csc_scale = csc_scale
        self.exact_covers = exact_covers

    def from_terms(self, terms: Tuple[int, int, int]) -> CostBreakdown:
        """Combine :func:`measure_terms` output under this weight."""
        literals, conflict_pairs, states = terms
        return CostBreakdown(
            logic_literals=literals,
            csc_conflict_pairs=conflict_pairs,
            weight=self.weight,
            csc_scale=self.csc_scale,
            state_count=states,
        )

    def breakdown(self, sg: StateGraph) -> CostBreakdown:
        return self.from_terms(measure_terms(sg, self.exact_covers))

    def __call__(self, sg: StateGraph) -> float:
        return self.breakdown(sg).value
