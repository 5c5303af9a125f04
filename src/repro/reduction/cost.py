"""Cost function guiding the exploration (Section 7).

The paper combines the number of CSC conflicts with the estimated logic
complexity through a designer-chosen weight ``W`` in [0, 1]: ``W -> 0``
biases the search towards removing CSC conflicts, ``W -> 1`` towards
reducing the estimated logic.  Both terms are cheap on purpose -- exact
evaluation (state-signal insertion, decomposition, mapping) at every search
step would dominate the run time.  The estimate mirrors the paper's
observations: fewer reachable states leave a larger don't-care set and so
smaller covers, and ordering one signal after another may grow the support
of its function.

The logic term is the total SOP literal count of the fast covers
(:func:`repro.logic.minimize.expand_and_cover`) of every output and
internal signal, with conflicting codes treated optimistically (as ON-set
minterms); the CSC term counts conflicting state pairs.  The search
measures both, with the state count, on the arc masks of a configuration
(:meth:`repro.reduction.fwdred.ReductionSpace.measure`) and never builds a
graph to score one; this module only weighs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


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


class CostFunction:
    """The weighted cost of Section 7 for one weight ``W``.

    The reduction search measures each configuration once per space
    (:meth:`~repro.reduction.fwdred.ReductionSpace.measure`) and combines
    the terms with :meth:`from_terms`, so sweeps over ``W`` or the
    frontier width re-measure nothing.
    """

    def __init__(self, weight: float = 0.5, csc_scale: float = 20.0) -> None:
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight W must lie in [0, 1]")
        self.weight = weight
        self.csc_scale = csc_scale

    def from_terms(self, terms: Tuple[int, int, int]) -> CostBreakdown:
        """Combine ``(literals, CSC conflict pairs, states)`` under this weight."""
        literals, conflict_pairs, states = terms
        return CostBreakdown(
            logic_literals=literals,
            csc_conflict_pairs=conflict_pairs,
            weight=self.weight,
            csc_scale=self.csc_scale,
            state_count=states,
        )
