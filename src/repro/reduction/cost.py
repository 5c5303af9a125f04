"""Cost function guiding the exploration (Section 7).

The paper combines the number of CSC conflicts with the estimated logic
complexity through a designer-chosen weight ``W`` in [0, 1]: ``W -> 0``
biases the search towards removing CSC conflicts, ``W -> 1`` towards
reducing the estimated logic.  Both terms are cheap on purpose -- exact
evaluation (state-signal insertion, decomposition, mapping) at every search
step would dominate the run time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Optional, Tuple

from .. import engine
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


#: Weight-independent cost terms keyed by (graph signature, exact_covers):
#: (literal estimate, CSC conflict pairs, state count).  Shared globally so
#: sweeps over ``W`` or the frontier width re-measure nothing; a signature
#: read freezes its graph, so a key always describes the graph it came from.
_TERM_MEMO: Dict[Tuple[FrozenSet, bool], Tuple[int, int, int]] = (
    engine.register_cache({}, name="reduction-cost"))


def _measured_terms(sg: StateGraph, signature: FrozenSet,
                    exact_covers: bool) -> Tuple[int, int, int]:
    key = (signature, exact_covers)
    cached = _TERM_MEMO.get(key) if engine.packed_memo_enabled() else None
    if cached is None:
        estimate = estimate_logic_complexity(sg, exact=exact_covers)
        cached = (estimate.literals, len(csc_conflicts(sg)), len(sg))
        if engine.packed_memo_enabled():
            if len(_TERM_MEMO) > 100_000:
                _TERM_MEMO.clear()
            _TERM_MEMO[key] = cached
    return cached


class CostFunction:
    """Callable cost with memoisation keyed by the SG's signature.

    The signature comes from :meth:`StateGraph.signature`, computed once
    per (frozen) graph, so repeated evaluations of the same configuration
    (beam survivors, heap re-pops) cost one dict lookup.
    """

    def __init__(self, weight: float = 0.5, csc_scale: float = 20.0,
                 exact_covers: bool = False) -> None:
        if not 0.0 <= weight <= 1.0:
            raise ValueError("weight W must lie in [0, 1]")
        self.weight = weight
        self.csc_scale = csc_scale
        self.exact_covers = exact_covers
        self._cache: Dict[frozenset, CostBreakdown] = {}

    def breakdown(self, sg: StateGraph) -> CostBreakdown:
        signature = sg.signature()
        cached = self._cache.get(signature)
        if cached is not None:
            return cached
        literals, conflict_pairs, states = _measured_terms(
            sg, signature, self.exact_covers)
        result = CostBreakdown(
            logic_literals=literals,
            csc_conflict_pairs=conflict_pairs,
            weight=self.weight,
            csc_scale=self.csc_scale,
            state_count=states,
        )
        self._cache[signature] = result
        return result

    def __call__(self, sg: StateGraph) -> float:
        return self.breakdown(sg).value
