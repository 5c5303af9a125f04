"""Graph-based cost measurement: the reference for the mask scoring.

The reduction search measures its cost terms on a configuration's arc
masks (:meth:`repro.reduction.fwdred.ReductionSpace.measure`).  This
module keeps the derivation on a built :class:`StateGraph` -- next-state
extraction, one fast cover per signal, :func:`csc_conflicts` -- so the
tests can check the masks against an independent route to the same
numbers.  Its fast cover, :func:`minimize_fast_ints`, numbers
``sorted(ON | OFF)`` per call and keeps no memo.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.logic.functions import extract_all_functions
from repro.logic.minimize import (MinimizationError, PackedCube, code_columns,
                                  expand_and_cover)
from repro.reduction.cost import CostBreakdown, CostFunction
from repro.sg.graph import StateGraph
from repro.sg.properties import csc_conflicts


def minimize_fast_ints(num_vars: int, on_ints: FrozenSet[int],
                       off_ints: FrozenSet[int]) -> Tuple[PackedCube, ...]:
    """Fast cover over integer-packed minterms, as packed ``(mask, value)``
    cubes.

    Numbers ``sorted(on | off)`` and runs :func:`expand_and_cover` on it,
    for callers that already hold packed state codes.
    """
    codes = sorted(on_ints | off_ints)
    if len(codes) != len(on_ints) + len(off_ints):
        raise MinimizationError("ON and OFF sets overlap")
    on = sum(1 << position for position, code in enumerate(codes)
             if code in on_ints)
    return expand_and_cover(codes, code_columns(num_vars, codes), on,
                            ((1 << len(codes)) - 1) ^ on)


def fast_literal_count(num_vars: int, on_ints: FrozenSet[int],
                       off_ints: FrozenSet[int]) -> int:
    """Literal count of the fast cover; 0 for a constant function."""
    if not on_ints or not off_ints:
        return 0
    return sum(mask.bit_count()
               for mask, _ in minimize_fast_ints(num_vars, on_ints, off_ints))


@dataclass(frozen=True)
class ComplexityEstimate:
    """Breakdown of the heuristic complexity of an SG's logic."""

    literals: int
    csc_conflict_codes: int
    per_signal_literals: Dict[str, int]


def estimate_logic_complexity(sg: StateGraph, exact: bool = False,
                              fast: bool = True) -> ComplexityEstimate:
    """Literal count of every non-input signal, conflicts counted as ON.

    ``fast=True`` (the default) uses the heuristic expand-and-cover
    minimizer; pass ``fast=False, exact=True`` for exact-core counts.
    """
    per_signal: Dict[str, int] = {}
    conflict_codes = 0
    for signal, function in extract_all_functions(sg).items():
        if fast and not exact:
            per_signal[signal] = fast_literal_count(
                function.num_vars, function.resolved_on(),
                function.off_ints)
        else:
            cover = function.minimized(exact=exact)
            per_signal[signal] = cover.literal_count
        conflict_codes += len(function.conflict_ints)
    return ComplexityEstimate(
        literals=sum(per_signal.values()),
        csc_conflict_codes=conflict_codes,
        per_signal_literals=per_signal,
    )


def measure_terms(sg: StateGraph) -> Tuple[int, int, int]:
    """``(literal estimate, CSC conflict pairs, state count)`` of ``sg``."""
    return (estimate_logic_complexity(sg).literals, len(csc_conflicts(sg)),
            len(sg))


def breakdown(cost: CostFunction, sg: StateGraph) -> CostBreakdown:
    """``cost``'s weighing of the terms measured on ``sg``."""
    return cost.from_terms(measure_terms(sg))
