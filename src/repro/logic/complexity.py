"""Heuristic logic-complexity estimation.

Section 7 of the paper motivates a cheap cost function: exact cost (state
signal insertion + decomposition + technology mapping) is too expensive to
evaluate at every step of the exploration.  The estimator here mirrors the
paper's observations:

* fewer reachable states -> larger don't-care set -> smaller covers;
* fewer CSC conflicts -> less state-signal logic later;
* ordering one signal after another may *grow* the support of its function.

The estimate is the total SOP literal count over all non-input signals, with
conflicting codes treated optimistically (as ON-set minterms).  The CSC
conflicts are weighed separately, by the reduction's cost function
(:mod:`repro.reduction.cost`).

The fast path never leaves the packed-integer representation: extraction
yields int minterm sets, and the literal count comes from the memoized fast
minimizer (:func:`repro.logic.minimize.fast_literal_count`), so sibling SGs
in the exploration sharing a signal's (ON, OFF) sets hit the cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..sg.graph import StateGraph
from .functions import extract_all_functions
from .minimize import fast_literal_count


@dataclass(frozen=True)
class ComplexityEstimate:
    """Breakdown of the heuristic complexity of an SG's logic."""

    literals: int
    csc_conflict_codes: int
    per_signal_literals: Dict[str, int]


def estimate_logic_complexity(sg: StateGraph, exact: bool = False,
                              fast: bool = True) -> ComplexityEstimate:
    """Estimate implementation complexity of every non-input signal.

    ``fast=True`` (the default) uses the heuristic expand-and-cover
    minimizer; pass ``fast=False, exact=True`` for exact-core counts.
    """
    per_signal: Dict[str, int] = {}
    conflict_codes = 0
    for signal, function in extract_all_functions(sg).items():
        if fast and not exact:
            per_signal[signal] = fast_literal_count(
                function.num_vars, function.resolved_on("on"),
                function.off_ints)
        else:
            cover = function.minimized(exact=exact, conflict_policy="on")
            per_signal[signal] = cover.literal_count
        conflict_codes += len(function.conflict_ints)
    return ComplexityEstimate(
        literals=sum(per_signal.values()),
        csc_conflict_codes=conflict_codes,
        per_signal_literals=per_signal,
    )
