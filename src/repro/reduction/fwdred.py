"""Forward reduction -- the elementary operation of the paper (Section 6).

``FwdRed(a, b)`` reduces the concurrency of event ``a`` with respect to
event ``b``: in every execution where both are enabled, ``a`` now waits for
``b``.  Following Fig. 7::

    ER_red(a) = ER(a) - (ER(b)  U  back_reach(ER(a) /\\ ER(b)))

where the backward reachability stays inside ER(a) (leaving the region would
mean ``a`` has fired).  Arcs labelled ``a`` leaving the truncated states are
removed, unreachable states are pruned, and the result is validated per
Definition 5.1.  At the STG level this corresponds to adding a causal place
from ``b`` to ``a``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Set, Tuple

from .. import engine
from ..sg.graph import StateGraph
from ..sg.regions import excitation_region
from .validity import validate_removal


class ReductionError(Exception):
    """Raised on misuse of the reduction operation (not on invalid results)."""


@dataclass
class ReductionResult:
    """Outcome of a forward reduction attempt."""

    sg: Optional[StateGraph]
    valid: bool
    reason: str = ""
    removed_arcs: int = 0
    removed_states: int = 0

    def __bool__(self) -> bool:
        return self.valid


#: Results keyed by (parent signature, delayed, before).  The sweep
#: re-explores the same configurations under different knobs, and the
#: result of a reduction is a pure function of the parent graph.  Sharing a
#: candidate graph between callers is safe because it is frozen from the
#: start (:meth:`~repro.sg.graph.StateGraph.copy_without_arcs`).
_REDUCTION_MEMO: Dict[tuple, "ReductionResult"] = (
    engine.register_cache({}, name="reduction-results"))


def forward_reduction(sg: StateGraph, delayed: str, before: str,
                      validate: bool = True) -> ReductionResult:
    """Apply ``FwdRed(delayed, before)``: make ``delayed`` wait for ``before``.

    ``delayed`` must be a non-input event (inputs cannot be delayed by the
    circuit, condition 2a of Definition 5.1).  Returns an invalid result --
    never raises -- when the events are not concurrent or the reduction
    violates validity, so the exploration loop can just skip it.
    """
    if validate and engine.packed_memo_enabled():
        key = (sg.signature(), delayed, before)
        result = _REDUCTION_MEMO.get(key)
        if result is None:
            result = _forward_reduction_uncached(sg, delayed, before, True)
            # Valid entries keep their candidate SG alive, so the cap is
            # much tighter than the pure-integer memos.
            if len(_REDUCTION_MEMO) > 20_000:
                _REDUCTION_MEMO.clear()
            _REDUCTION_MEMO[key] = result
        return result
    return _forward_reduction_uncached(sg, delayed, before, validate)


def _forward_reduction_uncached(sg: StateGraph, delayed: str, before: str,
                                validate: bool) -> ReductionResult:
    if delayed not in sg.events or before not in sg.events:
        raise ReductionError(f"unknown event: {delayed!r} or {before!r}")
    if delayed == before:
        raise ReductionError("cannot reduce an event against itself")
    if sg.is_input_label(delayed):
        return ReductionResult(None, False,
                               f"{delayed} is an input event and cannot be delayed")

    er_delayed = excitation_region(sg, delayed)
    er_before = excitation_region(sg, before)
    intersection = er_delayed & er_before
    if not intersection:
        return ReductionResult(None, False,
                               f"{delayed} and {before} are not concurrent")

    truncated = sg.backward_reachable(intersection, within=er_delayed)
    truncated |= intersection
    if truncated >= er_delayed:
        return ReductionResult(None, False,
                               f"reduction would remove every occurrence of {delayed}")

    if validate:
        report, reachable = validate_removal(sg, delayed, truncated)
        if not report.valid:
            return ReductionResult(None, False, "; ".join(report.reasons),
                                   removed_arcs=len(truncated),
                                   removed_states=len(sg) - len(reachable))
    else:
        reachable = None

    reduced = sg.copy_without_arcs(((state, delayed) for state in truncated),
                                   name=sg.name, reachable=reachable)
    return ReductionResult(reduced, True, "",
                           removed_arcs=len(truncated),
                           removed_states=len(sg) - len(reduced))


def reducible_pairs(sg: StateGraph,
                    keep_conc: FrozenSet[FrozenSet[str]] = frozenset()) -> Set[Tuple[str, str]]:
    """All ordered pairs ``(before, delayed)`` eligible for FwdRed.

    ``delayed`` ranges over non-input events concurrent with ``before``;
    pairs whose unordered form appears in ``keep_conc`` are excluded (they
    are the designer's performance-critical concurrency, Fig. 9).
    """
    from ..sg.regions import concurrent_pairs

    pairs: Set[Tuple[str, str]] = set()
    for label_a, label_b in concurrent_pairs(sg):
        if frozenset((label_a, label_b)) in keep_conc:
            continue
        for before, delayed in ((label_a, label_b), (label_b, label_a)):
            if not sg.is_input_label(delayed):
                pairs.add((before, delayed))
    return pairs
