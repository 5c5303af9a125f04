"""Validity of concurrency reductions (Section 5, Definition 5.1).

A reduced SG is valid when:

1. speed-independence is preserved (commutativity and determinism cannot
   break under arc removal, so only output persistency is checked);
2. the I/O interface is preserved (no input transition delayed; the initial
   state survives up to internal events);
3. no event disappears (every event with a non-empty ER keeps one);
4. no new deadlock states appear.

:func:`check_validity` is the independent checker: it compares two
materialized graphs and makes no assumption about how one was derived
from the other or how either spells its states.  The reduction
search does not call it; FwdRed checks the conditions that can fail for
an arc-removal on masks (:mod:`repro.reduction.fwdred`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from ..sg.graph import StateGraph
from ..sg.properties import PersistencyViolation, persistency_violations


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the Definition 5.1 checks."""

    valid: bool
    reasons: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def check_validity(original: StateGraph, reduced: StateGraph) -> ValidityReport:
    """Run all Definition 5.1 checks of ``reduced`` against ``original``.

    States are paired by one walk from both initial states
    (:meth:`~repro.sg.graph.StateGraph.pair_states`), so the graphs may
    name and number them differently, as decoded artifacts do.  A
    reduced language outside the original one, or a state that does not
    pair, refuses the reduction; the checks then run over the pairs.
    """
    known = set(persistency_violations(original))  # freezes the original
    if original.initial_id is None or reduced.initial_id is None:
        return ValidityReport(False, ("initial state changed",))
    # (2b) the initial states' codes are equal
    initial = ([] if original.packed[original.initial_id]
               == reduced.packed[reduced.initial_id]
               else ["initial state changed"])
    order, paired, broken = original.pair_states(reduced)
    if broken is not None:
        return ValidityReport(False, tuple(initial + [broken]))
    reasons: List[str] = []
    labels = reduced.labels()

    # (3) no events disappear
    lost = original.live_labels() - {labels[label] for state in order
                                     for label in reduced.succ[state]}
    if lost:
        reasons.append(f"events disappeared: {sorted(lost)}")

    # (4) no new deadlocks
    for state in order:
        if not reduced.succ[state] and original.succ[paired[state]]:
            reasons.append(f"new deadlock at state {reduced.states[state]!r}")
            break
    reasons += initial

    # (2a) no input transition delayed: every reduced state enables the
    # input events its original state enables.
    names, is_input = original.labels(), original.is_input
    for state in order:
        enabled = {labels[label] for label in reduced.succ[state]}
        missing = [names[label] for label in original.succ[paired[state]]
                   if is_input[label] and names[label] not in enabled]
        if missing:
            reasons.append(f"input events {sorted(missing)} delayed at "
                           f"{reduced.states[state]!r}")
            break

    # (1) output persistency preserved: no *new* violations.
    for violation in persistency_violations(reduced):
        mate = paired[reduced.state_id[violation.state]]
        if mate is not None and PersistencyViolation(
                original.states[mate], violation.disabled,
                violation.by) not in known:
            reasons.append(f"persistency violated: {violation.disabled} "
                           f"disabled by {violation.by} at "
                           f"{violation.state!r}")
            break

    return ValidityReport(valid=not reasons, reasons=tuple(reasons))
