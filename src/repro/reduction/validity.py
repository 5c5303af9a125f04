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
from the other.  The reduction search does not call it; FwdRed checks the
conditions that can fail for an arc-removal on masks
(:mod:`repro.reduction.fwdred`).  The persistency signature is memoized
per graph in a weak-keyed cache; the read freezes the graph, so it cannot
go stale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import FrozenSet, List, Tuple

from ..sg.graph import State, StateGraph
from ..sg.properties import persistency_violations


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the Definition 5.1 checks."""

    valid: bool
    reasons: Tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


_PERSISTENCY_MEMO: "weakref.WeakKeyDictionary[StateGraph, FrozenSet]" = (
    weakref.WeakKeyDictionary())


def _persistency_signature(sg: StateGraph) -> FrozenSet[Tuple[State, str, str]]:
    signature = _PERSISTENCY_MEMO.get(sg)
    if signature is None:
        signature = frozenset((v.state, v.disabled, v.by)
                              for v in persistency_violations(sg))
        _PERSISTENCY_MEMO[sg] = signature
    return signature


def check_validity(original: StateGraph, reduced: StateGraph) -> ValidityReport:
    """Run all Definition 5.1 checks of ``reduced`` against ``original``."""
    reasons: List[str] = []

    # (3) no events disappear
    lost = original.live_labels() - reduced.live_labels()
    if lost:
        reasons.append(f"events disappeared: {sorted(lost)}")

    original_succ = original._succ
    reduced_succ = reduced._succ

    # (4) no new deadlocks
    for state, out in reduced_succ.items():
        if out:
            continue
        if original_succ.get(state):
            reasons.append(f"new deadlock at state {state!r}")
            break

    # (2b) initial state preserved (arc removal keeps states, so the original
    # initial state must still exist and be the initial state).
    if reduced.initial != original.initial or reduced.initial not in reduced:
        reasons.append("initial state changed")

    # (2a) no input transition delayed: every state surviving reduction must
    # enable the same input events it enabled originally.
    is_input = original.is_input_label
    for state, out in reduced_succ.items():
        original_out = original_succ.get(state)
        if original_out is None or original_out.keys() == out.keys():
            continue
        missing = [label for label in original_out
                   if label not in out and is_input(label)]
        if missing:
            reasons.append(f"input events {sorted(missing)} delayed at {state!r}")
            break

    # (1) output persistency preserved: no *new* violations.
    new_violations = _persistency_signature(reduced) - _persistency_signature(original)
    if new_violations:
        state, disabled, by = next(iter(new_violations))
        reasons.append(
            f"persistency violated: {disabled} disabled by {by} at {state!r}")

    return ValidityReport(valid=not reasons, reasons=tuple(reasons))
