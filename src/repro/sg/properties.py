"""Implementability checks on state graphs.

Section 2 of the paper requires, beyond consistency:

* **speed independence** = determinism + commutativity + output persistency;
* **Complete State Coding (CSC)**: equal binary codes imply equal sets of
  enabled *non-input* events.

Each predicate has a companion ``*_violations`` function that returns
witnesses, which the validity checker and the test suite both use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from ..petri.stg import Direction
from .graph import State, StateGraph, StateGraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..explore.budget import ExplorationBudget
    from ..petri.stg import STG
    from ..symbolic.csc import CodingReport


@dataclass(frozen=True)
class ConsistencyViolation:
    """An arc whose labelling contradicts the binary codes."""

    source: State
    label: str
    target: State
    reason: str


def consistency_violations(sg: StateGraph) -> List[ConsistencyViolation]:
    """Arcs that violate the coded-arc rules (rise from 0 to 1, etc.).

    Runs on packed integer codes: the event's own signal is checked through
    its bit, and "every other signal holds its value" is one XOR of the two
    state codes instead of a per-signal sweep.
    """
    violations = []
    succ = sg.freeze()._succ
    code_int = sg.code_int  # raises StateGraphError on a state without a code
    effect = {label: (sg.signal_index(event.signal), event.direction)
              for label, event in sg.events.items()}
    for source, out in succ.items():
        if not out:
            continue
        src = code_int(source)
        for label, target in out.items():
            dst = code_int(target)
            index, direction = effect[label]
            bit = 1 << index
            if direction == Direction.RISE:
                ok = not src & bit and dst & bit
            elif direction == Direction.FALL:
                ok = src & bit and not dst & bit
            else:
                ok = (src ^ dst) & bit
            if not ok:
                signal = sg.signals[index]
                violations.append(ConsistencyViolation(
                    source, label, target,
                    f"{signal} goes {(src >> index) & 1}->{(dst >> index) & 1} "
                    f"on {label}"))
                continue
            changed = (src ^ dst) & ~bit
            i = 0
            while changed:
                if changed & 1:
                    signal = sg.signals[i]
                    violations.append(ConsistencyViolation(
                        source, label, target,
                        f"{signal} changes {(src >> i) & 1}->{(dst >> i) & 1} "
                        f"on {label}"))
                changed >>= 1
                i += 1
    return violations


def is_consistent(sg: StateGraph) -> bool:
    return not consistency_violations(sg)


@dataclass(frozen=True)
class CommutativityViolation:
    """A broken diamond: both orders fire but reach different states."""

    state: State
    label_a: str
    label_b: str
    via_a: State
    via_b: State


def commutativity_violations(sg: StateGraph) -> List[CommutativityViolation]:
    """States where two events fire in both orders to different states."""
    violations = []
    succ = sg.freeze()._succ
    for state, out in succ.items():
        if len(out) < 2:
            continue
        enabled = list(out)
        after = [succ[out[label]] for label in enabled]
        for i, label_a in enumerate(enabled):
            for j in range(i + 1, len(enabled)):
                label_b = enabled[j]
                end_ab = after[i].get(label_b)
                if end_ab is None:
                    continue
                end_ba = after[j].get(label_a)
                if end_ba is not None and end_ab != end_ba:
                    violations.append(CommutativityViolation(
                        state, label_a, label_b, out[label_a], out[label_b]))
    return violations


def is_commutative(sg: StateGraph) -> bool:
    return not commutativity_violations(sg)


@dataclass(frozen=True)
class PersistencyViolation:
    """Event ``disabled`` was enabled at ``state`` but not after ``by``."""

    state: State
    disabled: str
    by: str


def persistency_violations(sg: StateGraph) -> List[PersistencyViolation]:
    """Output-persistency violations (Section 2).

    A non-input event must stay enabled until it fires; an input event may
    be disabled, but only by another input (the environment changing its
    mind), never by an output or internal event.
    """
    violations = []
    succ = sg.freeze()._succ
    is_input = {label: sg.is_input_label(label) for label in sg.events}
    for state, out in succ.items():
        if len(out) < 2:
            continue
        after = {other: succ[target] for other, target in out.items()}
        for label in out:
            for other in out:
                if other == label or label in after[other]:
                    continue
                if not (is_input[label] and is_input[other]):
                    violations.append(PersistencyViolation(
                        state, label, other))
    return violations


def is_output_persistent(sg: StateGraph) -> bool:
    return not persistency_violations(sg)


def is_speed_independent(sg: StateGraph) -> bool:
    """Determinism + commutativity + output persistency."""
    return is_commutative(sg) and is_output_persistent(sg)


@dataclass(frozen=True)
class CSCConflict:
    """Two states with identical codes but different non-input excitation."""

    state_a: State
    state_b: State
    code: Tuple[int, ...]
    excited_a: frozenset = frozenset()
    excited_b: frozenset = frozenset()


def _group_by_code_int(sg: StateGraph) -> Dict[int, List[State]]:
    """States grouped by packed code; raises on a state without a code."""
    code_int = sg.code_int
    by_code: Dict[int, List[State]] = {}
    for state in sg.freeze()._succ:
        by_code.setdefault(code_int(state), []).append(state)
    return by_code


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs (unordered, each pair reported once).

    States are bucketed by their packed integer codes and each state's
    non-input excitation is computed once per bucket member, so the usual
    no-conflict case costs one pass over the states.
    """
    succ = sg.freeze()._succ
    excitation = {label: (event.signal, event.direction.value)
                  for label, event in sg.events.items()
                  if not sg.is_input_label(label)}
    conflicts = []
    for states in _group_by_code_int(sg).values():
        if len(states) < 2:
            continue
        excited = [frozenset(excitation[label] for label in succ[state]
                             if label in excitation)
                   for state in states]
        code_tuple = sg.code_of(states[0])
        for i, state_a in enumerate(states):
            for j in range(i + 1, len(states)):
                if excited[i] != excited[j]:
                    conflicts.append(CSCConflict(
                        state_a, states[j], code_tuple,
                        excited[i], excited[j]))
    return conflicts


def usc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """Pairs of distinct states sharing a binary code (Unique State Coding)."""
    pairs = []
    for states in _group_by_code_int(sg).values():
        for i, state_a in enumerate(states):
            for state_b in states[i + 1:]:
                pairs.append((state_a, state_b))
    return pairs


def has_csc(sg: StateGraph) -> bool:
    return not csc_conflicts(sg)


def has_usc(sg: StateGraph) -> bool:
    return not usc_conflicts(sg)


def csc_conflicting_signals(sg: StateGraph) -> Set[str]:
    """Signals whose excitation differs in at least one CSC conflict pair."""
    signals: Set[str] = set()
    for conflict in csc_conflicts(sg):
        for signal, _ in conflict.excited_a.symmetric_difference(conflict.excited_b):
            signals.add(signal)
    return signals


def deadlock_states(sg: StateGraph) -> List[State]:
    """States with no outgoing arcs."""
    return [state for state in sg.states if not sg.enabled(state)]


@dataclass
class ImplementabilityReport:
    """Aggregate of all checks, convenient for flows and tests."""

    consistent: bool
    deterministic: bool
    commutative: bool
    output_persistent: bool
    csc: bool
    usc: bool
    deadlock_free: bool
    csc_conflict_count: int

    @property
    def speed_independent(self) -> bool:
        return self.deterministic and self.commutative and self.output_persistent

    @property
    def implementable(self) -> bool:
        return self.consistent and self.speed_independent and self.csc


def check_implementability(sg: StateGraph) -> ImplementabilityReport:
    """Run every check and return a report."""
    conflicts = csc_conflicts(sg)
    return ImplementabilityReport(
        consistent=is_consistent(sg),
        deterministic=True,
        commutative=is_commutative(sg),
        output_persistent=is_output_persistent(sg),
        csc=not conflicts,
        usc=has_usc(sg),
        deadlock_free=not deadlock_states(sg),
        csc_conflict_count=len(conflicts),
    )


def _marking_tuple(state: State) -> Tuple[int, ...]:
    """The marking tuple of a generator-built state.

    Rise/fall state graphs use the marking itself as the state; unfolded
    (2-phase) graphs use ``(marking, values)`` pairs.  Hand-built graphs
    with opaque states carry no marking and cannot feed a coding report.
    """
    if isinstance(state, tuple):
        if (len(state) == 2 and isinstance(state[0], tuple)
                and isinstance(state[1], tuple)):
            return state[0]
        return state
    raise StateGraphError(
        f"state {state!r} carries no marking; coding reports need "
        "generator-built state graphs")


def coding_report(sg: StateGraph, witness_limit: Optional[int] = None,
                  engine: str = "explicit") -> "CodingReport":
    """Render the explicit consistency/USC/CSC verdicts canonically.

    Returns the same :class:`~repro.symbolic.csc.CodingReport` the
    symbolic engine produces, with byte-identical
    :meth:`~repro.symbolic.csc.CodingReport.to_payload` on the same STG
    -- witness pairs are decoded to (code, marking, excitation) records
    under one canonical order, and witness lists above ``witness_limit``
    are dropped by the shared truncation rule.  The cross-engine parity
    suite pins this equality.
    """
    from ..symbolic.csc import (DEFAULT_WITNESS_LIMIT, CodingReport,
                                canonical_conflict, canonical_pair,
                                sort_conflicts, sort_pairs)
    limit = DEFAULT_WITNESS_LIMIT if witness_limit is None else witness_limit
    pairs = usc_conflicts(sg)
    conflicts = csc_conflicts(sg)
    truncated = len(pairs) > limit or len(conflicts) > limit
    pair_payloads: List[dict] = []
    conflict_payloads: List[dict] = []
    if not truncated:
        pair_payloads = sort_pairs([
            canonical_pair(sg.code_of(a), _marking_tuple(a),
                           _marking_tuple(b))
            for a, b in pairs])
        conflict_payloads = sort_conflicts([
            canonical_conflict(c.code,
                               _marking_tuple(c.state_a), c.excited_a,
                               _marking_tuple(c.state_b), c.excited_b)
            for c in conflicts])
    return CodingReport(
        name=sg.name,
        engine=engine,
        states=len(sg),
        consistent=is_consistent(sg),
        usc=not pairs,
        csc=not conflicts,
        usc_pair_count=len(pairs),
        csc_conflict_count=len(conflicts),
        conflicts=conflict_payloads,
        usc_pairs=pair_payloads,
        truncated=truncated)


def check_coding(stg: "STG", engine: str = "auto",
                 budget: Optional["ExplorationBudget"] = None,
                 witness_limit: Optional[int] = None,
                 name: Optional[str] = None) -> "CodingReport":
    """Check consistency/USC/CSC of an STG on a selectable engine.

    ``engine="symbolic"`` runs the BDD path
    (:func:`repro.symbolic.csc.check_coding_symbolic`) -- no state
    enumeration, budget metered in BDD nodes and seconds.  The explicit
    engines (``"auto"``/``"packed"``/``"tuples"``) generate the state
    graph first and render its verdicts.  All engines return the same
    canonical :class:`~repro.symbolic.csc.CodingReport`.
    """
    if engine == "symbolic":
        from ..symbolic.csc import DEFAULT_WITNESS_LIMIT, \
            check_coding_symbolic
        limit = DEFAULT_WITNESS_LIMIT if witness_limit is None \
            else witness_limit
        return check_coding_symbolic(stg, budget=budget,
                                     witness_limit=limit, name=name)
    from .generator import generate_sg
    sg = generate_sg(stg, name=name, budget=budget, engine=engine)
    return coding_report(sg, witness_limit=witness_limit, engine=engine)
