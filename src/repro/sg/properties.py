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

from ..petri.stg import Direction, SignalKind
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
    compiled = sg.compiled()
    codes = compiled.code_ints
    for sid, out in enumerate(compiled.succ):
        if out and codes[sid] < 0:
            sg.code_of(compiled.states[sid])  # raises StateGraphError
        source = compiled.states[sid]
        for lid, tid in out.items():
            if codes[tid] < 0:
                sg.code_of(compiled.states[tid])  # raises StateGraphError
            src, dst = codes[sid], codes[tid]
            index = compiled.event_signal[lid]
            bit = 1 << index
            direction = compiled.event_direction[lid]
            label = compiled.labels[lid]
            target = compiled.states[tid]
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


def is_deterministic(sg: StateGraph) -> bool:
    """Always true for :class:`StateGraph` (enforced at construction)."""
    return True


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
    compiled = sg.compiled()
    succ = compiled.succ
    states = compiled.states
    labels = compiled.labels
    for sid, out in enumerate(succ):
        if len(out) < 2:
            continue
        enabled = list(out)
        for i, lid_a in enumerate(enabled):
            via_a = out[lid_a]
            for lid_b in enabled[i + 1:]:
                via_b = out[lid_b]
                end_ab = succ[via_a].get(lid_b)
                if end_ab is None:
                    continue
                end_ba = succ[via_b].get(lid_a)
                if end_ba is not None and end_ab != end_ba:
                    violations.append(CommutativityViolation(
                        states[sid], labels[lid_a], labels[lid_b],
                        states[via_a], states[via_b]))
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
    compiled = sg.compiled()
    succ = compiled.succ
    is_input = compiled.is_input
    states = compiled.states
    labels = compiled.labels
    for sid, out in enumerate(succ):
        if len(out) < 2:
            continue
        enabled = list(out)
        for lid in enabled:
            for other in enabled:
                if other == lid:
                    continue
                if lid in succ[out[other]]:
                    continue
                if not (is_input[lid] and is_input[other]):
                    violations.append(PersistencyViolation(
                        states[sid], labels[lid], labels[other]))
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


def _excited_signals(sg: StateGraph, state: State, non_input_only: bool) -> frozenset:
    signals = set()
    for label in sg.enabled(state):
        event = sg.events[label]
        if non_input_only and sg.kinds[event.signal] == SignalKind.INPUT:
            continue
        signals.add((event.signal, event.direction.value))
    return frozenset(signals)


def _group_by_code_int(sg: StateGraph) -> Dict[int, List[int]]:
    """State ids grouped by packed code; raises on a state without a code."""
    compiled = sg.compiled()
    by_code: Dict[int, List[int]] = {}
    for sid, code in enumerate(compiled.code_ints):
        if code < 0:
            sg.code_of(compiled.states[sid])  # raises StateGraphError
        by_code.setdefault(code, []).append(sid)
    return by_code


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs (unordered, each pair reported once).

    States are bucketed by their packed integer codes and each state's
    non-input excitation is computed once per bucket member, so the usual
    no-conflict case costs one pass over the states.
    """
    compiled = sg.compiled()
    signals = sg.signals
    conflicts = []
    for code, sids in _group_by_code_int(sg).items():
        if len(sids) < 2:
            continue
        excited = []
        for sid in sids:
            members = set()
            for lid in compiled.succ[sid]:
                if compiled.is_input[lid]:
                    continue
                members.add((signals[compiled.event_signal[lid]],
                             compiled.event_direction[lid].value))
            excited.append(frozenset(members))
        code_tuple = sg.code_of(compiled.states[sids[0]])
        for i, sid_a in enumerate(sids):
            for j in range(i + 1, len(sids)):
                if excited[i] != excited[j]:
                    conflicts.append(CSCConflict(
                        compiled.states[sid_a], compiled.states[sids[j]],
                        code_tuple, excited[i], excited[j]))
    return conflicts


def usc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """Pairs of distinct states sharing a binary code (Unique State Coding)."""
    compiled = sg.compiled()
    pairs = []
    for sids in _group_by_code_int(sg).values():
        for i, sid_a in enumerate(sids):
            for sid_b in sids[i + 1:]:
                pairs.append((compiled.states[sid_a], compiled.states[sid_b]))
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
