"""Implementability checks on state graphs.

Section 2 of the paper requires, beyond consistency:

* **speed independence** = determinism + commutativity + output persistency;
* **Complete State Coding (CSC)**: equal binary codes imply equal sets of
  enabled *non-input* events.

Each predicate has a companion ``*_violations`` function that returns
witnesses, which the validity checker and the test suite both use.  The
coding verdicts are counted, not listed: :func:`coding_counts` takes one
pass over the code buckets, and the witness lists (:func:`csc_conflicts`,
:func:`usc_conflicts`), quadratic in bucket size, are built only on demand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

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
    # One read per state; raises StateGraphError on a state without a code.
    codes = {state: sg.code_int(state) for state in succ}
    effect = {label: (sg.signal_index(event.signal), event.direction)
              for label, event in sg.events.items()}
    for source, out in succ.items():
        if not out:
            continue
        src = codes[source]
        for label, target in out.items():
            dst = codes[target]
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


def _shared_codes(sg: StateGraph) -> Iterator[Tuple[int, List[State],
                                                    List[frozenset]]]:
    """Each packed code shared by two or more states: the code, its states
    and their non-input excitation sets of ``(signal, direction)``.

    Excitation is computed only for these states, so a graph with unique
    codes costs one pass over its states.  Raises on a state without a
    code.
    """
    succ = sg.freeze()._succ
    code_int = sg.code_int
    by_code: Dict[int, List[State]] = {}
    for state in succ:
        by_code.setdefault(code_int(state), []).append(state)
    excitation = {label: (event.signal, event.direction.value)
                  for label, event in sg.events.items()
                  if not sg.is_input_label(label)}
    for code, states in by_code.items():
        if len(states) > 1:
            yield code, states, [
                frozenset(excitation[label] for label in succ[state]
                          if label in excitation)
                for state in states]


def conflict_pairs(keys: Sequence, excited: Iterable) -> Tuple[int, int]:
    """Pairs of items sharing a key, and those of them whose excitations
    differ: ``C(n, 2)`` per key class of size ``n``, less ``C(k, 2)`` per
    excitation class of size ``k`` inside it."""
    shared = _pairs(Counter(keys))
    if not shared:
        return 0, 0
    return shared, shared - _pairs(Counter(zip(keys, excited)))


def _pairs(counts: Counter) -> int:
    """Unordered pairs within each class of ``counts``."""
    return sum(n * (n - 1) for n in counts.values()) // 2


def coding_counts(sg: StateGraph) -> Tuple[int, int]:
    """``(USC pairs, CSC conflicts)`` without listing a pair.

    One pass over the code buckets: a bucket of ``n`` states holds
    ``C(n, 2)`` USC pairs, of which the pairs with different non-input
    excitation are CSC conflicts.  Equal to
    ``(len(usc_conflicts(sg)), len(csc_conflicts(sg)))``.
    """
    keys: List[int] = []
    excited: List[frozenset] = []
    for code, states, sets in _shared_codes(sg):
        keys += [code] * len(states)
        excited += sets
    return conflict_pairs(keys, excited)


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs (unordered, each pair reported once).

    A witness list for callers that print or inspect pairs: it grows with
    the square of the bucket size (251,832 pairs on ``counter_6``).  A
    verdict or a count needs only :func:`coding_counts`.
    """
    conflicts = []
    for _, states, excited in _shared_codes(sg):
        code_tuple = sg.code_of(states[0])
        for i, state_a in enumerate(states):
            for j in range(i + 1, len(states)):
                if excited[i] != excited[j]:
                    conflicts.append(CSCConflict(
                        state_a, states[j], code_tuple,
                        excited[i], excited[j]))
    return conflicts


def usc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """Pairs of distinct states sharing a binary code (Unique State Coding).

    Like :func:`csc_conflicts`, a witness list quadratic in bucket size.
    """
    return [(state_a, state_b) for _, states, _ in _shared_codes(sg)
            for i, state_a in enumerate(states) for state_b in states[i + 1:]]


def has_csc(sg: StateGraph) -> bool:
    return not coding_counts(sg)[1]


def has_usc(sg: StateGraph) -> bool:
    return not coding_counts(sg)[0]


def csc_conflicting_signals(sg: StateGraph) -> Set[str]:
    """Signals whose excitation differs in at least one CSC conflict pair:
    per shared code, those excited in some of its states but not in all,
    so no pair is listed."""
    signals: Set[str] = set()
    for _, _, excited in _shared_codes(sg):
        common = frozenset.intersection(*excited)
        for signal, _ in frozenset.union(*excited) - common:
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
    """Run every check and return a report.

    The checks are linear in arcs, and the coding verdicts take one pass
    over the code buckets (:func:`coding_counts`); no conflict pair is
    listed.
    """
    usc_pairs, conflicts = coding_counts(sg)
    return ImplementabilityReport(
        consistent=is_consistent(sg),
        deterministic=True,
        commutative=is_commutative(sg),
        output_persistent=is_output_persistent(sg),
        csc=not conflicts,
        usc=not usc_pairs,
        deadlock_free=not deadlock_states(sg),
        csc_conflict_count=conflicts,
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

    The counts take one bucket pass (:func:`coding_counts`); the witness
    lists, quadratic in bucket size, are built only when both counts are
    within ``witness_limit``.
    """
    from ..symbolic.csc import (DEFAULT_WITNESS_LIMIT, CodingReport,
                                canonical_conflict, canonical_pair,
                                sort_conflicts, sort_pairs)
    limit = DEFAULT_WITNESS_LIMIT if witness_limit is None else witness_limit
    pairs, conflicts = coding_counts(sg)
    truncated = pairs > limit or conflicts > limit
    pair_payloads: List[dict] = []
    conflict_payloads: List[dict] = []
    if not truncated:
        pair_payloads = sort_pairs([
            canonical_pair(sg.code_of(a), _marking_tuple(a),
                           _marking_tuple(b))
            for a, b in usc_conflicts(sg)])
        conflict_payloads = sort_conflicts([
            canonical_conflict(c.code,
                               _marking_tuple(c.state_a), c.excited_a,
                               _marking_tuple(c.state_b), c.excited_b)
            for c in csc_conflicts(sg)])
    return CodingReport(
        name=sg.name,
        engine=engine,
        states=len(sg),
        consistent=is_consistent(sg),
        usc=not pairs,
        csc=not conflicts,
        usc_pair_count=pairs,
        csc_conflict_count=conflicts,
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
