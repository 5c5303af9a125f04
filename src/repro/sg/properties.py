"""Implementability checks on state graphs.

Section 2 of the paper requires, beyond consistency:

* **speed independence** = determinism + commutativity + output persistency;
* **Complete State Coding (CSC)**: equal binary codes imply equal sets of
  enabled *non-input* events.

Each predicate has a companion ``*_violations`` function that returns
witnesses, which the validity checker and the test suite both use.  The
checks walk the graph's :class:`~repro.sg.graph.GraphIndex` and decode
only the witnesses they return.  The coding verdicts are counted, not
listed: :func:`coding_counts` takes one pass over the code buckets, and
the witness lists (:func:`csc_conflicts`, :func:`usc_conflicts`),
quadratic in bucket size, are built only on demand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .graph import GraphIndex, State, StateGraph, StateGraphError

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
    index = sg.index()
    codes = index.codes  # raises StateGraphError on a state without a code
    states, labels, signals = index.states, index.labels, sg.signals
    for source, out in enumerate(index.succ):
        src = codes[source]
        for label, target in out.items():
            dst = codes[target]
            k = index.signal[label]
            bit = 1 << k
            if index.rise[label]:
                ok = not src & bit and dst & bit
            elif index.fall[label]:
                ok = src & bit and not dst & bit
            else:
                ok = (src ^ dst) & bit
            if not ok:
                violations.append(ConsistencyViolation(
                    states[source], labels[label], states[target],
                    f"{signals[k]} goes {(src >> k) & 1}->{(dst >> k) & 1} "
                    f"on {labels[label]}"))
                continue
            changed = (src ^ dst) & ~bit
            i = 0
            while changed:
                if changed & 1:
                    violations.append(ConsistencyViolation(
                        states[source], labels[label], states[target],
                        f"{signals[i]} changes {(src >> i) & 1}->"
                        f"{(dst >> i) & 1} on {labels[label]}"))
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
    index = sg.index()
    states, labels, succ = index.states, index.labels, index.succ
    for state, out in enumerate(succ):
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
                        states[state], labels[label_a], labels[label_b],
                        states[out[label_a]], states[out[label_b]]))
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
    index = sg.index()
    states, labels = index.states, index.labels
    succ, is_input = index.succ, index.is_input
    for state, out in enumerate(succ):
        if len(out) < 2:
            continue
        after = {other: succ[target] for other, target in out.items()}
        for label in out:
            for other in out:
                if other == label or label in after[other]:
                    continue
                if not (is_input[label] and is_input[other]):
                    violations.append(PersistencyViolation(
                        states[state], labels[label], labels[other]))
    return violations


def is_output_persistent(sg: StateGraph) -> bool:
    return not persistency_violations(sg)


@dataclass(frozen=True)
class CSCConflict:
    """Two states with identical codes but different non-input excitation."""

    state_a: State
    state_b: State
    code: Tuple[int, ...]
    excited_a: frozenset = frozenset()
    excited_b: frozenset = frozenset()


def _shared_codes(index: GraphIndex) -> Iterator[Tuple[int, List[int],
                                                     List[int]]]:
    """Each packed code shared by two or more states: the code, its state
    ids (ascending) and their non-input excitation masks, OR-ed
    ``index.excites`` bits.

    Excitation is computed only for these states, so a graph with unique
    codes costs one pass over its states.  Raises on a state without a
    code.
    """
    by_code: Dict[int, List[int]] = {}
    for state, code in enumerate(index.codes):
        by_code.setdefault(code, []).append(state)
    succ, excited = index.succ, index.excites.__getitem__
    for code, ids in by_code.items():
        if len(ids) > 1:
            yield code, ids, [reduce(or_, map(excited, succ[state]), 0)
                              for state in ids]


def _excitation_sets(index: GraphIndex, masks: Iterable[int]
                    ) -> List[frozenset]:
    """Excitation masks decoded to sets of ``(signal, direction)``."""
    classes = index.classes
    return [frozenset(member for i, member in enumerate(classes)
                      if mask >> i & 1) for mask in masks]


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
    excited: List[int] = []
    for code, ids, masks in _shared_codes(sg.index()):
        keys += [code] * len(ids)
        excited += masks
    return conflict_pairs(keys, excited)


def csc_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """All CSC conflict pairs (unordered, each pair reported once).

    A witness list for callers that print or inspect pairs: it grows with
    the square of the bucket size (251,832 pairs on ``counter_6``).  A
    verdict or a count needs only :func:`coding_counts`.
    """
    conflicts = []
    index = sg.index()
    for _, ids, masks in _shared_codes(index):
        states = [index.states[state] for state in ids]
        excited = _excitation_sets(index, masks)
        code_tuple = sg.code_of(states[0])
        for i, state_a in enumerate(states):
            for j in range(i + 1, len(states)):
                if masks[i] != masks[j]:
                    conflicts.append(CSCConflict(
                        state_a, states[j], code_tuple,
                        excited[i], excited[j]))
    return conflicts


def usc_conflicts(sg: StateGraph) -> List[Tuple[State, State]]:
    """Pairs of distinct states sharing a binary code (Unique State Coding).

    Like :func:`csc_conflicts`, a witness list quadratic in bucket size.
    """
    index = sg.index()
    return [(index.states[a], index.states[b])
            for _, ids, _ in _shared_codes(index)
            for i, a in enumerate(ids) for b in ids[i + 1:]]


def csc_conflicting_signals(sg: StateGraph) -> Set[str]:
    """Signals whose excitation differs in at least one CSC conflict pair:
    per shared code, those excited in some of its states but not in all,
    so no pair is listed."""
    index = sg.index()
    differ = 0
    for _, _, masks in _shared_codes(index):
        differ |= reduce(or_, masks) & ~reduce(and_, masks)
    return {signal for signal, _ in _excitation_sets(index, [differ])[0]}


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
