"""State-signal insertion for CSC resolution.

When concurrency reduction leaves CSC conflicts, an internal state signal is
inserted by *threading* it through the behaviour: for a chosen pair of
non-input trigger events ``x`` and ``y`` the executions are constrained to
the cyclic order::

    x ; csc+ ; y ; csc- ; x ; ...

``csc+`` fires after ``x`` (concurrently with everything else), ``y`` waits
for ``csc+``, and the next ``x`` waits for ``csc-``.  This is the SG-level
analogue of threading an interface constraint through the STG and has the
properties Definition 5.1 demands by construction:

* only ``x`` and ``y`` are ever delayed, and both are non-input events, so
  the I/O interface is untouched;
* output persistency is preserved: a delayed event is simply not enabled in
  the new SG until its csc phase is reached -- it is never enabled and then
  disabled (assuming the input SG is persistent and the triggers alternate);
* consistency holds by construction (the csc value is part of the state).

Candidates that deadlock (the triggers do not alternate compatibly with the
rest of the behaviour) or lose events are rejected; among the feasible ones
the search keeps the candidate with the fewest remaining conflicts, then the
fewest states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..petri.stg import Direction, SignalEvent, SignalKind
from ..sg.graph import State, StateGraph
from ..sg.properties import persistency_violations
from .csc import conflict_count


class InsertionError(Exception):
    """Raised when no insertion candidate resolves the conflicts."""


@dataclass(frozen=True)
class InsertionChoice:
    """A committed insertion: triggers, style and the quality of the result."""

    signal: str
    rise_trigger: str   # x: csc+ fires right after this event
    fall_trigger: str   # y: csc- fires right after this event
    initial_value: int
    conflicts_after: int
    states_after: int
    style: str = "threading"


def insert_state_signal(sg: StateGraph, rise_trigger: str, fall_trigger: str,
                        signal: str, initial_value: int = 0) -> Optional[StateGraph]:
    """Thread ``signal`` through the cycle ``x ; s+ ; y ; s- ; x``.

    Returns None when the candidate is infeasible: a trigger is an input
    event, the threading deadlocks, or some event disappears.  The product
    has at most ``4 * len(sg)`` states: ``(value, pending)`` only ever takes
    the four combinations ``(0, None)``, ``(1, None)``, ``(0, "+")`` and
    ``(1, "-")``.
    """
    if rise_trigger == fall_trigger:
        return None
    if rise_trigger not in sg.events or fall_trigger not in sg.events:
        return None
    if sg.is_input_label(rise_trigger) or sg.is_input_label(fall_trigger):
        return None
    if initial_value not in (0, 1):
        raise ValueError("initial_value must be 0 or 1")

    new = _prepare_extended(sg, signal)
    rise_label, fall_label = f"{signal}+", f"{signal}-"

    # Extended states: (original state, csc value, pending csc transition).
    codes = sg._codes
    succ = sg._succ
    initial = (sg.initial, initial_value, None)
    new.add_state(initial, codes[sg.initial] + (initial_value,))
    new.initial = initial
    queue = deque([initial])
    seen: Set[Tuple] = {initial}

    while queue:
        state = queue.popleft()
        orig, value, pending = state

        def push(target: Tuple, label: str) -> None:
            if target not in seen:
                seen.add(target)
                new.add_state(target, codes[target[0]] + (target[1],))
                queue.append(target)
            new.add_arc(state, label, target)

        if pending == "+":
            push((orig, 1, None), rise_label)
        elif pending == "-":
            push((orig, 0, None), fall_label)

        for label, target in succ[orig].items():
            if label == rise_trigger:
                # x waits for the previous csc handshake to complete.
                if value != 0 or pending is not None:
                    continue
                push((target, 0, "+"), label)
            elif label == fall_trigger:
                # y waits for csc+.
                if value != 1 or pending is not None:
                    continue
                push((target, 1, "-"), label)
            else:
                push((target, value, pending), label)

    if not _feasible(sg, new, rise_label, fall_label):
        return None
    return new


def insert_state_signal_sequencing(sg: StateGraph, rise_after: str,
                                   fall_after: str, signal: str,
                                   initial_value: int = 0) -> Optional[StateGraph]:
    """Serial insertion: the csc transition fires right after its trigger and
    every *non-input* event waits for it.

    Inputs are never delayed (they may race ahead of the pending csc
    transition), so the I/O interface is preserved; the candidate is
    infeasible when a trigger overtakes the pending transition (the signal
    would turn inconsistent).  This style changes the encoding sharply at
    the trigger, which resolves conflicts the threading style smears over.
    The product is bounded by ``4 * len(sg)`` states, as in
    :func:`insert_state_signal`.
    """
    if rise_after == fall_after:
        return None
    if rise_after not in sg.events or fall_after not in sg.events:
        return None
    if initial_value not in (0, 1):
        raise ValueError("initial_value must be 0 or 1")

    new = _prepare_extended(sg, signal)
    rise_label, fall_label = f"{signal}+", f"{signal}-"
    codes = sg._codes
    succ = sg._succ
    is_input = {label: sg.is_input_label(label) for label in sg.events}
    initial = (sg.initial, initial_value, None)
    new.add_state(initial, codes[sg.initial] + (initial_value,))
    new.initial = initial
    queue = deque([initial])
    seen: Set[Tuple] = {initial}

    while queue:
        state = queue.popleft()
        orig, value, pending = state

        def push(target: Tuple, label: str) -> None:
            if target not in seen:
                seen.add(target)
                new.add_state(target, codes[target[0]] + (target[1],))
                queue.append(target)
            new.add_arc(state, label, target)

        if pending == "+":
            push((orig, 1, None), rise_label)
        elif pending == "-":
            push((orig, 0, None), fall_label)

        for label, target in succ[orig].items():
            if pending is not None:
                if not is_input[label]:
                    continue  # non-inputs wait for the csc transition
                if label in (rise_after, fall_after):
                    return None  # an input trigger overtook the csc event
                push((target, value, pending), label)
                continue
            if label == rise_after:
                if value != 0:
                    return None  # triggers do not alternate: inconsistent
                push((target, 0, "+"), label)
            elif label == fall_after:
                if value != 1:
                    return None
                push((target, 1, "-"), label)
            else:
                push((target, value, pending), label)

    if not _feasible(sg, new, rise_label, fall_label):
        return None
    return new


def _prepare_extended(sg: StateGraph, signal: str) -> StateGraph:
    """Fresh SG sharing the original's signals plus the new internal one."""
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    new.declare_event(f"{signal}+", SignalEvent(signal, Direction.RISE))
    new.declare_event(f"{signal}-", SignalEvent(signal, Direction.FALL))
    return new


def _feasible(sg: StateGraph, new: StateGraph, rise_label: str,
              fall_label: str) -> bool:
    """No new deadlocks, no lost events, both csc transitions fire."""
    original_succ = sg._succ
    reached_labels: Set[str] = set()
    for state, out in new._succ.items():
        if not out and original_succ[state[0]]:
            return False
        reached_labels.update(out)
    if not sg.live_labels() <= reached_labels:
        return False
    return rise_label in reached_labels and fall_label in reached_labels


def enumerate_insertions(sg: StateGraph, signal: str,
                         require_improvement: bool = True,
                         ) -> List[Tuple[InsertionChoice, StateGraph]]:
    """All feasible single-signal insertions over both styles, best first.

    Candidates must not introduce persistency violations (a safety net on
    top of the by-construction argument); with ``require_improvement`` they
    must also strictly reduce the CSC conflict count.
    """
    baseline_conflicts = conflict_count(sg)
    if baseline_conflicts == 0:
        return []
    live_labels = sg.live_labels()
    live = [label for label in sorted(sg.events) if label in live_labels]
    non_input = [label for label in live if not sg.is_input_label(label)]
    baseline_violations = {(v.disabled, v.by) for v in persistency_violations(sg)}
    found: List[Tuple[Tuple, InsertionChoice, StateGraph]] = []

    def consider(style: str, rise: str, fall: str, value: int,
                 candidate: Optional[StateGraph]) -> None:
        if candidate is None:
            return
        new_violations = {(v.disabled, v.by)
                          for v in persistency_violations(candidate)}
        if new_violations - baseline_violations:
            return
        conflicts = conflict_count(candidate)
        if require_improvement and conflicts >= baseline_conflicts:
            return
        key = (conflicts, len(candidate), style, rise, fall, value)
        found.append((key, InsertionChoice(signal, rise, fall, value,
                                           conflicts, len(candidate), style),
                      candidate))

    for rise in non_input:
        for fall in non_input:
            if rise == fall:
                continue
            for value in (0, 1):
                consider("threading", rise, fall, value,
                         insert_state_signal(sg, rise, fall, signal, value))
    for rise in live:
        for fall in live:
            if rise == fall:
                continue
            for value in (0, 1):
                consider("sequencing", rise, fall, value,
                         insert_state_signal_sequencing(sg, rise, fall,
                                                        signal, value))
    found.sort(key=lambda item: item[0])
    return [(choice, candidate) for _, choice, candidate in found]


def find_insertion(sg: StateGraph, signal: str,
                   ) -> Optional[Tuple[InsertionChoice, StateGraph]]:
    """Best single-signal insertion, or None if nothing helps."""
    candidates = enumerate_insertions(sg, signal)
    return candidates[0] if candidates else None


@dataclass
class ResolutionResult:
    """Outcome of the greedy CSC resolution loop."""

    sg: StateGraph
    insertions: List[InsertionChoice]
    resolved: bool

    @property
    def signal_count(self) -> int:
        return len(self.insertions)


def resolve_csc(sg: StateGraph, max_signals: int = 4, prefix: str = "csc",
                beam_width: int = 5) -> ResolutionResult:
    """Insert state signals until CSC holds, by bounded best-first search.

    Greedy insertion can paint itself into a corner (the locally best first
    signal may leave conflicts no second signal can separate), so a small
    beam of the most promising partial solutions is kept per level.  The
    first fully resolved solution with the fewest signals wins; if none
    resolves within ``max_signals``, the best partial result is returned.
    """
    if conflict_count(sg) == 0:
        return ResolutionResult(sg=sg, insertions=[], resolved=True)

    Partial = Tuple[StateGraph, List[InsertionChoice]]
    frontier: List[Partial] = [(sg, [])]
    best_partial: Tuple[int, int, StateGraph, List[InsertionChoice]] = (
        conflict_count(sg), 0, sg, [])

    for index in range(max_signals):
        candidates: List[Tuple[Tuple, StateGraph, List[InsertionChoice]]] = []
        for current, insertions in frontier:
            for choice, candidate in enumerate_insertions(
                    current, f"{prefix}{index}")[: 2 * beam_width]:
                trail = insertions + [choice]
                if choice.conflicts_after == 0:
                    return ResolutionResult(sg=candidate, insertions=trail,
                                            resolved=True)
                key = (choice.conflicts_after, len(candidate))
                candidates.append((key, candidate, trail))
        if not candidates:
            break
        candidates.sort(key=lambda item: item[0])
        frontier = [(candidate, trail)
                    for _, candidate, trail in candidates[:beam_width]]
        head = candidates[0]
        if (head[0][0], len(head[2])) < (best_partial[0], best_partial[1]):
            best_partial = (head[0][0], len(head[2]), head[1], head[2])

    _, __, partial_sg, partial_trail = best_partial
    return ResolutionResult(sg=partial_sg, insertions=partial_trail,
                            resolved=conflict_count(partial_sg) == 0)
