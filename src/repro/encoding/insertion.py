"""State-signal insertion for CSC resolution.

When concurrency reduction leaves CSC conflicts, an internal state signal
``csc`` is inserted for a chosen pair of trigger events ``x`` and ``y``:
``csc+`` fires after ``x`` and ``csc-`` after ``y``.  The new SG is one walk
over the product ``(state, csc value, pending csc transition)``; the
insertion *style* only decides which events may fire in each of the four
phases of that product:

* **threading** constrains executions to the cyclic order
  ``x ; csc+ ; y ; csc- ; x ; ...``: ``csc+`` fires concurrently with
  everything else, ``y`` waits for ``csc+`` and the next ``x`` waits for
  ``csc-``.  Only the two triggers are ever delayed, so they must be
  non-input events;
* **sequencing** fires the csc transition right after its trigger and makes
  every *non-input* event wait for it.  Inputs never wait (they may race
  ahead of the pending transition), so the triggers may be inputs, but a
  trigger that fires out of turn makes the signal inconsistent.  This style
  changes the encoding sharply at the trigger, which resolves conflicts the
  threading style smears over.

Either way the I/O interface is untouched (inputs are never delayed) and
consistency holds by construction (the csc value is part of the state).
The walk rejects a candidate as soon as it deadlocks a state that could
move in the original; a finished walk must still fire every original event
and both csc transitions.

The walk also decides output persistency (Definition 5.1), with one local
rule: when an arc moves the product into a new phase, every other event
enabled at its source that must wait in the new phase has been disabled by
that arc, and the candidate is rejected unless the input graph already has
that ``(disabled, by)`` pair.  The rule is exact because inputs never wait
in either style: any other disabling in the product is a disabling of the
input graph, replayed at the same original state.  Threading never trips
it on a persistent input (a trigger waits in every phase but the one it
leaves); sequencing does whenever a trigger fires while a non-input event
is enabled.  Among the candidates that survive, the search keeps the one
with the fewest remaining conflicts, then the fewest states.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, product
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..petri.stg import Direction, SignalEvent, SignalKind
from ..sg.graph import StateGraph
from ..sg.properties import persistency_violations
from .csc import conflict_count

#: The insertion styles, in the order :func:`enumerate_insertions` tries them.
STYLES = ("threading", "sequencing")

#: Gate entries besides a next phase: the event waits for the csc handshake,
#: or firing it makes the candidate infeasible.
_WAIT = None
_CLASH = False

#: Name stem of the signals :func:`resolve_csc` inserts, and the number of
#: partial solutions it keeps per level.
_PREFIX = "csc"
_BEAM_WIDTH = 5


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
                        signal: str, initial_value: int = 0,
                        style: str = "threading") -> Optional[StateGraph]:
    """Insert ``signal`` with ``+`` after ``rise_trigger``, ``-`` after
    ``fall_trigger``, in the given :data:`STYLES` entry.

    Raises ``ValueError`` for an unknown style, an ``initial_value`` other
    than 0 or 1, or a ``signal`` the graph already declares, before any
    feasibility test.  Returns None when the candidate is infeasible: the
    triggers are equal or unknown, a threading trigger is an input event, a
    sequencing trigger fires out of turn, the walk deadlocks or breaks
    output persistency, or some event disappears.  The product has at most
    ``4 * len(sg)`` states: ``(value, pending)`` only ever takes the four
    phases ``(0, None)``, ``(1, None)``, ``(0, "+")`` and ``(1, "-")``.
    """
    if style not in STYLES:
        raise ValueError(f"unknown insertion style {style!r}")
    if initial_value not in (0, 1):
        raise ValueError("initial_value must be 0 or 1")
    return _insert(sg, rise_trigger, fall_trigger, signal, initial_value,
                   style, _disabling_pairs(sg))


def _disabling_pairs(sg: StateGraph) -> FrozenSet[Tuple[str, str]]:
    """The ``(disabled, by)`` pairs of the input's persistency violations."""
    return frozenset((v.disabled, v.by) for v in persistency_violations(sg))


def _insert(sg: StateGraph, rise_trigger: str, fall_trigger: str,
            signal: str, initial_value: int, style: str,
            allowed: FrozenSet[Tuple[str, str]]) -> Optional[StateGraph]:
    """The product walk of :func:`insert_state_signal` for a valid style and
    value; ``allowed`` holds the input's own :func:`_disabling_pairs`."""
    new = _prepare_extended(sg, signal)  # raises for a declared signal
    if rise_trigger == fall_trigger:
        return None
    if rise_trigger not in sg.events or fall_trigger not in sg.events:
        return None
    if style == "threading" and (sg.is_input_label(rise_trigger)
                                 or sg.is_input_label(fall_trigger)):
        return None

    settle = {"+": f"{signal}+", "-": f"{signal}-"}
    gates = _gates(sg, rise_trigger, fall_trigger, style, settle)

    # Product states: (original state, csc value, pending csc transition).
    codes = sg._codes
    succ = sg._succ
    initial = (sg.initial, initial_value, None)
    new.add_state(initial, codes[sg.initial] + (initial_value,))
    new.initial = initial
    queue = deque([initial])
    seen = {initial}
    reached = set()

    while queue:
        source = queue.popleft()
        orig, value, pending = source
        here = (value, pending)
        gate = gates[here]
        arcs = succ[orig]
        if pending is not None:
            arcs = {settle[pending]: orig, **arcs}
        moved = False
        for label, target in arcs.items():
            phase = gate[label]
            if not phase:
                if phase is _CLASH:
                    return None
                continue
            if phase != here:
                # Events that fire here but wait in the new phase are
                # disabled by label; the input must already disable them.
                after = gates[phase]
                if any(other != label and gate[other]
                       and after[other] is _WAIT
                       and (other, label) not in allowed for other in arcs):
                    return None  # a new persistency violation
            state = (target,) + phase
            if state not in seen:
                seen.add(state)
                new.add_state(state, codes[target] + (phase[0],))
                queue.append(state)
            new.add_arc(source, label, state)
            reached.add(label)
            moved = True
        if not moved and arcs:
            return None  # a new deadlock

    if not reached >= sg.live_labels().union(settle.values()):
        return None  # an event, or a csc transition, never fires
    return new


def _gates(sg: StateGraph, rise: str, fall: str, style: str,
           settle: Dict[str, str]) -> Dict[Tuple, Dict[str, object]]:
    """Per phase ``(value, pending)``: the phase each event leads to.

    An entry is the next phase, ``_WAIT`` when the event is not enabled in
    this phase, or ``_CLASH`` when firing it makes the candidate infeasible.
    ``settle`` names the csc transition that completes each pending phase.
    """
    idle0, idle1, rising, falling = (0, None), (1, None), (0, "+"), (1, "-")
    gates = {phase: dict.fromkeys(sg.events, phase)
             for phase in (idle0, idle1, rising, falling)}
    if style == "threading":
        # x waits for the previous handshake to finish, y waits for csc+.
        for gate in gates.values():
            gate[rise] = gate[fall] = _WAIT
        gates[idle0][rise] = rising
        gates[idle1][fall] = falling
    else:
        gates[idle0].update({rise: rising, fall: _CLASH})
        gates[idle1].update({rise: _CLASH, fall: falling})
        waiting = dict.fromkeys((label for label in sg.events
                                 if not sg.is_input_label(label)), _WAIT)
        for phase in (rising, falling):
            gate = gates[phase]
            gate.update(waiting)  # non-inputs wait for the csc transition
            for trigger in (rise, fall):
                if gate[trigger] is not _WAIT:
                    gate[trigger] = _CLASH  # an input trigger overtook it
    gates[rising][settle["+"]] = idle1
    gates[falling][settle["-"]] = idle0
    return gates


def _prepare_extended(sg: StateGraph, signal: str) -> StateGraph:
    """Fresh SG sharing the original's signals plus the new internal one."""
    if signal in sg.kinds:
        raise ValueError(f"signal {signal!r} is already declared")
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    new.declare_event(f"{signal}+", SignalEvent(signal, Direction.RISE))
    new.declare_event(f"{signal}-", SignalEvent(signal, Direction.FALL))
    return new


def enumerate_insertions(sg: StateGraph, signal: str
                         ) -> List[Tuple[InsertionChoice, StateGraph]]:
    """All feasible single-signal insertions over both styles that strictly
    reduce the CSC conflict count, best first.

    The walk alone decides feasibility, output persistency included: a
    phase change that makes an enabled event wait rejects the candidate
    unless the input already has that ``(disabled, by)`` pair.  That is
    exact because inputs never wait (see the module docstring).  The
    input's violations are computed once per call, and no candidate is
    checked after it is built.
    """
    baseline_conflicts = conflict_count(sg)
    if baseline_conflicts == 0:
        return []
    live_labels = sg.live_labels()
    live = [label for label in sorted(sg.events) if label in live_labels]
    allowed = _disabling_pairs(sg)
    found: List[Tuple[Tuple, InsertionChoice, StateGraph]] = []
    for style, rise, fall, value in product(STYLES, live, live, (0, 1)):
        candidate = _insert(sg, rise, fall, signal, value, style, allowed)
        if candidate is None:
            continue
        conflicts = conflict_count(candidate)
        if conflicts >= baseline_conflicts:
            continue
        key = (conflicts, len(candidate), style, rise, fall, value)
        found.append((key, InsertionChoice(signal, rise, fall, value,
                                           conflicts, len(candidate), style),
                      candidate))
    found.sort(key=lambda item: item[0])
    return [(choice, candidate) for _, choice, candidate in found]


@dataclass
class ResolutionResult:
    """Outcome of the greedy CSC resolution loop."""

    sg: StateGraph
    insertions: List[InsertionChoice]
    resolved: bool

    @property
    def signal_count(self) -> int:
        return len(self.insertions)


def resolve_csc(sg: StateGraph, max_signals: int = 4) -> ResolutionResult:
    """Insert state signals until CSC holds, by bounded best-first search.

    Greedy insertion can paint itself into a corner (the locally best first
    signal may leave conflicts no second signal can separate), so a small
    beam of the most promising partial solutions is kept per level.  The
    first fully resolved solution with the fewest signals wins; if none
    resolves within ``max_signals``, the best partial result is returned.
    The new signals are the first ``csc<n>`` names ``sg`` does not declare
    yet.
    """
    conflicts = conflict_count(sg)
    if conflicts == 0:
        return ResolutionResult(sg=sg, insertions=[], resolved=True)

    names = (f"{_PREFIX}{n}" for n in count()
             if f"{_PREFIX}{n}" not in sg.kinds)
    Partial = Tuple[StateGraph, List[InsertionChoice]]
    frontier: List[Partial] = [(sg, [])]
    best_partial: Tuple[int, int, StateGraph, List[InsertionChoice]] = (
        conflicts, 0, sg, [])

    for _ in range(max_signals):
        signal = next(names)
        candidates: List[Tuple[Tuple, StateGraph, List[InsertionChoice]]] = []
        for current, insertions in frontier:
            for choice, candidate in enumerate_insertions(
                    current, signal)[: 2 * _BEAM_WIDTH]:
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
                    for _, candidate, trail in candidates[:_BEAM_WIDTH]]
        head = candidates[0]
        if (head[0][0], len(head[2])) < (best_partial[0], best_partial[1]):
            best_partial = (head[0][0], len(head[2]), head[1], head[2])

    # A candidate without conflicts returns as soon as it is found, so the
    # best partial result still has some.
    _, __, partial_sg, partial_trail = best_partial
    return ResolutionResult(sg=partial_sg, insertions=partial_trail,
                            resolved=False)
