"""State-graph generation from an STG.

Plays the token game over the STG's underlying Petri net, then gives every
reachable marking a binary code in one BFS from the initial marking: a
code is the initial code XOR the signal flips along any path to the
marking, and each signal's initial value is inferred from its first
rise/fall arc (``a+`` fires from ``a=0``) unless declared.  Two paths
that reach a marking with different flips, or a rise/fall arc that
disagrees with the inferred value, make the specification inconsistent;
the :class:`ConsistencyError` carries the shortest firing sequence that
ends with the offending firing.  Toggle (2-phase) specifications unfold
instead: their states pair a marking with explicit signal values.

Reachability runs on the shared level loop
(:func:`repro.explore.explore_levels`) with one of three expansions:
the packed level-vectorized engine when the net fits single-bit
markings, the incremental tuple engine otherwise, and the unfolding
for toggle specifications -- all metered by one
:class:`~repro.explore.ExplorationBudget`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from ..explore import (BudgetExceeded, ExplorationBudget, ExplorationRun,
                       explore_levels, explore_packed, explore_tuples,
                       minimal_trace, stubborn_reducer)
from ..explore.frontier import Expansion
from ..petri.net import PackedOverflowError
from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from .graph import StateGraph, StateGraphError

DEFAULT_MAX_STATES = 200_000


class ConsistencyError(StateGraphError):
    """The STG admits no consistent binary encoding.

    ``witness`` holds the shortest firing sequence (transition names)
    from the initial marking that ends with the offending firing, or
    ``None`` when the error was raised without one.
    """

    def __init__(self, message: str,
                 witness: Optional[List[str]] = None) -> None:
        super().__init__(message)
        self.witness = witness


class GenerationBudgetError(StateGraphError, BudgetExceeded):
    """State-graph generation ran out of exploration budget.

    A :class:`StateGraphError` for existing callers and a
    :class:`~repro.explore.BudgetExceeded` for uniform structured
    handling; ``exceedance`` carries the resource, limit and partial
    counts.
    """

    def __init__(self, exceedance) -> None:
        BudgetExceeded.__init__(self, exceedance,
                                exceedance.describe("state graph"))


def generate_sg(stg: STG, *, name: Optional[str] = None,
                budget: Optional[ExplorationBudget] = None,
                stubborn: bool = False,
                engine: str = "auto") -> StateGraph:
    """Build the state graph of an STG.

    For purely rise/fall STGs the states are the reachable markings and the
    binary codes follow the signal flips from the initial state (initial
    values are inferred).  STGs containing toggle events (2-phase
    refinements) are *unfolded*: a state is a (marking, signal values)
    pair, since a marking revisited after an odd number of toggles is a
    different binary state.  Every path builds the graph from one
    :class:`~repro.explore.ExplorationRun` of the level loop.

    ``budget`` caps the exploration (states / arcs / wall-clock), the
    unfolding included; when omitted, the cap is
    :data:`DEFAULT_MAX_STATES` states.  Running out of budget raises
    :class:`GenerationBudgetError` -- never a silently truncated graph.
    With ``stubborn=True``, reachability uses the stubborn-set reduction
    hook, packed runs only: ``engine="tuples"``, a toggle STG or a net
    outside the 1-safe regime raises :class:`StateGraphError`.  A reduced
    graph is meant for reachability/deadlock questions, not synthesis.

    ``engine`` selects the marking-exploration core for rise/fall specs:
    ``"auto"`` tries the packed level-vectorized engine and falls back to
    the tuple engine, ``"packed"`` requires the packed engine (raises
    :class:`StateGraphError` outside the 1-safe regime), ``"tuples"``
    skips the packed attempt.  Toggle STGs always unfold -- the engine
    knob does not apply to the unfolded path.  The symbolic engine never
    materializes a state graph; see
    :func:`repro.sg.properties.check_coding` for symbolic verdicts.

    Raises :class:`ConsistencyError` when no consistent encoding exists and
    :class:`StateGraphError` when the STG still contains dummy transitions
    (refine them away before synthesis).
    """
    if engine not in ("auto", "packed", "tuples"):
        raise StateGraphError(
            f"unknown SG engine {engine!r}; expected 'auto', 'packed' or "
            "'tuples'")
    if budget is None:
        budget = ExplorationBudget(max_states=DEFAULT_MAX_STATES)
    has_toggle = False
    for transition in stg.net.transitions:
        if transition.label is None:
            raise StateGraphError(
                f"STG contains dummy transition {transition.name!r}; "
                "state graphs for synthesis must be dummy-free")
        if (isinstance(transition.label, SignalEvent)
                and transition.label.direction == Direction.TOGGLE):
            has_toggle = True

    sg = StateGraph(name or stg.name)
    for signal, kind in stg.signals.items():
        if kind != SignalKind.DUMMY:
            sg.declare_signal(signal, kind)
    names = stg.net.transition_names
    for transition in names:
        sg.declare_event(transition, stg.event_of(transition))
    try:
        if not has_toggle:
            run = _explore_markings(stg, budget, stubborn, engine)
        elif stubborn:
            raise StateGraphError(_NOT_PACKED.format(
                stg.name, "has toggle events and unfolds"))
        else:
            run = explore_levels("unfolded", *_unfolding(stg, sg.signals),
                                 budget=budget)
    except BudgetExceeded as exceeded:
        raise GenerationBudgetError(exceeded.exceedance) from None

    states = run.states
    sg.add_state(states[0])
    sg.initial = states[0]
    for source, transition, target in run.arcs:
        sg.add_arc(states[source], names[transition], states[target])
    if has_toggle:
        for state in states:
            sg.add_state(state, state[1])
    else:
        _assign_codes(stg, sg)
    return sg


_NOT_PACKED = ("--stubborn (stubborn=True) needs the packed engine, but STG "
               "{!r} {}")


def _explore_markings(stg: STG, budget: ExplorationBudget, stubborn: bool,
                      engine: str) -> ExplorationRun:
    """The marking run of a rise/fall STG, its states tuple markings."""
    packed = stg.net.compile_packed() if engine != "tuples" else None
    if packed is not None:
        reducer = stubborn_reducer(packed) if stubborn else None
        try:
            run = explore_packed(packed, budget=budget, reducer=reducer)
            return ExplorationRun([packed.unpack(row) for row in run.states],
                                  run.arcs, run.levels)
        except PackedOverflowError as overflow:
            why = f"is not 1-safe ({overflow})"
    elif engine == "tuples":
        why = "runs on engine='tuples'"
    else:
        why = ("is outside the packed regime (weighted arcs or multi-token "
               "places)")
    if stubborn:
        raise StateGraphError(_NOT_PACKED.format(stg.name, why))
    if engine == "packed":
        raise StateGraphError(f"STG {stg.name!r} {why}; use engine='auto' "
                              "or 'tuples'")
    return explore_tuples(stg.net, budget=budget)


def _unfolding(stg: STG, signals: List[str]) -> Tuple[Hashable, Expansion]:
    """The 2-phase unfolding's initial state and level expansion.

    A state is a ``(marking, signal values)`` pair; the initial values
    come from ``stg.initial_values`` (default 0).  Firing a rising
    transition from a high state (or falling from low) raises
    :class:`ConsistencyError` with the minimal firing sequence reaching
    it, read off a first-seen parent map.
    """
    net = stg.net
    order = {t: i for i, t in enumerate(net.transition_names)}
    position = {signal: i for i, signal in enumerate(signals)}
    marking = net.initial_marking()
    initial = (marking, tuple(stg.initial_values.get(s, 0) for s in signals))
    enabled_of = {marking: frozenset(net.enabled_transitions(marking))}
    parents: Dict[Hashable, Optional[Tuple[Hashable, str]]] = {initial: None}

    def expand(level: List[int], states: List[Hashable]
               ) -> Iterator[Tuple[int, int, Hashable]]:
        for source in level:
            state = states[source]
            marking, values = state
            enabled = enabled_of[marking]
            for transition in sorted(enabled, key=order.__getitem__):
                event = stg.event_of(transition)
                i = position[event.signal]
                current = values[i]
                # A rise needs the signal low, a fall needs it high.
                if (event.direction != Direction.TOGGLE
                        and current != (event.direction == Direction.FALL)):
                    raise ConsistencyError(
                        f"{transition} fires with {event.signal} already "
                        f"{'high' if current else 'low'}",
                        witness=minimal_trace(parents, state, transition))
                successor, successor_enabled = net.fire_incremental(
                    transition, marking, enabled)
                enabled_of[successor] = successor_enabled
                target = (successor,
                          values[:i] + (1 - current,) + values[i + 1:])
                parents.setdefault(target, (state, transition))
                yield source, order[transition], target

    return initial, expand


def _assign_codes(stg: STG, sg: StateGraph) -> None:
    """Write every state's code into ``sg`` by one BFS from ``sg.initial``.

    Every state must be reachable from ``sg.initial`` (generation
    guarantees it), so a state's code is the initial code XOR the flips
    along any path to it.  The BFS carries those flips as an int per
    state.  A signal's initial value is inferred from its first rise/fall
    arc (``a+`` fires from ``a=0``) and must agree with a declared one;
    a signal that never rises or falls takes its declared value, or 0.
    Each arc is checked as the BFS passes it, and a failing arc raises
    :class:`ConsistencyError` with the shortest firing sequence that ends
    with it.
    """
    position = {signal: i for i, signal in enumerate(sg.signals)}
    declared = {position[signal]: value
                for signal, value in stg.initial_values.items()
                if signal in position}
    inferred: Dict[int, int] = {}
    flips = {sg.initial: 0}
    parents: Dict[Hashable, Optional[Tuple[Hashable, str]]] = {
        sg.initial: None}
    order = [sg.initial]
    for state in order:
        here = flips[state]
        for label, target in sg.successors(state).items():
            event = sg.events[label]
            signal = event.signal
            i = position[signal]
            if event.direction != Direction.TOGGLE:
                before = 0 if event.direction == Direction.RISE else 1
                initial = before ^ (here >> i & 1)
                if i not in inferred:
                    inferred[i] = initial
                    if declared.get(i, initial) != initial:
                        raise ConsistencyError(
                            f"declared initial value {signal}={declared[i]} "
                            f"contradicts {label}, which forces "
                            f"{signal}={initial} at the initial state",
                            witness=minimal_trace(parents, state, label))
                elif inferred[i] != initial:
                    raise ConsistencyError(
                        f"{label} fires with {signal} already "
                        f"{'high' if before == 0 else 'low'}",
                        witness=minimal_trace(parents, state, label))
            reached = here ^ (1 << i)
            seen = flips.get(target)
            if seen is None:
                flips[target] = reached
                parents[target] = (state, label)
                order.append(target)
            elif seen != reached:
                differ = ", ".join(
                    name for j, name in enumerate(sg.signals)
                    if (seen ^ reached) >> j & 1)
                raise ConsistencyError(
                    f"{label} reaches a state that another firing sequence "
                    f"reaches with different flips of {differ}",
                    witness=minimal_trace(parents, state, label))

    start = [inferred.get(i, declared.get(i, 0))
             for i in range(len(sg.signals))]
    for state in sg.states:
        flipped = flips[state]
        sg.add_state(state, [value ^ (flipped >> i & 1)
                             for i, value in enumerate(start)])
