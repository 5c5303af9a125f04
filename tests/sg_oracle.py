"""Graph-walking references for state-graph generation, the concurrency
relation and FwdRed.

The reduction space tests concurrency on diamond masks and truncates
excitation regions on arc masks.  :func:`concurrent_pairs` and
:func:`backward_reachable` derive the same sets by walking a built
:class:`~repro.sg.graph.StateGraph`, so the tests can check the masks
against Definition 2.1 and the FwdRed step directly.

Generation keeps its runs on ints until the graph is filled;
:func:`reference_sg` builds the same graph on tuples and dicts, and the
tests compare the two byte for byte.  A run keeps rows, not arcs;
:func:`run_arcs` rebuilds its arcs in the order the level loop
traversed them.
"""

from collections import deque
from dataclasses import replace
from typing import (Dict, Hashable, Iterable, Iterator, List, Optional, Set,
                    Tuple)

from repro.explore import (BudgetExceeded, ExplorationBudget, ExplorationRun,
                           explore_levels, explore_packed, explore_tuples,
                           minimal_trace)
from repro.explore.frontier import Expansion
from repro.petri.net import PackedOverflowError
from repro.petri.stg import STG, Direction, SignalKind
from repro.sg.generator import (DEFAULT_MAX_STATES, ConsistencyError,
                                GenerationBudgetError)
from repro.sg.graph import State, StateGraph


def concurrent_pairs(sg: StateGraph) -> Set[Tuple[str, str]]:
    """All label pairs with a diamond (Definition 2.1), as sorted tuples."""
    pairs: Set[Tuple[str, str]] = set()
    for state in sg.states:
        out = sg.successors(state)
        for label_a, via_a in out.items():
            for label_b, via_b in out.items():
                if label_a >= label_b:
                    continue
                end = sg.target(via_a, label_b)
                if end is not None and sg.target(via_b, label_a) == end:
                    pairs.add((label_a, label_b))
    return pairs


def backward_reachable(sg: StateGraph, targets: Iterable[State],
                       within: Optional[Set[State]] = None) -> Set[State]:
    """States from which some target is reachable.

    With ``within``, the walk stays inside that set and a target outside
    it is dropped.
    """
    result = {t for t in targets if within is None or t in within}
    queue = deque(result)
    while queue:
        for _, source in sg.predecessors(queue.popleft()):
            if source not in result and (within is None or source in within):
                result.add(source)
                queue.append(source)
    return result


def reference_sg(stg: STG, budget: Optional[ExplorationBudget] = None
                 ) -> StateGraph:
    """The graph :func:`~repro.sg.generator.generate_sg` must equal,
    built on tuples and dicts: tuple states joined arc by arc through
    ``add_arc``, 2-phase specs unfolded one ``(marking, values)`` state
    at a time (:func:`unfolding`) and rise/fall codes given by a BFS over
    the graph's dicts (:func:`assign_codes`).  Engine ``auto``, no
    stubborn reduction.
    """
    if budget is None:
        budget = ExplorationBudget(max_states=DEFAULT_MAX_STATES)
    has_toggle = any(stg.event_of(t).direction == Direction.TOGGLE
                     for t in stg.net.transition_names)
    sg = StateGraph(stg.name)
    for signal, kind in stg.signals.items():
        if kind != SignalKind.DUMMY:
            sg.declare_signal(signal, kind)
    names = stg.net.transition_names
    for transition in names:
        sg.declare_event(transition, stg.event_of(transition))
    transition_major = False  # the packed engine's level order
    try:
        if has_toggle:
            run = explore_levels("unfolded", *unfolding(stg, sg.signals),
                                 budget=budget)
        else:
            run = None
            packed = stg.net.compile_packed()
            if packed is not None:
                try:
                    run = explore_packed(packed, budget=budget)
                    run = replace(run, states=[
                        packed.unpack(row) for row in run.states])
                    transition_major = True
                except PackedOverflowError:
                    run = None
            if run is None:
                run = explore_tuples(stg.net, budget=budget)
    except BudgetExceeded as exceeded:
        raise GenerationBudgetError(exceeded.exceedance) from None

    states = run.states
    sg.add_state(states[0])
    sg.initial = states[0]
    for source, transition, target in run_arcs(run, transition_major):
        sg.add_arc(states[source], names[transition], states[target])
    if has_toggle:
        for state in states:
            sg.add_state(state, state[1])
    else:
        assign_codes(stg, sg)
    return sg


def run_arcs(run: ExplorationRun, transition_major: bool = False
             ) -> List[Tuple[int, int, int]]:
    """``run``'s ``(source, transition, target)`` arcs, rebuilt from its
    rows in the order the level loop traversed them.

    A state-major expansion (the tuple engine, a reducer, the 2-phase
    unfolding) traverses state by state, so its arcs are its rows in
    state order.  The packed engine's ``transition_major`` expansion
    traverses each BFS level transition by transition, each
    transition's sources in admission order; a state's level is one
    past that of the state whose arc admitted it.
    """
    arcs = [(source, transition, target)
            for source, row in enumerate(run.succ)
            for transition, target in row.items()]
    if not transition_major:
        return arcs
    depth = [0] * len(run.states)
    for state, parent in enumerate(run.parents[1:], 1):
        depth[state] = depth[parent[0]] + 1
    return sorted(arcs, key=lambda arc: (depth[arc[0]], arc[1], arc[0]))


def unfolding(stg: STG, signals: List[str]) -> Tuple[Hashable, Expansion]:
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


def assign_codes(stg: STG, sg: StateGraph) -> None:
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
