"""State-graph generation from an STG.

Plays the token game over the STG's underlying Petri net, then assigns a
binary code to every reachable marking by constraint propagation: firing
``a+`` requires ``a`` to be 0 before and 1 after, firing ``a~`` flips the
value, and every other signal keeps its value across the arc.  Constraints
are solved with a parity union-find, so toggle (2-phase) specifications are
handled uniformly with 4-phase ones; genuine inconsistencies are reported
with a witness.

Reachability itself runs on the shared exploration core
(:mod:`repro.explore`): the packed level-vectorized engine when the net
fits single-bit markings, the incremental tuple engine otherwise, both
metered by one :class:`~repro.explore.ExplorationBudget`.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..explore import (BudgetExceeded, ExplorationBudget,
                       FrontierExploration, explore_packed, explore_tuples,
                       stubborn_reducer)
from ..petri.net import PackedOverflowError
from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from .graph import StateGraph, StateGraphError

DEFAULT_MAX_STATES = 200_000


class ConsistencyError(StateGraphError):
    """The STG admits no consistent binary encoding.

    When the inconsistency is witnessed during 2-phase unfolding,
    ``witness`` holds the minimal firing sequence (transition names)
    from the initial marking to the offending firing.
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


class _ParityUnionFind:
    """Union-find over variables related by equality or inequality (XOR).

    Each variable carries a parity relative to its class representative;
    uniting two variables with parity 1 states they must differ.
    """

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        self._parity: Dict[Hashable, int] = {}

    def find(self, item: Hashable) -> Tuple[Hashable, int]:
        if item not in self._parent:
            self._parent[item] = item
            self._parity[item] = 0
            return item, 0
        path = []
        node = item
        while self._parent[node] != node:
            path.append(node)
            node = self._parent[node]
        parity = 0
        for step in reversed(path):
            parity ^= self._parity[step]
            self._parent[step] = node
            self._parity[step] = parity
        return node, self._parity[item]

    def union(self, a: Hashable, b: Hashable, parity: int) -> bool:
        """Assert ``value(a) == value(b) XOR parity``; False on contradiction."""
        root_a, parity_a = self.find(a)
        root_b, parity_b = self.find(b)
        if root_a == root_b:
            return (parity_a ^ parity_b) == parity
        self._parent[root_a] = root_b
        self._parity[root_a] = parity_a ^ parity_b ^ parity
        return True


def generate_sg(stg: STG, limit: int = DEFAULT_MAX_STATES,
                name: Optional[str] = None, *,
                budget: Optional[ExplorationBudget] = None,
                stubborn: bool = False,
                engine: str = "auto") -> StateGraph:
    """Build the state graph of an STG.

    For purely rise/fall STGs the states are the reachable markings and the
    binary codes are solved by constraint propagation (initial values are
    inferred).  STGs containing toggle events (2-phase refinements) are
    *unfolded*: a state is a (marking, signal values) pair, since a marking
    revisited after an odd number of toggles is a different binary state.

    ``budget`` caps the exploration (states / arcs / wall-clock); when
    omitted, ``limit`` keeps its historical meaning as a plain state cap.
    Running out of budget raises :class:`GenerationBudgetError` -- never a
    silently truncated graph.  With ``stubborn=True``, reachability uses
    the stubborn-set reduction hook (packed nets only; a reduced graph is
    *not* the full state graph and is meant for reachability/deadlock
    questions, not synthesis).

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
        budget = ExplorationBudget(max_states=limit)
    has_toggle = False
    for transition in stg.net.transitions:
        if transition.label is None:
            raise StateGraphError(
                f"STG contains dummy transition {transition.name!r}; "
                "state graphs for synthesis must be dummy-free")
        if (isinstance(transition.label, SignalEvent)
                and transition.label.direction == Direction.TOGGLE):
            has_toggle = True
    if has_toggle:
        return _generate_unfolded(stg, budget, name)

    sg = StateGraph(name or stg.name)
    for signal, kind in stg.signals.items():
        if kind == SignalKind.DUMMY:
            continue
        sg.declare_signal(signal, kind)
    for transition in stg.net.transition_names:
        sg.declare_event(transition, stg.event_of(transition))

    net = stg.net
    names = net.transition_names
    run = None
    try:
        packed = net.compile_packed() if engine != "tuples" else None
        if packed is None and engine == "packed":
            raise StateGraphError(
                f"STG {stg.name!r} is outside the packed regime (weighted "
                "arcs or multi-token places); use engine='auto' or "
                "'tuples'")
        if packed is not None:
            reducer = stubborn_reducer(packed) if stubborn else None
            try:
                run = explore_packed(packed, budget=budget, reducer=reducer)
                markings = [packed.unpack(row) for row in run.states]
            except PackedOverflowError:
                if engine == "packed":
                    raise
                run = None
        if run is None:
            run = explore_tuples(net, budget=budget)
            markings = run.states
    except BudgetExceeded as exceeded:
        raise GenerationBudgetError(exceeded.exceedance) from None

    sg.add_state(markings[0])
    sg.initial = markings[0]
    for source, transition, target in run.arcs:
        sg.add_arc(markings[source], names[transition], markings[target])

    _assign_codes(stg, sg)
    return sg


def _generate_unfolded(stg: STG, budget: ExplorationBudget,
                       name: Optional[str]) -> StateGraph:
    """SG generation with explicit signal values in the state (2-phase).

    The initial values come from ``stg.initial_values`` (default 0); firing
    a rising transition from a high state (or falling from low) witnesses an
    inconsistent specification -- the :class:`ConsistencyError` carries the
    minimal firing sequence reaching it, reconstructed from the engine's
    parent map.
    """
    sg = StateGraph(name or stg.name)
    for signal, kind in stg.signals.items():
        if kind == SignalKind.DUMMY:
            continue
        sg.declare_signal(signal, kind)
    for transition in stg.net.transition_names:
        sg.declare_event(transition, stg.event_of(transition))
    index = {signal: i for i, signal in enumerate(sg.signals)}

    net = stg.net
    order = {t: i for i, t in enumerate(net.transition_names)}
    initial_values = tuple(stg.initial_values.get(s, 0) for s in sg.signals)
    initial_marking = net.initial_marking()
    initial = (initial_marking, initial_values)
    sg.add_state(initial, initial_values)
    sg.initial = initial
    try:
        engine = FrontierExploration(initial, budget)
        enabled_of = {initial: frozenset(
            net.enabled_transitions(initial_marking))}
        for state in engine.drain():
            enabled = enabled_of.pop(state)
            marking, values = state
            for transition in sorted(enabled, key=order.__getitem__):
                event = stg.event_of(transition)
                position = index[event.signal]
                current = values[position]
                if event.direction == Direction.RISE and current != 0:
                    raise ConsistencyError(
                        f"{transition} fires with {event.signal} already "
                        f"high", witness=engine.trace_to(state, transition))
                if event.direction == Direction.FALL and current != 1:
                    raise ConsistencyError(
                        f"{transition} fires with {event.signal} already "
                        f"low", witness=engine.trace_to(state, transition))
                new_values = list(values)
                new_values[position] = 1 - current
                nxt_marking, nxt_enabled = net.fire_incremental(
                    transition, marking, enabled)
                target = (nxt_marking, tuple(new_values))
                if engine.admit(target, state, transition):
                    sg.add_state(target, target[1])
                    enabled_of[target] = nxt_enabled
                sg.add_arc(state, transition, target)
    except BudgetExceeded as exceeded:
        raise GenerationBudgetError(exceeded.exceedance) from None
    return sg


def _assign_codes(stg: STG, sg: StateGraph) -> None:
    """Solve the encoding constraints and write codes into ``sg``."""
    union_find = _ParityUnionFind()
    fixed: Dict[Hashable, Tuple[int, str]] = {}  # representative -> (value, why)

    def fix(var: Hashable, value: int, why: str) -> None:
        root, parity = union_find.find(var)
        want = value ^ parity
        if root in fixed and fixed[root][0] != want:
            raise ConsistencyError(
                f"inconsistent encoding: {why} conflicts with {fixed[root][1]}")
        fixed.setdefault(root, (want, why))

    for source, label, target in sg.arcs():
        event = sg.events[label]
        for signal in sg.signals:
            src_var = (source, signal)
            dst_var = (target, signal)
            if signal == event.signal:
                if event.direction == Direction.RISE:
                    fix(src_var, 0, f"{label} fired from state with {signal}=1")
                    fix(dst_var, 1, f"{label} fired into state with {signal}=0")
                elif event.direction == Direction.FALL:
                    fix(src_var, 1, f"{label} fired from state with {signal}=0")
                    fix(dst_var, 0, f"{label} fired into state with {signal}=1")
                else:  # toggle
                    if not union_find.union(src_var, dst_var, 1):
                        raise ConsistencyError(
                            f"toggle {label} requires {signal} to flip, but the "
                            f"states are already constrained equal")
            else:
                if not union_find.union(src_var, dst_var, 0):
                    raise ConsistencyError(
                        f"firing {label} must preserve {signal}, but the states "
                        f"are constrained to differ")

    # Re-check fixed values against merged classes (unions after fixes).
    merged: Dict[Hashable, Tuple[int, str]] = {}
    for root, (value, why) in list(fixed.items()):
        rep, parity = union_find.find(root)
        want = value ^ parity
        if rep in merged and merged[rep][0] != want:
            raise ConsistencyError(
                f"inconsistent encoding: {why} conflicts with {merged[rep][1]}")
        merged.setdefault(rep, (want, why))

    codes: Dict[Hashable, List[int]] = {state: [] for state in sg.states}
    for state in sg.states:
        for signal in sg.signals:
            rep, parity = union_find.find((state, signal))
            if rep in merged:
                value = merged[rep][0] ^ parity
            else:
                # Unconstrained class: seed from the declared initial value of
                # the signal at the initial state, defaulting to 0.
                init_rep, init_parity = union_find.find((sg.initial, signal))
                if init_rep == rep:
                    seed = stg.initial_values.get(signal, 0)
                    value = seed ^ init_parity ^ parity
                else:
                    value = stg.initial_values.get(signal, 0) ^ parity
            codes[state].append(value)

    # Honour explicitly declared initial values when they are consistent.
    initial_code = codes[sg.initial]
    for signal, declared in stg.initial_values.items():
        if signal not in sg.kinds:
            continue
        index = sg.signal_index(signal)
        actual = initial_code[index]
        if actual != declared:
            rep, _ = union_find.find((sg.initial, signal))
            if rep in merged:
                raise ConsistencyError(
                    f"declared initial value {signal}={declared} contradicts the "
                    f"encoding forced by the STG ({signal}={actual} at the initial "
                    f"state)")
            # Free signal: flip the whole (connected) class.
            for state in sg.states:
                state_rep, parity = union_find.find((state, signal))
                if state_rep == rep:
                    codes[state][index] ^= 1
    for state, code in codes.items():
        sg.add_state(state, code)
