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
instead: their states pair a marking with explicit signal values, each
transition flips its signal's value, and a rise (fall) needs it low
(high).

Reachability runs on the shared level loop
(:func:`repro.explore.explore_levels`) with one of two engines, both
metered by one :class:`~repro.explore.ExplorationBudget`: the packed
level-vectorized engine when the net fits single-bit markings, the
incremental tuple engine otherwise.  A 2-phase run carries its signal
values in the same state, as bits above the places of a packed row or
as a tuple beside a tuple marking.  The graph adopts the run's
numbering and the successor rows the level loop wrote, and codes come
packed from a BFS over those rows.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..explore import (BudgetExceeded, ExplorationBudget, ExplorationRun,
                       explore_packed, explore_tuples, minimal_trace,
                       stubborn_reducer)
from ..explore.frontier import Effect, GuardFailure
from ..petri.net import PackedOverflowError, pack_bits
from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from .graph import StateGraph, StateGraphError

DEFAULT_MAX_STATES = 200_000


def generation_budget(max_states: Optional[int] = None,
                      max_arcs: Optional[int] = None) -> ExplorationBudget:
    """A generation's budget; ``max_states`` defaults to
    :data:`DEFAULT_MAX_STATES`."""
    return ExplorationBudget(
        max_states=DEFAULT_MAX_STATES if max_states is None else max_states,
        max_arcs=max_arcs)


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
    unfolding included; when omitted, it is :func:`generation_budget`'s
    default.  Running out of budget raises
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
    effects: Optional[List[Effect]] = None
    values: Tuple[int, ...] = ()
    if has_toggle:
        if stubborn:
            raise StateGraphError(_NOT_PACKED.format(
                stg.name, "has toggle events and unfolds"))
        # Each transition flips its signal; a rise needs it low, a fall high.
        effects = [(sg.signal_index(event.signal),
                    None if event.direction == Direction.TOGGLE
                    else int(event.direction == Direction.FALL))
                   for event in map(stg.event_of, names)]
        values = tuple(stg.initial_values.get(s, 0) for s in sg.signals)
        engine = "auto"
    try:
        run = _explore(stg, budget or generation_budget(), stubborn, engine,
                       effects, values)
    except BudgetExceeded as exceeded:
        raise GenerationBudgetError(exceeded.exceedance) from None
    except GuardFailure as failure:
        source, transition = failure.args
        raise _inconsistent(
            f"{names[transition]} fires with "
            f"{stg.event_of(names[transition]).signal} already "
            f"{'low' if effects[transition][1] else 'high'}",
            names, failure.run.parents, source, transition) from None

    # Labels were declared in transition order, so a transition is its
    # label id and the run's rows are the graph's.
    if has_toggle:
        codes = [pack_bits(values) for _, values in run.states]
    else:
        codes = _assign_codes(stg, sg.signals, run.succ)
    return sg.adopt(run.states, run.succ, codes)


_NOT_PACKED = ("--stubborn (stubborn=True) needs the packed engine, but STG "
               "{!r} {}")


def _explore(stg: STG, budget: ExplorationBudget, stubborn: bool,
             engine: str, effects: Optional[List[Effect]],
             values: Tuple[int, ...]) -> ExplorationRun:
    """The run of ``stg``, on tuple markings, or on ``(marking, values)``
    pairs when 2-phase ``effects`` unfold it."""
    packed = stg.net.compile_packed() if engine != "tuples" else None
    if packed is not None:
        reducer = stubborn_reducer(packed) if stubborn else None
        try:
            run = explore_packed(packed, budget=budget, reducer=reducer,
                                 effects=effects, values=values)
            return run if effects is not None else replace(
                run, states=[packed.unpack(row) for row in run.states])
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
    return explore_tuples(stg.net, budget=budget, effects=effects,
                          values=values)


def _inconsistent(message: str, names: Sequence[str], parents: Sequence,
                  state: int, transition: int) -> "ConsistencyError":
    """A :class:`ConsistencyError` whose witness follows ``parents``
    (``(parent, transition)`` per run state) to ``state``, then fires
    ``transition``."""
    return ConsistencyError(message, witness=[
        names[t] for t in minimal_trace(parents, state, transition)])


def _assign_codes(stg: STG, signals: List[str],
                  out: List[Dict[int, int]]) -> List[int]:
    """Every run state's packed code, by one BFS over the run's arcs.

    ``out[s]`` maps each transition enabled at state ``s`` to its target,
    in the graph's successor order, so this BFS meets arcs as one over the
    graph would.  Every state is reachable from state 0, so a state's
    code is the initial code XOR the flips along any path to it; the BFS
    carries those flips as an int per state.  A signal's initial value is
    inferred from its first rise/fall arc (``a+`` fires from ``a=0``) and
    must agree with a declared one; a signal that never rises or falls
    takes its declared value, or 0.  Each arc is checked as the BFS
    passes it, and a failing arc raises :class:`ConsistencyError` with
    the shortest firing sequence that ends with it.
    """
    names = stg.net.transition_names
    declared = {signals.index(signal): value
                for signal, value in stg.initial_values.items()
                if signal in signals}
    bits = [1 << signals.index(event.signal)
            for event in map(stg.event_of, names)]
    # The bit a fall needs set before it fires; a rise needs it clear.
    highs = [bit if stg.event_of(name).direction == Direction.FALL else 0
             for bit, name in zip(bits, names)]
    known = start = 0  # signals with an inferred initial value, and it
    flips = [-1] * len(out)
    flips[0] = 0
    parents: List[Optional[Tuple[int, int]]] = [None] * len(out)
    order = [0]
    for state in order:
        here = flips[state]
        for transition, target in out[state].items():
            bit = bits[transition]
            if not known & bit:
                known |= bit
                start |= (highs[transition] ^ here) & bit
                i = bit.bit_length() - 1
                if declared.get(i, start >> i & 1) != start >> i & 1:
                    raise _inconsistent(
                        f"declared initial value {signals[i]}={declared[i]}"
                        f" contradicts {names[transition]}, which forces "
                        f"{signals[i]}={start >> i & 1} at the initial state",
                        names, parents, state, transition)
            elif (start ^ here) & bit != highs[transition]:
                raise _inconsistent(
                    f"{names[transition]} fires with "
                    f"{stg.event_of(names[transition]).signal} already "
                    f"{'low' if highs[transition] else 'high'}",
                    names, parents, state, transition)
            reached = here ^ bit
            if flips[target] < 0:
                flips[target] = reached
                parents[target] = (state, transition)
                order.append(target)
            elif flips[target] != reached:
                raise _inconsistent(
                    f"{names[transition]} reaches a state that another "
                    f"firing sequence reaches with different flips of "
                    + ", ".join(name for j, name in enumerate(signals)
                                if (flips[target] ^ reached) >> j & 1),
                    names, parents, state, transition)
    for i, value in declared.items():
        if not known >> i & 1:
            start |= value << i
    return [start ^ flipped for flipped in flips]
