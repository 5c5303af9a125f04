"""Level-synchronized frontier engines.

One level loop, :func:`explore_levels`, runs every explicit state-space
walk: breadth-first over levels, one
:class:`~repro.explore.budget.BudgetMeter` charging every arc and
admitted state, one clock check, span and heartbeat per level.  What
differs between walks is only how a level is expanded -- an expansion
function yields the level's ``(source, transition, successor)`` arcs and
the loop does the rest:

* :func:`explore_packed` computes a whole level's enabled sets per
  transition with int-wide bitwise ops
  (:meth:`repro.petri.net.PackedNet.enabled_columns`) and expands them
  transition by transition -- or, turned state-major, state by state
  through a reducer such as the stubborn-set selector, or as a 2-phase
  unfolding whose rows carry the signal values above the places;
* :func:`explore_tuples` is the per-state fallback for nets outside the
  1-safe packed regime, 2-phase ones included, and the baseline the
  bench compares against;
* the conformance product (:mod:`repro.verify.conformance`) yields
  circuit and environment moves as int codes over ``(net values, spec
  state)`` pairs, and refutes a property by raising in the middle of a
  level.

A 2-phase run takes one effect per transition (:data:`Effect`): the
signal it flips and a guard on that signal's value before, checked for
a whole packed level at once; a failed guard raises
:class:`GuardFailure`.  Whatever leaves the loop -- a guard failure, a
product refutation, :class:`~repro.explore.budget.BudgetExceeded` --
carries the run so far as ``run``, and :meth:`ExplorationRun.path`
reads a shortest path to any of its states off its admitting arcs.

All emit the same :class:`ExplorationRun` -- states in admission order
plus each state's ``{transition: target}`` row and admitting arc.  The
two net expansions explore the same state *set*; only the admission order
differs (the packed engine discovers per level transition-major, the
tuple engine state-major).  Everything downstream consumes canonicalized
payloads, so the two orders are interchangeable.  A 2-phase run is
state-major on both engines, so their runs are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (Callable, Dict, Hashable, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)

from ..obs import progress as obs_progress
from ..obs.logs import structured as obs_log
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from ..petri.net import PackedNet, PackedOverflowError, PetriNet, bit_tuple
from .budget import BudgetMeter, ExplorationBudget

__all__ = ["ExplorationRun", "GuardFailure", "explore_levels",
           "explore_packed", "explore_tuples"]

_UNBOUNDED = ExplorationBudget()


def _frontier_heartbeat(engine: str, meter: BudgetMeter, depth: int,
                        frontier: int, states: int, arcs: int,
                        force: bool = False) -> None:
    """One per-level progress event (no-op unless a hook is installed)."""
    if not obs_progress.active():
        return
    elapsed = meter.elapsed()
    fields: Dict[str, object] = {
        "engine": engine, "level": depth, "frontier": frontier,
        "states": states, "arcs": arcs,
        "states_per_s": round(states / elapsed, 1) if elapsed > 0 else 0.0,
    }
    limit = meter.budget.max_states
    if limit is not None:
        fields["budget_remaining"] = int(limit) - states
    obs_progress.emit("frontier", fields, force=force)


def _record_run(engine: str, states: int, arcs: int, levels: int) -> None:
    """Fold one finished reachability run into the default registry."""
    reg = obs_registry()
    reg.counter("repro_explore_runs_total",
                "Completed reachability runs.", engine=engine).inc()
    reg.counter("repro_explore_states_total",
                "States admitted by reachability runs.",
                engine=engine).inc(states)
    reg.counter("repro_explore_arcs_total",
                "Arcs traversed by reachability runs.",
                engine=engine).inc(arcs)
    reg.counter("repro_explore_levels_total",
                "BFS levels expanded by reachability runs.",
                engine=engine).inc(levels)


@dataclass(frozen=True)
class ExplorationRun:
    """Result of one level-loop run (:func:`explore_levels`).

    ``states`` lists states in admission order (index 0 = initial);
    ``succ[s]`` maps each transition fired at state ``s`` to its target,
    in traversal order; ``parents[s]`` is the ``(source, transition)``
    arc that admitted state ``s`` (``None`` for state 0); ``arc_count``
    and ``levels`` count the arcs and BFS levels.  The packed engine's
    states are packed ints, the tuple engine's tuple markings, and the
    2-phase unfolding's ``(marking, signal values)`` pairs.
    """

    states: List[object]
    succ: List[Dict[int, int]]
    parents: List[Optional[Tuple[int, int]]]
    arc_count: int
    levels: int

    def path(self, state: int) -> List[Tuple[int, int, int]]:
        """The arcs of a shortest path from state 0 to state ``state``.

        The arc that admitted a state is the first arc reaching it, and
        the loop admits breadth-first, so following admitting arcs back
        is shortest.
        """
        arcs: List[Tuple[int, int, int]] = []
        while self.parents[state] is not None:
            source, transition = self.parents[state]
            arcs.append((source, transition, state))
            state = source
        return arcs[::-1]


#: ``expand(level, states)`` yields one level's ``(source_index,
#: transition_index, successor)`` arcs; ``level`` holds the indices into
#: ``states`` of the frontier being expanded.
Expansion = Callable[[List[int], List[Hashable]],
                     Iterable[Tuple[int, int, Hashable]]]
Reducer = Callable[[int, int], int]
#: Per transition of a 2-phase run ``(signal, guard)``: the index of the
#: signal a firing flips, and the value it must hold before -- 0 for a
#: rise, 1 for a fall, ``None`` for a toggle, which fires at either.
Effect = Tuple[int, Optional[int]]


class GuardFailure(Exception):
    """A 2-phase firing found its signal already at the value it sets.

    ``args`` are the index of the state the firing leaves and the
    transition's index; :func:`explore_levels` attaches the run up to
    there as ``run``.  Raised where the loop reaches that arc, so a
    budget that trips before it still trips first.
    """


def explore_levels(engine: str, initial: Hashable, expand: Expansion,
                   budget: Optional[ExplorationBudget] = None
                   ) -> ExplorationRun:
    """Breadth-first reachability from ``initial``, one level at a time.

    The only loop that admits states in an explicit walk: it charges
    every arc ``expand`` yields, admits its successor if new and writes
    it into its source's row, checks the clock once per level, opens one ``frontier:level`` span
    per level, sends the per-level heartbeat and records the
    ``repro_explore_*`` counters under ``engine``.  Running out of
    budget raises :class:`~repro.explore.budget.BudgetExceeded`; that
    and any exception ``expand`` raises leave with the run so far as
    ``run``.
    """
    meter = (budget or _UNBOUNDED).meter()
    index: Dict[Hashable, int] = {initial: 0}
    states: List[Hashable] = []
    succ: List[Dict[int, int]] = []
    parents: List[Optional[Tuple[int, int]]] = []
    arcs = 0
    level: List[int] = [0]
    levels = 0
    try:
        meter.admit_state()
        states.append(initial)
        succ.append({})
        parents.append(None)
        while level:
            meter.level = levels
            with obs_span("frontier:level", engine=engine, level=levels,
                          frontier=len(level)) as level_span:
                next_level: List[int] = []
                for source, transition, successor in expand(level, states):
                    meter.charge_arc()
                    target = index.get(successor)
                    if target is None:
                        meter.admit_state()
                        target = len(states)
                        index[successor] = target
                        states.append(successor)
                        succ.append({})
                        parents.append((source, transition))
                        next_level.append(target)
                    succ[source][transition] = target
                    arcs += 1
                meter.check_clock()
                if level_span is not None:
                    level_span.set(admitted=len(next_level),
                                   states=len(states), arcs=arcs)
            _frontier_heartbeat(engine, meter, levels, len(level),
                                len(states), arcs, force=not next_level)
            levels += 1
            level = next_level
    except Exception as stop:
        stop.run = ExplorationRun(states, succ, parents, arcs, levels)
        raise
    _record_run(engine, len(states), arcs, levels)
    return ExplorationRun(states, succ, parents, arcs, levels)


def explore_packed(packed: PackedNet,
                   budget: Optional[ExplorationBudget] = None,
                   reducer: Optional[Reducer] = None,
                   effects: Optional[Sequence[Effect]] = None,
                   values: Tuple[int, ...] = ()) -> ExplorationRun:
    """Vectorized reachability over packed markings.

    Each frontier level is transposed into per-place columns once, and
    each transition's enabled set across the whole level is a single
    int-wide AND -- per-state Python work happens only for states that
    actually fire.  Arcs are yielded transition by transition.

    With a ``reducer`` (``reducer(row, enabled_bits) -> expanded_bits``,
    e.g. a stubborn-set selector) or 2-phase ``effects`` (one
    :data:`Effect` per transition; not both) the level's enabled sets
    are turned state-major instead, and arcs are yielded state by state,
    transitions in declaration order.  A reducer then picks each state's
    expanded transitions.  Effects make the run a 2-phase unfolding from
    signal ``values``, labelled ``unfolded``: a state is one int, the
    marking's place bits with the signal values above them, and a firing
    is ``((row & ~pre) | post) ^ flip``.  The guards of a level are
    checked at once, one AND of a transition's enabled slots with its
    signal's value column, and a failed guard raises
    :class:`GuardFailure` where its arc would be.  The finished run's
    states are ``(marking, values)`` tuple pairs, as
    :func:`explore_tuples` gives them.

    Raises :class:`~repro.petri.net.PackedOverflowError` when the net
    leaves the 1-safe regime mid-run; callers fall back to
    :func:`explore_tuples`.
    """
    pre_masks = packed.pre_masks
    post_masks = packed.post_masks

    def vectorized(level: List[int], states: List[int]
                   ) -> Iterator[Tuple[int, int, int]]:
        rows = [states[i] for i in level]
        for t, mask in enumerate(packed.enabled_columns(rows)):
            clear = ~pre_masks[t]
            post = post_masks[t]
            while mask:
                low = mask & -mask
                mask ^= low
                slot = low.bit_length() - 1
                cleared = rows[slot] & clear
                if cleared & post:
                    raise PackedOverflowError(
                        f"firing {packed.transition_names[t]!r} leaves "
                        f"the 1-safe regime")
                yield level[slot], t, cleared | post

    if effects is not None:
        places = len(packed.place_names)
        run = explore_levels(
            "unfolded", packed.initial | sum(
                value << places + i for i, value in enumerate(values)),
            _state_major(packed, places + len(values), effects), budget)
        return replace(run, states=[(packed.unpack(row), bit_tuple(
            row >> places, len(values))) for row in run.states])
    if reducer is None:
        return explore_levels("packed", packed.initial, vectorized, budget)
    # A reducer is asked state by state; the counter and log line make
    # that per-state cost visible ("why is stubborn-set exploration
    # slower per state?" kept coming up while it was silent).
    obs_registry().counter(
        "repro_frontier_fallback_per_state_total",
        "Packed explorations that dropped to the per-state path "
        "because a reducer was installed.").inc()
    obs_log("frontier.fallback_per_state", engine="packed",
            reason="reducer", transitions=len(packed.transition_names))
    return explore_levels("packed", packed.initial,
                          _state_major(packed, len(packed.place_names),
                                       reducer=reducer), budget)


def _state_major(packed: PackedNet, width: int,
                 effects: Sequence[Effect] = (),
                 reducer: Optional[Reducer] = None) -> Expansion:
    """The state-by-state level expansion of :func:`explore_packed`, on
    rows of ``width`` bits."""
    places = len(packed.place_names)
    clears = [~pre for pre in packed.pre_masks]
    posts = packed.post_masks
    flips = ([1 << places + signal for signal, _ in effects]
             or [0] * len(posts))
    # (transition, its signal's value column, -guard): XORed onto the
    # column, -guard marks the failing slots -- a rise's set ones, a
    # fall's clear ones.
    guarded = [(t, places + signal, -guard)
               for t, (signal, guard) in enumerate(effects)
               if guard is not None]

    def expand(level: List[int], states: List[int]
               ) -> Iterator[Tuple[int, int, int]]:
        rows = [states[i] for i in level]
        columns = packed.level_columns(rows, width)
        enabled = packed.enabled_columns(rows, columns)
        # The first failed guard in yield order, as (slot, transition).
        stop = min([((bad & -bad).bit_length() - 1, t)
                    for t, column, fails in guarded
                    if (bad := enabled[t] & (columns[column] ^ fails))],
                   default=None)
        by_slot = [0] * len(rows)
        for t, mask in enumerate(enabled):
            while mask:
                low = mask & -mask
                mask ^= low
                by_slot[low.bit_length() - 1] |= 1 << t
        if reducer is not None:
            by_slot = list(map(reducer, rows, by_slot))
        if stop is not None:
            del by_slot[stop[0] + 1:]
            by_slot[stop[0]] &= (1 << stop[1]) - 1
        for slot, fired in enumerate(by_slot):
            row = rows[slot]
            while fired:
                low = fired & -fired
                fired ^= low
                t = low.bit_length() - 1
                cleared = row & clears[t]
                if cleared & posts[t]:
                    raise PackedOverflowError(
                        f"firing {packed.transition_names[t]!r} leaves "
                        f"the 1-safe regime")
                yield level[slot], t, (cleared | posts[t]) ^ flips[t]
        if stop is not None:
            raise GuardFailure(level[stop[0]], stop[1])

    return expand


def explore_tuples(net: PetriNet,
                   budget: Optional[ExplorationBudget] = None,
                   effects: Optional[Sequence[Effect]] = None,
                   values: Tuple[int, ...] = ()) -> ExplorationRun:
    """Per-state reachability over tuple markings.

    The general-semantics fallback (and bench baseline): weighted arcs
    and token counts above one are fine here.  Uses
    :meth:`~repro.petri.net.PetriNet.fire_incremental` so each firing
    only rechecks the transitions whose enabling it can change.
    Successors of one state are expanded in net declaration order.

    With ``effects`` the run is the 2-phase unfolding of
    :func:`explore_packed` on ``(marking, signal values)`` states, with
    the same order, label and :class:`GuardFailure`.
    """
    order = {t: i for i, t in enumerate(net.transition_names)}
    initial = net.initial_marking()
    enabled_of = {initial: frozenset(net.enabled_transitions(initial))}

    def expand(level: List[int], states: List[tuple]
               ) -> Iterator[Tuple[int, int, tuple]]:
        for source in level:
            marking = states[source]
            enabled = enabled_of[marking]
            for name in sorted(enabled, key=order.__getitem__):
                successor, successor_enabled = net.fire_incremental(
                    name, marking, enabled)
                enabled_of[successor] = successor_enabled
                yield source, order[name], successor

    def unfolded(level: List[int], states: List[tuple]
                 ) -> Iterator[Tuple[int, int, tuple]]:
        for source in level:
            marking, here = states[source]
            # The marking's own expansion, as a level of one.
            for _, t, successor in expand([0], [marking]):
                signal, guard = effects[t]
                if guard is not None and here[signal] != guard:
                    raise GuardFailure(source, t)
                yield source, t, (successor, here[:signal] + (
                    1 - here[signal],) + here[signal + 1:])

    if effects is None:
        return explore_levels("tuples", initial, expand, budget)
    return explore_levels("unfolded", (initial, values), unfolded, budget)
