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

The walk runs on the input graph's :class:`~repro.sg.graph.GraphIndex`
(dense state and label ids, packed codes, excitation bits): a product
state is ``4 * state + phase``, and each style's gates are four per-phase
lists that a candidate copies and patches at its two triggers.  Scoring a candidate
builds no graph: a finished walk counts its CSC conflicts by bucketing the
product states on ``code | value << len(signals)`` and comparing non-input
excitation masks, and a rejected one names its reason (:data:`REJECTIONS`).
The same walk, asked to build, replays its BFS into a :class:`StateGraph`
(:func:`insert_state_signal`); :func:`resolve_csc` does that only for the
beam survivors it extends and for the graph it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, product
from typing import Dict, List, Optional, Tuple, Union

from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from ..petri.stg import Direction, SignalEvent, SignalKind
from ..sg.graph import StateGraph
from ..sg.properties import conflict_pairs, persistency_violations
from .csc import conflict_count

#: The insertion styles, in the order :func:`enumerate_insertions` tries them.
STYLES = ("threading", "sequencing")

#: Why a walk rejects a candidate: bad triggers (equal, unknown, or an input
#: under threading), a trigger firing out of turn, a new persistency
#: violation, a new deadlock, or an event that never fires.
REJECTIONS = ("trigger", "clash", "persistency", "deadlock", "lost_event")

#: The product phases.  ``phase & 1`` is the csc value; the two pending
#: phases wait for ``csc+`` and ``csc-``.  Built graphs name a product state
#: ``(state, value, pending)``.
_IDLE0, _IDLE1, _RISING, _FALLING = range(4)
_PHASE_NAMES = ((0, None), (1, None), (0, "+"), (1, "-"))

#: Gate entries besides a next phase: the event waits for the csc handshake,
#: or firing it makes the candidate infeasible.
_WAIT = -1
_CLASH = -2

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


class _Index:
    """The walk's phase and gate tables on one input graph's index.

    Labels keep their :class:`~repro.sg.graph.GraphIndex` ids; ``csc+``
    and ``csc-`` are the two ids after them.  ``arcs[phase][state]`` lists
    the state's ``(label, target)`` arcs in ``succ`` order, led in a
    pending phase by the csc transition that settles it (target: the same
    state), and ``enabled[phase][state]`` is the mask of those labels.
    """

    def __init__(self, sg: StateGraph) -> None:
        self.sg = sg
        graph = self.graph = sg.index()
        n = len(graph.labels)  # the id of csc+; n + 1 is csc-
        self.width = len(sg.signals)

        idle = [list(out.items()) for out in graph.succ]
        masks = [sum(1 << label for label, _ in out) for out in idle]
        self.arcs = [idle, idle,
                     [((n, i),) + tuple(out) for i, out in enumerate(idle)],
                     [((n + 1, i),) + tuple(out) for i, out in enumerate(idle)]]
        self.enabled = [masks, masks, [m | 1 << n for m in masks],
                        [m | 2 << n for m in masks]]
        self.live = 0
        for mask in masks:
            self.live |= mask
        self.must_fire = self.live | 3 << n  # and both csc transitions

        # A non-input label excites its (signal, direction), as in
        # csc_conflicts; csc+ and csc- excite their own two.
        classes = len(graph.classes)
        self.excites = graph.excites + [1 << classes, 2 << classes]
        self.excitation: Dict[int, int] = {}  # excitation_of, memoized

        # Per label: the labels whose disabling by it the input already
        # has, and the label itself.
        self.tolerated = [1 << label for label in range(n + 2)]
        for violation in persistency_violations(sg):
            self.tolerated[graph.label_id[violation.by]] |= (
                1 << graph.label_id[violation.disabled])

        self.gates = {style: self._base_gates(style) for style in STYLES}

    def _base_gates(self, style: str) -> Tuple[List[List[int]], List[int],
                                               List[int]]:
        """The style's per-phase gates before the triggers are patched in,
        with the masks of the labels that fire and that wait per phase."""
        n = len(self.graph.labels)
        gates = [[phase] * n + [_WAIT, _WAIT] for phase in range(4)]
        if style == "sequencing":
            for phase in (_RISING, _FALLING):
                gates[phase] = ([phase if is_input else _WAIT
                                 for is_input in self.graph.is_input]
                                + [_WAIT, _WAIT])
        gates[_RISING][n] = _IDLE1
        gates[_FALLING][n + 1] = _IDLE0
        fires = [sum(1 << label for label, phase in enumerate(gate)
                     if phase >= 0) for gate in gates]
        waits = [sum(1 << label for label, phase in enumerate(gate)
                     if phase == _WAIT) for gate in gates]
        return gates, fires, waits

    def gates_for(self, style: str, rise: int, fall: int
                  ) -> Tuple[List[List[int]], List[int], List[int]]:
        """Per phase: the phase each label leads to, or ``_WAIT`` when it
        is not enabled there, or ``_CLASH`` when firing it makes the
        candidate infeasible; and the masks of the labels that fire and
        that wait in each phase."""
        base, base_fires, base_waits = self.gates[style]
        gates = [list(gate) for gate in base]
        idle0, idle1, rising, falling = gates
        if style == "threading":
            # x waits for the previous handshake to finish, y waits for csc+.
            for gate in gates:
                gate[rise] = gate[fall] = _WAIT
            idle0[rise] = _RISING
            idle1[fall] = _FALLING
        else:
            idle0[rise], idle0[fall] = _RISING, _CLASH
            idle1[rise], idle1[fall] = _CLASH, _FALLING
            for gate in (rising, falling):
                for trigger in (rise, fall):
                    if gate[trigger] != _WAIT:
                        gate[trigger] = _CLASH  # an input trigger overtook it
        triggers = 1 << rise | 1 << fall
        fires = [fire & ~triggers for fire in base_fires]
        waits = [wait & ~triggers for wait in base_waits]
        for phase, gate in enumerate(gates):
            for trigger in (rise, fall):
                if gate[trigger] >= 0:
                    fires[phase] |= 1 << trigger
                elif gate[trigger] == _WAIT:
                    waits[phase] |= 1 << trigger
        return gates, fires, waits

    def excitation_of(self, fired: int) -> int:
        """The non-input excitation mask of the labels in ``fired``."""
        excited = 0
        while fired:
            low = fired & -fired
            fired ^= low
            excited |= self.excites[low.bit_length() - 1]
        return excited


def _walk(index: _Index, style: str, rise_trigger: str, fall_trigger: str,
          value: int, signal: str = "", build: bool = False
          ) -> Union[str, Tuple[int, int], StateGraph]:
    """Walk one candidate's product from ``(initial, value, idle)`` in BFS
    order, the settling csc transition first, then ``succ`` order.

    Returns the :data:`REJECTIONS` reason of an infeasible candidate.  A
    feasible one scores as ``(conflicts, states)``; with ``build`` it is
    replayed into a graph with the new internal ``signal`` instead.
    """
    graph = index.graph
    rise = graph.label_id.get(rise_trigger)
    fall = graph.label_id.get(fall_trigger)
    if (rise is None or fall is None or rise == fall
            or style == "threading" and (graph.is_input[rise]
                                         or graph.is_input[fall])):
        return "trigger"
    gates, fires, waits = index.gates_for(style, rise, fall)
    arcs, enabled, tolerated = index.arcs, index.enabled, index.tolerated
    start = 4 * graph.initial + value
    seen = bytearray(4 * len(graph.states))
    seen[start] = 1
    order = [start]
    reached = 0
    for state in order:  # grows as the BFS discovers states
        orig, phase = state >> 2, state & 3
        gate = gates[phase]
        here = enabled[phase][orig]
        fired = here & fires[phase]
        for label, target in arcs[phase][orig]:
            after = gate[label]
            if after < 0:
                if after == _CLASH:
                    return "clash"
                continue
            # Events that fire here but wait in the new phase are disabled
            # by label; the input must already disable them.
            if after != phase and fired & waits[after] & ~tolerated[label]:
                return "persistency"
            nxt = 4 * target + after
            if not seen[nxt]:
                seen[nxt] = 1
                order.append(nxt)
        if here and not fired:
            return "deadlock"
        reached |= fired
    if index.must_fire & ~reached:
        return "lost_event"  # an event, or a csc transition, never fires
    if build:
        return _replay(index, gates, order, signal)

    codes, width, known = index.graph.codes, index.width, index.excitation
    keys = [codes[state >> 2] | (state & 1) << width for state in order]
    fired_at = [enabled[state & 3][state >> 2] & fires[state & 3]
                for state in order]
    for mask in set(fired_at).difference(known):
        known[mask] = index.excitation_of(mask)
    _, conflicts = conflict_pairs(keys, map(known.__getitem__, fired_at))
    return conflicts, len(order)


def _replay(index: _Index, gates: List[List[int]], order: List[int],
            signal: str) -> StateGraph:
    """The walked product as a graph: states in discovery order, each
    state's arcs in walk order."""
    sg = index.sg
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    new.declare_event(f"{signal}+", SignalEvent(signal, Direction.RISE))
    new.declare_event(f"{signal}-", SignalEvent(signal, Direction.FALL))
    labels = index.graph.labels + [f"{signal}+", f"{signal}-"]
    states, codes = index.graph.states, sg._codes
    names = {}
    for state in order:
        orig, phase = state >> 2, state & 3
        names[state] = name = (states[orig],) + _PHASE_NAMES[phase]
        new.add_state(name, codes[states[orig]] + (phase & 1,))
    new.initial = names[order[0]]
    for state in order:
        orig, phase = state >> 2, state & 3
        gate = gates[phase]
        for label, target in index.arcs[phase][orig]:
            after = gate[label]
            if after >= 0:
                new.add_arc(names[state], labels[label],
                            names[4 * target + after])
    return new


def _record_work(walks: int = 0, feasible: int = 0, built: int = 0,
                 levels: int = 0,
                 rejected: Optional[Dict[str, int]] = None) -> None:
    """Fold insertion work into the default registry."""
    reg = obs_registry()
    reg.counter("repro_insertion_walks_total",
                "Insertion candidates walked for a score.").inc(walks)
    reg.counter("repro_insertion_feasible_total",
                "Insertion candidates whose walk finished.").inc(feasible)
    reg.counter("repro_insertion_built_total",
                "Insertion candidates built as state graphs.").inc(built)
    reg.counter("repro_insertion_levels_total",
                "Beam levels searched by resolve_csc.").inc(levels)
    for reason, n in (rejected or {}).items():
        reg.counter("repro_insertion_rejected_total",
                    "Insertion candidates rejected by their walk, by reason.",
                    reason=reason).inc(n)


def insertion_work() -> Dict[str, int]:
    """The insertion counters of the default registry.

    Candidates ``walks``-ed for a score, the ``feasible`` ones among them,
    candidates ``built`` as graphs and the beam ``levels`` searched.
    """
    reg = obs_registry()
    return {key: int(reg.value(f"repro_insertion_{key}_total") or 0)
            for key in ("walks", "feasible", "built", "levels")}


def _build(index: _Index, choice: InsertionChoice) -> StateGraph:
    """The graph of a choice scored on ``index``."""
    built = _walk(index, choice.style, choice.rise_trigger,
                  choice.fall_trigger, choice.initial_value, choice.signal,
                  build=True)
    _record_work(built=1)
    return built


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
    if signal in sg.kinds:
        raise ValueError(f"signal {signal!r} is already declared")
    built = _walk(_Index(sg), style, rise_trigger, fall_trigger,
                  initial_value, signal, build=True)
    if isinstance(built, str):
        return None
    _record_work(built=1)
    return built


def _score_insertions(index: _Index, signal: str, baseline: int
                      ) -> Tuple[List[InsertionChoice], int, int]:
    """The improving choices on ``index``, best first, with the number of
    candidates walked and of those that were feasible."""
    live = [label for label in sorted(index.graph.labels)
            if index.live >> index.graph.label_id[label] & 1]
    rejected = dict.fromkeys(REJECTIONS, 0)
    found: List[InsertionChoice] = []
    walks = 0
    for style, rise, fall, value in product(STYLES, live, live, (0, 1)):
        walks += 1
        outcome = _walk(index, style, rise, fall, value)
        if isinstance(outcome, str):
            rejected[outcome] += 1
            continue
        conflicts, states = outcome
        if conflicts >= baseline:
            continue
        found.append(InsertionChoice(signal, rise, fall, value, conflicts,
                                     states, style))
    found.sort(key=lambda c: (c.conflicts_after, c.states_after, c.style,
                              c.rise_trigger, c.fall_trigger,
                              c.initial_value))
    feasible = walks - sum(rejected.values())
    _record_work(walks=walks, feasible=feasible, rejected=rejected)
    return found, walks, feasible


def enumerate_insertions(sg: StateGraph, signal: str
                         ) -> List[InsertionChoice]:
    """All feasible single-signal insertions over both styles that strictly
    reduce the CSC conflict count, best first.

    Each candidate is scored by its walk alone, and no graph is built;
    :func:`insert_state_signal` builds the one a choice names.  The walk
    decides output persistency too: a phase change that makes an enabled
    event wait rejects the candidate unless the input already has that
    ``(disabled, by)`` pair.  That is exact because inputs never wait (see
    the module docstring).  The input's violations are computed once per
    call.  Raises ``ValueError`` when ``sg`` has conflicts and already
    declares ``signal``.
    """
    baseline = conflict_count(sg)
    if baseline == 0:
        return []
    if signal in sg.kinds:
        raise ValueError(f"signal {signal!r} is already declared")
    return _score_insertions(_Index(sg), signal, baseline)[0]


@dataclass
class ResolutionResult:
    """Outcome of the greedy CSC resolution loop."""

    sg: StateGraph
    insertions: List[InsertionChoice]
    resolved: bool


def resolve_csc(sg: StateGraph, max_signals: int = 4) -> ResolutionResult:
    """Insert state signals until CSC holds, by bounded best-first search.

    Greedy insertion can paint itself into a corner (the locally best first
    signal may leave conflicts no second signal can separate), so a small
    beam of the most promising partial solutions is kept per level.  The
    first fully resolved solution with the fewest signals wins; if none
    resolves within ``max_signals``, the best partial result is returned.
    The new signals are the first ``csc<n>`` names ``sg`` does not declare
    yet.  Candidates are scored without graphs; a level builds the graphs
    of the partial solutions it extends, and the result is built last.
    """
    conflicts = conflict_count(sg)
    if conflicts == 0:
        return ResolutionResult(sg=sg, insertions=[], resolved=True)

    names = (f"{_PREFIX}{n}" for n in count()
             if f"{_PREFIX}{n}" not in sg.kinds)
    # A partial solution: the index its last choice was scored on (None
    # for ``sg`` itself) and its choices.
    Partial = Tuple[Optional[_Index], List[InsertionChoice]]
    frontier: List[Partial] = [(None, [])]
    best_partial: Tuple[int, int, Optional[_Index], List[InsertionChoice]] = (
        conflicts, 0, None, [])

    for level in range(max_signals):
        signal = next(names)
        work = dict.fromkeys(("walks", "feasible", "improving", "built"), 0)
        candidates: List[Tuple[Tuple, _Index, List[InsertionChoice]]] = []
        resolved: Optional[ResolutionResult] = None
        with obs_span("resolve:level", level=level, signal=signal,
                      frontier=len(frontier)) as record:
            for parent, insertions in frontier:
                if parent is None:
                    current, baseline = sg, conflicts
                else:
                    current = _build(parent, insertions[-1])
                    baseline = insertions[-1].conflicts_after
                    work["built"] += 1
                index = _Index(current)
                choices, walks, feasible = _score_insertions(index, signal,
                                                             baseline)
                work["walks"] += walks
                work["feasible"] += feasible
                work["improving"] += len(choices)
                for choice in choices[: 2 * _BEAM_WIDTH]:
                    trail = insertions + [choice]
                    if choice.conflicts_after == 0:
                        resolved = ResolutionResult(
                            sg=_build(index, choice), insertions=trail,
                            resolved=True)
                        work["built"] += 1
                        break
                    key = (choice.conflicts_after, choice.states_after)
                    candidates.append((key, index, trail))
                if resolved is not None:
                    break
            _record_work(levels=1)
            if record is not None:
                record.set(**work)
        if resolved is not None:
            return resolved
        if not candidates:
            break
        candidates.sort(key=lambda item: item[0])
        frontier = [(index, trail)
                    for _, index, trail in candidates[:_BEAM_WIDTH]]
        (head_conflicts, _), head_index, head_trail = candidates[0]
        if (head_conflicts, len(head_trail)) < best_partial[:2]:
            best_partial = (head_conflicts, len(head_trail), head_index,
                            head_trail)

    # A candidate without conflicts returns as soon as it is found, so the
    # best partial result still has some.
    _, __, index, trail = best_partial
    partial = sg if index is None else _build(index, trail[-1])
    return ResolutionResult(sg=partial, insertions=trail, resolved=False)
