"""Graph-building reference for the CSC insertion walk.

:func:`reference_insert` builds a candidate's product ``(state, value,
pending)`` as a :class:`StateGraph` straight from the two styles' rules,
and checks output persistency the way Definition 5.1 states it: on the
finished graph, with :func:`persistency_violations`, instead of with the
walk's local phase-change rule.  The tests compare the insertion walk's
scores and graphs against it.
"""

from collections import deque

from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.sg.graph import StateGraph
from repro.sg.properties import persistency_violations

#: A ``_next_phase`` outcome: the event fires only after the csc handshake.
WAIT = "wait"
#: A ``_next_phase`` outcome: firing the event makes the candidate infeasible.
CLASH = "clash"


def _next_phase(sg, style, rise, fall, signal, label, value, pending):
    """The ``(value, pending)`` after ``label``, or WAIT, or CLASH."""
    sequencing = style == "sequencing"
    if pending is not None:
        if label == signal + pending:
            return 1 - value, None
        if label in (rise, fall):
            return CLASH if sequencing and sg.is_input_label(label) else WAIT
        if sequencing and not sg.is_input_label(label):
            return WAIT
        return value, pending
    if label == rise:
        if value == 0:
            return 0, "+"
        return CLASH if sequencing else WAIT
    if label == fall:
        if value == 1:
            return 1, "-"
        return CLASH if sequencing else WAIT
    return value, None


def reference_insert(sg, rise, fall, signal, value, style):
    """The graph ``insert_state_signal`` should build, or None."""
    if rise == fall or rise not in sg.events or fall not in sg.events:
        return None
    if style == "threading" and (sg.is_input_label(rise)
                                 or sg.is_input_label(fall)):
        return None
    new = StateGraph(f"{sg.name}+{signal}")
    for name in sg.signals:
        new.declare_signal(name, sg.kinds[name])
    new.declare_signal(signal, SignalKind.INTERNAL)
    for label, event in sg.events.items():
        new.declare_event(label, event)
    new.declare_event(signal + "+", SignalEvent(signal, Direction.RISE))
    new.declare_event(signal + "-", SignalEvent(signal, Direction.FALL))

    initial = (sg.initial, value, None)
    new.add_state(initial, sg.code_of(sg.initial) + (value,))
    queue = deque([initial])
    fired = set()
    while queue:
        state = queue.popleft()
        orig, here, pending = state
        arcs = sg.successors(orig)
        if pending is not None:
            arcs = {signal + pending: orig, **arcs}
        moved = False
        for label, target in arcs.items():
            phase = _next_phase(sg, style, rise, fall, signal, label, here,
                                pending)
            if phase == CLASH:
                return None
            if phase == WAIT:
                continue
            nxt = (target,) + phase
            if nxt not in new:
                new.add_state(nxt, sg.code_of(target) + (phase[0],))
                queue.append(nxt)
            new.add_arc(state, label, nxt)
            fired.add(label)
            moved = True
        if arcs and not moved:
            return None
    if not fired >= sg.live_labels() | {signal + "+", signal + "-"}:
        return None
    allowed = {(v.disabled, v.by) for v in persistency_violations(sg)}
    if not {(v.disabled, v.by) for v in persistency_violations(new)} <= allowed:
        return None
    return new
