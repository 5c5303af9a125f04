"""CSC conflict analysis.

Complete State Coding is the paper's second implementability condition: two
states with equal binary codes must enable the same non-input events.
Beyond the raw conflict list (:func:`repro.sg.properties.csc_conflicts`)
this module provides the conflict count the insertion search minimises and
the conflicts no inserted signal can separate.
"""

from __future__ import annotations

from typing import List

from ..sg.graph import State, StateGraph
from ..sg.properties import CSCConflict, csc_conflicts


def conflict_count(sg: StateGraph) -> int:
    """Number of CSC conflict pairs (the quantity the cost function tracks)."""
    return len(csc_conflicts(sg))


def _input_reachable(sg: StateGraph, source: State, target: State) -> bool:
    """True when ``target`` is reachable from ``source`` via input events only."""
    frontier = [source]
    seen = {source}
    while frontier:
        state = frontier.pop()
        if state == target:
            return True
        for label, nxt in sg.successors(state).items():
            if sg.is_input_label(label) and nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return False


def irresolvable_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """Conflict pairs no internal state signal can separate.

    If one conflicting state reaches the other through *input events only*,
    the environment can traverse the gap faster than any circuit-controlled
    signal can toggle; since inputs must never be delayed (Definition 5.1),
    insertion cannot distinguish the two states -- only an interface change
    or a concurrency reduction that removes one of them can.  Fig. 1 of the
    paper is exactly such a case (``Req-; Req+`` between the two 11 states).
    """
    hopeless = []
    for conflict in csc_conflicts(sg):
        if (_input_reachable(sg, conflict.state_a, conflict.state_b)
                or _input_reachable(sg, conflict.state_b, conflict.state_a)):
            hopeless.append(conflict)
    return hopeless
