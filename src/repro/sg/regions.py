"""Excitation regions, quiescent regions and the concurrency relation.

Definition 2.1 of the paper defines concurrency of two events through the
diamond structure; for speed-independent SGs this coincides with the
intersection of excitation regions.  Both notions are provided here (the
diamond-based one is the ground truth used by the reduction engine, the
ER-based one is used as a fast check and in tests as a cross-validation).
"""

from __future__ import annotations

from collections import deque
from typing import List, Set, Tuple

from .graph import State, StateGraph


def excitation_region(sg: StateGraph, label: str) -> Set[State]:
    """All states in which ``label`` is enabled.

    The paper defines an ER as a *maximal connected* set of such states; we
    return the full set and provide :func:`excitation_region_components` for
    the connected decomposition (the reduction operates on the full set of
    the given transition instance, which is connected in practice).
    """
    return {state for state, out in sg._succ.items() if label in out}


def excitation_region_components(sg: StateGraph, label: str) -> List[Set[State]]:
    """Connected components of the excitation region of ``label``.

    Connectivity is taken over the undirected version of the SG restricted
    to the ER, matching the "maximal connected set" in the paper.
    """
    er = excitation_region(sg, label)
    components: List[Set[State]] = []
    remaining = set(er)
    while remaining:
        seed = next(iter(remaining))
        component = {seed}
        queue = deque([seed])
        while queue:
            state = queue.popleft()
            neighbours = set(sg.successors(state).values())
            neighbours.update(source for _, source in sg.predecessors(state))
            for nxt in neighbours:
                if nxt in remaining and nxt not in component:
                    component.add(nxt)
                    queue.append(nxt)
        components.append(component)
        remaining -= component
    return components


def quiescent_region(sg: StateGraph, signal: str, value: int) -> Set[State]:
    """States where ``signal`` is stable at ``value`` (no transition enabled)."""
    index = sg.signal_index(signal)
    labels = sg.labels_of_signal(signal)
    bit = 1 << index
    region = set()
    for state, out in sg._succ.items():
        if bool(sg.code_int(state) & bit) != bool(value):
            continue
        if any(label in out for label in labels):
            continue
        region.add(state)
    return region


def minimal_states(sg: StateGraph, region: Set[State]) -> Set[State]:
    """States of ``region`` with no predecessor inside ``region``."""
    return {state for state in region
            if not any(source in region for _, source in sg.predecessors(state))}


def are_concurrent(sg: StateGraph, label_a: str, label_b: str) -> bool:
    """Definition 2.1: a diamond on ``label_a``/``label_b`` exists in the SG."""
    if label_a == label_b:
        return False
    succ = sg._succ
    for out in succ.values():
        via_a = out.get(label_a)
        if via_a is None:
            continue
        via_b = out.get(label_b)
        if via_b is None:
            continue
        end = succ[via_a].get(label_b)
        if end is not None and succ[via_b].get(label_a) == end:
            return True
    return False


def concurrent_pairs(sg: StateGraph) -> Set[Tuple[str, str]]:
    """All unordered concurrent label pairs, reported as sorted tuples."""
    succ = sg._succ
    pairs: Set[Tuple[str, str]] = set()
    for state, out in succ.items():
        if len(out) < 2:
            continue
        enabled = list(out)
        for i, label_a in enumerate(enabled):
            via_a = out[label_a]
            for label_b in enabled[i + 1:]:
                key = (label_a, label_b) if label_a <= label_b else (label_b, label_a)
                if key in pairs:
                    continue
                end = succ[via_a].get(label_b)
                if end is not None and succ[out[label_b]].get(label_a) == end:
                    pairs.add(key)
    return pairs


def er_intersection_concurrent(sg: StateGraph, label_a: str, label_b: str) -> bool:
    """ER-based concurrency test (equivalent for speed-independent SGs)."""
    if label_a == label_b:
        return False
    return bool(excitation_region(sg, label_a) & excitation_region(sg, label_b))


def trigger_events(sg: StateGraph, label: str) -> Set[str]:
    """Events whose firing enters the ER of ``label`` from outside.

    These are the causal predecessors ("triggers") of the event: the
    support of a signal's function grows with its triggers.
    """
    er = excitation_region(sg, label)
    triggers: Set[str] = set()
    for state in er:
        for incoming_label, source in sg._pred[state]:
            if source not in er:
                triggers.add(incoming_label)
    return triggers
