"""Excitation regions, quiescent regions and the concurrency relation.

Definition 2.1 of the paper defines concurrency of two events through the
diamond structure, which :func:`are_concurrent` tests; for
speed-independent SGs this coincides with the intersection of excitation
regions.
"""

from __future__ import annotations

from typing import Set

from .graph import State, StateGraph


def excitation_region(sg: StateGraph, label: str) -> Set[State]:
    """All states in which ``label`` is enabled.

    The paper defines an ER as a *maximal connected* set of such states; we
    return the full set (the reduction operates on the full set of the
    given transition instance, which is connected in practice).
    """
    label_id = sg.label_id.get(label)
    return {sg.states[state] for state, out in enumerate(sg.succ)
            if label_id in out}


def quiescent_region(sg: StateGraph, signal: str, value: int) -> Set[State]:
    """States where ``signal`` is stable at ``value`` (no transition enabled)."""
    bit = 1 << sg.signal_index(signal)
    labels = {sg.label_id[label] for label in sg.labels_of_signal(signal)}
    region = set()
    for state, out in zip(sg.states, sg.succ):
        if bool(sg.code_int(state) & bit) != bool(value):
            continue
        if not labels.isdisjoint(out):
            continue
        region.add(state)
    return region


def minimal_states(sg: StateGraph, region: Set[State]) -> Set[State]:
    """States of ``region`` with no predecessor inside ``region``."""
    return {state for state in region
            if not any(source in region for _, source in sg.predecessors(state))}


def are_concurrent(sg: StateGraph, label_a: str, label_b: str) -> bool:
    """Definition 2.1: a diamond on ``label_a``/``label_b`` exists in the SG."""
    a, b = sg.label_id.get(label_a), sg.label_id.get(label_b)
    if a is None or b is None or a == b:
        return False
    succ = sg.succ
    for out in succ:
        via_a = out.get(a)
        if via_a is None:
            continue
        via_b = out.get(b)
        if via_b is None:
            continue
        end = succ[via_a].get(b)
        if end is not None and succ[via_b].get(a) == end:
            return True
    return False
