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
    return {state for state, out in sg._succ.items() if label in out}


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
