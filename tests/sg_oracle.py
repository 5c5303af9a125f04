"""Graph-walking references for the concurrency relation and FwdRed.

The reduction space tests concurrency on diamond masks and truncates
excitation regions on arc masks.  These functions derive the same sets
by walking a built :class:`~repro.sg.graph.StateGraph`, so the tests can
check the masks against Definition 2.1 and the FwdRed step directly.
"""

from collections import deque
from typing import Iterable, Optional, Set, Tuple

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
