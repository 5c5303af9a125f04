"""Shared minimal-trace reconstruction.

Discoveries take one parent-map shape -- ``state -> None`` for the
initial state, ``state -> (parent, step)`` for everything else --
whether it is a level-loop run's admitting arcs
(:attr:`~repro.explore.frontier.ExplorationRun.parents`, indexed by
state) or kept by a BFS of its own, so witnesses and counterexamples are
rebuilt by one deterministic walk.  Because the walks admit states
breadth-first, the reconstructed trace is a *shortest* step sequence to
the state.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

__all__ = ["minimal_trace"]

ParentMap = Dict[Hashable, Optional[Tuple[Hashable, object]]]


def minimal_trace(parents: ParentMap, state: Hashable,
                  final_step: Optional[object] = None) -> List[object]:
    """The step sequence from the initial state to ``state``.

    ``final_step``, when given, is appended after the walk -- the
    conventional spot for the offending event of a counterexample,
    which is a step *out of* ``state`` and so never in the parent map.
    """
    steps: List[object] = []
    current = state
    while True:
        entry = parents[current]
        if entry is None:
            break
        current, step = entry
        steps.append(step)
    steps.reverse()
    if final_step is not None:
        steps.append(final_step)
    return steps
