"""CSC conflict analysis.

Complete State Coding is the paper's second implementability condition: two
states with equal binary codes must enable the same non-input events.
Beyond the raw conflict list (:func:`repro.sg.properties.csc_conflicts`)
this module provides the conflict count the insertion search minimises and
the conflicts no inserted signal can separate.
"""

from __future__ import annotations

from typing import List

from ..sg.graph import StateGraph
from ..sg.properties import (CSCConflict, _excitation_sets, _shared_codes,
                              coding_counts)


def conflict_count(sg: StateGraph) -> int:
    """Number of CSC conflict pairs (the quantity the cost function tracks),
    counted per code bucket without listing a pair."""
    return coding_counts(sg)[1]


def irresolvable_conflicts(sg: StateGraph) -> List[CSCConflict]:
    """Conflict pairs no internal state signal can separate.

    If one conflicting state reaches the other through *input events only*,
    the environment can traverse the gap faster than any circuit-controlled
    signal can toggle; since inputs must never be delayed (Definition 5.1),
    insertion cannot distinguish the two states -- only an interface change
    or a concurrency reduction that removes one of them can.  Fig. 1 of the
    paper is exactly such a case (``Req-; Req+`` between the two 11 states).

    One input-only search per state of a shared code finds the states of
    its bucket it reaches; only those pairs are tested and listed, in
    :func:`~repro.sg.properties.csc_conflicts` order (a bucket's state ids
    ascend, so id pairs sort as its pairs do).
    """
    sg.freeze()
    states, succ, is_input = sg.states, sg.succ, sg.is_input
    codes = sg.code_ints
    hopeless = []
    for code, ids, masks in _shared_codes(sg):
        linked = set()
        for source in ids:
            frontier, seen = [source], {source}
            while frontier:
                for label, nxt in succ[frontier.pop()].items():
                    if is_input[label] and nxt not in seen:
                        seen.add(nxt)
                        frontier.append(nxt)
            linked.update((min(source, other), max(source, other))
                          for other in seen
                          if codes[other] == code and other != source)
        excited = dict(zip(ids, masks))
        code_tuple = sg.code_of(states[ids[0]])
        hopeless += [CSCConflict(states[a], states[b], code_tuple,
                                 *_excitation_sets(sg, (excited[a],
                                                        excited[b])))
                     for a, b in sorted(linked) if excited[a] != excited[b]]
    return hopeless
