"""STG re-derivation from a state graph (theory of regions).

Step 5 of the paper's algorithm (Fig. 4) generates a new STG for the best
reduced SG.  We implement the classical region-based synthesis: a *region*
is a set of states crossed uniformly by every event (all its arcs enter it,
all exit it, or none cross); regions become places, events become
transitions, and the net's reachability graph is isomorphic to the SG when
*excitation closure* holds (the intersection of an event's pre-regions
equals its excitation region).

Minimal pre-regions are found with the standard grow-and-repair expansion:
start from ER(e) and, while some event violates uniformity, branch over the
legal repairs (make the event entering, exiting or non-crossing by adding
states).  Graphs in this flow have tens to a few hundred states, where this
is entirely practical.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..petri.stg import STG
from .graph import State, StateGraph
from .regions import excitation_region


class ResynthesisError(Exception):
    """Raised when the SG is not synthesisable without label splitting."""


Region = FrozenSet[State]


def _arc_sides(sg: StateGraph, label: str,
               region: Set[State]) -> Tuple[int, int, int, int]:
    """Count (enter, exit, inside, outside) arcs of ``label`` w.r.t. region."""
    enter = exit_ = inside = outside = 0
    for source, lbl, target in sg.arcs():
        if lbl != label:
            continue
        src_in, dst_in = source in region, target in region
        if src_in and dst_in:
            inside += 1
        elif src_in:
            exit_ += 1
        elif dst_in:
            enter += 1
        else:
            outside += 1
    return enter, exit_, inside, outside


def _uniform(enter: int, exit_: int, inside: int, outside: int) -> bool:
    """The region condition for one event: all arcs enter, all exit, or none
    crosses the boundary."""
    total = enter + exit_ + inside + outside
    if total == 0:
        return True
    return enter == total or exit_ == total or (enter == 0 and exit_ == 0)


def is_region(sg: StateGraph, candidate: Set[State]) -> bool:
    """True when every event crosses ``candidate`` uniformly."""
    if not candidate or len(candidate) == len(sg):
        return False  # trivial regions carry no information
    return all(_uniform(*_arc_sides(sg, label, candidate))
               for label in sg.events)


def _violating_event(sg: StateGraph, candidate: Set[State]) -> Optional[str]:
    for label in sg.events:
        if not _uniform(*_arc_sides(sg, label, candidate)):
            return label
    return None


def _repair_options(sg: StateGraph, candidate: FrozenSet[State],
                    label: str) -> List[FrozenSet[State]]:
    """Legal expansions fixing ``label``'s uniformity (monotone: only grow)."""
    arcs = [(s, t) for s, lbl, t in sg.arcs() if lbl == label]
    options: List[FrozenSet[State]] = []

    # Make the event non-crossing: pull the missing endpoint of every
    # crossing arc inside.
    grown = set(candidate)
    changed = True
    while changed:
        changed = False
        for source, target in arcs:
            if (source in grown) != (target in grown):
                grown.update((source, target))
                changed = True
    options.append(frozenset(grown))

    # Make the event entering: all targets inside, all sources outside.
    if not any(source in candidate for source, _ in arcs):
        entering = frozenset(candidate | {target for _, target in arcs})
        if not any(source in entering for source, _ in arcs):
            options.append(entering)

    # Make the event exiting: all sources inside, no target inside.
    if not any(target in candidate for _, target in arcs):
        exiting = frozenset(candidate | {source for source, _ in arcs})
        if not any(target in exiting for _, target in arcs):
            options.append(exiting)

    return [option for option in options if option != candidate]


def minimal_preregions(sg: StateGraph, label: str,
                       max_branches: int = 10_000) -> List[Region]:
    """Minimal regions containing ER(label) that ``label`` exits.

    Implements the grow-and-repair search.  Candidates where ``label``
    itself stops exiting (a target of the event got absorbed) are pruned.
    """
    er = frozenset(excitation_region(sg, label))
    if not er:
        return []
    event_arcs = [(s, t) for s, lbl, t in sg.arcs() if lbl == label]
    found: List[FrozenSet[State]] = []
    seen: Set[FrozenSet[State]] = set()
    stack: List[FrozenSet[State]] = [er]
    branches = 0
    while stack:
        candidate = stack.pop()
        if candidate in seen:
            continue
        seen.add(candidate)
        branches += 1
        if branches > max_branches:
            raise ResynthesisError(
                f"pre-region search for {label!r} exceeded {max_branches} branches")
        if any(target in candidate for _, target in event_arcs):
            continue  # label no longer exits: not a pre-region
        if len(candidate) >= len(sg):
            continue
        violator = _violating_event(sg, set(candidate))
        if violator is None:
            found.append(candidate)
            continue
        stack.extend(_repair_options(sg, candidate, violator))
    minimal = [region for region in found
               if not any(other < region for other in found)]
    return sorted(set(minimal), key=lambda r: (len(r), sorted(map(str, r))))


def excitation_closure_holds(sg: StateGraph, label: str,
                             preregions: List[Region]) -> bool:
    """Check that the intersection of pre-regions equals ER(label)."""
    er = excitation_region(sg, label)
    if not preregions:
        return False
    intersection: Set[State] = set(preregions[0])
    for region in preregions[1:]:
        intersection &= region
    return intersection == er


def resynthesise_stg(sg: StateGraph, name: Optional[str] = None,
                     prune_redundant: bool = True) -> STG:
    """Derive an STG whose reachability graph matches the SG.

    Raises :class:`ResynthesisError` when excitation closure fails for some
    event (such SGs need label splitting, outside this reproduction's
    scope -- the flow falls back to reporting the SG itself).
    """
    stg = STG(name or f"{sg.name}_stg")
    for signal in sg.signals:
        stg.declare_signal(signal, sg.kinds[signal])

    all_regions: Dict[Region, str] = {}
    pre_of: Dict[str, List[Region]] = {}
    for label in sg.events:
        if not excitation_region(sg, label):
            continue
        preregions = minimal_preregions(sg, label)
        if not excitation_closure_holds(sg, label, preregions):
            raise ResynthesisError(
                f"excitation closure fails for event {label!r}; "
                "label splitting would be required")
        pre_of[label] = preregions
        for region in preregions:
            all_regions.setdefault(region, f"r{len(all_regions)}")

    if prune_redundant:
        all_regions = _prune(sg, pre_of, all_regions)

    for label in pre_of:
        stg.add_event(sg.events[label])
    for region, place in all_regions.items():
        stg.net.add_place(place)
    # A region is a place; every event exiting it consumes a token, every
    # event entering it produces one -- for *all* events, not only the ones
    # whose pre-region it is, otherwise token flow diverges from the SG.
    for region, place in all_regions.items():
        for label in pre_of:
            enter, exit_, inside, outside = _arc_sides(sg, label, set(region))
            total = enter + exit_ + inside + outside
            if total and exit_ == total:
                stg.net.add_arc(place, label)
            elif total and enter == total:
                stg.net.add_arc(label, place)

    marking = {place: 1 for region, place in all_regions.items()
               if sg.initial in region}
    stg.net.set_initial(marking)
    for signal in sg.signals:
        stg.set_initial_value(signal, sg.value_of(sg.initial, signal))
    return stg


def _prune(sg: StateGraph, pre_of: Dict[str, List[Region]],
           all_regions: Dict[Region, str]) -> Dict[Region, str]:
    """Greedily drop regions while every event keeps excitation closure."""
    kept = dict(all_regions)
    for region in sorted(all_regions, key=lambda r: -len(r)):
        trial = {r: n for r, n in kept.items() if r != region}
        ok = True
        for label, preregions in pre_of.items():
            remaining = [r for r in preregions if r in trial]
            if not excitation_closure_holds(sg, label, remaining):
                ok = False
                break
        if ok:
            kept = trial
    for label, preregions in pre_of.items():
        pre_of[label] = [r for r in preregions if r in kept]
    return kept


def verify_resynthesis(sg: StateGraph, stg: STG) -> bool:
    """Check the derived STG's reachability graph is isomorphic to the SG.

    Isomorphism is checked up to state identity by pairing the states of
    the (deterministic) labelled graphs in one simultaneous walk
    (:meth:`~repro.sg.graph.StateGraph.pair_states`); paired states must
    enable the same events.
    """
    from .generator import generate_sg

    derived = generate_sg(stg)
    if len(derived) != len(sg) or sg.initial_id is None:
        return False
    order, paired, broken = sg.pair_states(derived)
    return broken is None and all(
        len(derived.succ[state]) == len(sg.succ[paired[state]])
        for state in order)
