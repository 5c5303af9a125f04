"""Marking-level reference checks for the specs the tests build.

The flow never enumerates a net's markings on its own: state graphs come
from :mod:`repro.explore`.  These checks play the token game on a
:class:`~repro.petri.net.PetriNet`'s arcs (:func:`fire`), so the tests
can confirm that hand-written, generated and resynthesised specs are
safe and live by a route that shares no code with the exploration
engines.
"""

from collections import deque
from typing import Set

from repro.petri.net import Marking, PetriNet, PetriNetError


def is_enabled(net: PetriNet, transition: str, marking: Marking) -> bool:
    """True when every input place holds enough tokens."""
    places = net.place_names
    return all(marking[places.index(place)] >= weight for place, weight
               in net.preset_of_transition(transition).items())


def fire(net: PetriNet, transition: str, marking: Marking) -> Marking:
    """Fire an enabled transition; returns the successor marking."""
    if not is_enabled(net, transition, marking):
        raise PetriNetError(f"transition {transition!r} not enabled")
    places = net.place_names
    counts = list(marking)
    for place, weight in net.preset_of_transition(transition).items():
        counts[places.index(place)] -= weight
    for place, weight in net.postset_of_transition(transition).items():
        counts[places.index(place)] += weight
    return tuple(counts)


def reachable_markings(net: PetriNet, limit: int = 1_000_000) -> Set[Marking]:
    """Every marking reachable from the initial one.

    Raises :class:`PetriNetError` past ``limit`` markings (an unbounded
    net never finishes otherwise).
    """
    initial = net.initial_marking()
    seen = {initial}
    queue = deque([initial])
    while queue:
        marking = queue.popleft()
        for transition in net.enabled_transitions(marking):
            successor = fire(net, transition, marking)
            if successor not in seen:
                seen.add(successor)
                if len(seen) > limit:
                    raise PetriNetError(
                        f"reachability exceeded {limit} markings")
                queue.append(successor)
    return seen


def is_safe(net: PetriNet) -> bool:
    """No reachable marking puts more than one token on a place."""
    try:
        markings = reachable_markings(net)
    except PetriNetError:
        return False
    return all(max(m, default=0) <= 1 for m in markings)


def is_deadlock_free(net: PetriNet) -> bool:
    """Every reachable marking enables some transition."""
    return all(net.enabled_transitions(m) for m in reachable_markings(net))


def dead_transitions(net: PetriNet) -> Set[str]:
    """Transitions enabled in no reachable marking."""
    live: Set[str] = set()
    for marking in reachable_markings(net):
        live.update(net.enabled_transitions(marking))
    return set(net.transition_names) - live
