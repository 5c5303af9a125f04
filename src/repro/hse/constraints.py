"""Interface and concurrency constraints.

Interface constraints fix the interleaving of events on a channel ("never
reset the requesting signal before receiving the acknowledgment", Section 3)
and are enforced structurally: a cyclic chain of places threads the listed
events in order.  Concurrency constraints (``Keep_Conc`` in Fig. 9) are
pairs of events whose concurrency the reduction must not destroy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Set, Tuple

from ..petri.stg import STG, SignalEvent
from ..sg.graph import StateGraph


@dataclass(frozen=True)
class InterfaceConstraint:
    """A cyclic event order, e.g. ``[li+, lo+, li-, lo-]`` for a passive port.

    ``marked_before`` is the index of the event that is enabled first: the
    token of the constraint cycle initially sits on the place feeding it.
    """

    order: Tuple[str, ...]
    marked_before: int = 0

    @staticmethod
    def passive(channel: str) -> "InterfaceConstraint":
        """Request in, acknowledge out: ``[ai+, ao+, ai-, ao-]``."""
        return InterfaceConstraint((f"{channel}i+", f"{channel}o+",
                                    f"{channel}i-", f"{channel}o-"))

    @staticmethod
    def active(channel: str) -> "InterfaceConstraint":
        """Request out, acknowledge in: ``[ao+, ai+, ao-, ai-]``."""
        return InterfaceConstraint((f"{channel}o+", f"{channel}i+",
                                    f"{channel}o-", f"{channel}i-"))


def apply_interface_constraint(stg: STG, constraint: InterfaceConstraint) -> None:
    """Thread the constraint's events with a marked cycle of places.

    Every instance of each base event is connected: a place sits between
    consecutive order positions, fed by all instances of the earlier event
    and feeding all instances of the later one.
    """
    order = constraint.order
    count = len(order)
    instance_lists: List[List[str]] = []
    for text in order:
        base = SignalEvent.parse(text)
        instances = stg.transitions_of_event(base)
        if not instances:
            raise ValueError(f"constraint event {text!r} not present in STG {stg.name!r}")
        instance_lists.append(instances)
    for position in range(count):
        nxt = (position + 1) % count
        place = stg.net.fresh_place_name(f"ic_{order[position]}_{order[nxt]}_")
        stg.net.add_place(place)
        for transition in instance_lists[position]:
            stg.net.add_arc(transition, place)
        for transition in instance_lists[nxt]:
            stg.net.add_arc(place, transition)
        if nxt == constraint.marked_before % count:
            stg.mark(place)


NormalisedPair = FrozenSet[str]


class KeepConcError(ValueError):
    """A ``Keep_Conc`` pair the SG cannot honour: it names no event, or no
    expansion of it is concurrent."""


def normalise_keep_conc(sg: StateGraph,
                        pairs: Iterable[Tuple[str, str]]) -> Set[NormalisedPair]:
    """Expand ``Keep_Conc`` pairs into label pairs of the SG.

    Each element of a pair may be a full label (``li-``), a base event
    (expands to all instances) or a bare signal name (expands to all labels
    of that signal).  The result is a set of unordered label pairs.  An
    item that matches no event raises :class:`KeepConcError`.
    """
    def expand(item: str) -> List[str]:
        if item in sg.events:
            return [item]
        by_event = [label for label, event in sg.events.items()
                    if str(event.base) == item]
        if by_event:
            return by_event
        by_signal = sg.labels_of_signal(item)
        if by_signal:
            return by_signal
        raise KeepConcError(f"Keep_Conc item {item!r} matches no event of {sg.name!r}")

    result: Set[NormalisedPair] = set()
    for first, second in pairs:
        for label_a in expand(first):
            for label_b in expand(second):
                if label_a != label_b:
                    result.add(frozenset((label_a, label_b)))
    return result
