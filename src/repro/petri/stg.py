"""Signal Transition Graphs.

An STG is a Petri net whose transitions are labelled with *signal events*:
rising (``a+``), falling (``a-``) or toggle (``a~``) transitions of circuit
signals, plus unobservable dummy events.  Signals are partitioned into inputs
(driven by the environment) and outputs/internals (to be implemented), which
is the distinction every validity rule in the synthesis flow relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional

from .net import PetriNet, PetriNetError


class SignalKind(Enum):
    """Role of a signal in the specification."""

    INPUT = "input"
    OUTPUT = "output"
    INTERNAL = "internal"
    DUMMY = "dummy"


class Direction(Enum):
    """Direction of a signal event."""

    RISE = "+"
    FALL = "-"
    TOGGLE = "~"

    def opposite(self) -> "Direction":
        """``RISE`` for ``FALL`` and vice versa."""
        if self is Direction.RISE:
            return Direction.FALL
        if self is Direction.FALL:
            return Direction.RISE
        return Direction.TOGGLE


_EVENT_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_\.\[\]]*)([+\-~])(?:/(\d+))?$")


@dataclass(frozen=True)
class SignalEvent:
    """An occurrence of a signal transition, e.g. ``req+`` or ``ack-/2``.

    ``instance`` distinguishes multiple transitions of the same event in one
    STG (the ``/k`` suffix of the astg format); instance 0 is rendered
    without a suffix.
    """

    signal: str
    direction: Direction
    instance: int = 0

    @staticmethod
    def parse(text: str) -> "SignalEvent":
        """Parse ``sig+``, ``sig-``, ``sig~`` with optional ``/k`` suffix."""
        match = _EVENT_RE.match(text.strip())
        if not match:
            raise ValueError(f"not a signal event: {text!r}")
        signal, sign, instance = match.groups()
        return SignalEvent(signal, Direction(sign), int(instance) if instance else 0)

    @property
    def base(self) -> "SignalEvent":
        """The event without its instance index (``a+/2`` -> ``a+``)."""
        return SignalEvent(self.signal, self.direction)

    def with_instance(self, instance: int) -> "SignalEvent":
        """The same event with another instance number."""
        return SignalEvent(self.signal, self.direction, instance)

    def opposite(self) -> "SignalEvent":
        """The complementary event of the same signal (instance reset)."""
        return SignalEvent(self.signal, self.direction.opposite())

    def __lt__(self, other: "SignalEvent") -> bool:
        if not isinstance(other, SignalEvent):
            return NotImplemented
        return ((self.signal, self.direction.value, self.instance)
                < (other.signal, other.direction.value, other.instance))

    def __str__(self) -> str:
        suffix = f"/{self.instance}" if self.instance else ""
        return f"{self.signal}{self.direction.value}{suffix}"


class STG:
    """A Signal Transition Graph.

    Wraps a :class:`~repro.petri.net.PetriNet` whose transition labels are
    :class:`SignalEvent` objects (or ``None`` for dummies) together with a
    signal table mapping each signal name to its :class:`SignalKind`.
    """

    def __init__(self, name: str = "stg") -> None:
        self.net = PetriNet(name)
        self.signals: Dict[str, SignalKind] = {}
        self.initial_values: Dict[str, int] = {}

    @property
    def name(self) -> str:
        """The model name (shared with the underlying net)."""
        return self.net.name

    @name.setter
    def name(self, value: str) -> None:
        self.net.name = value

    # ------------------------------------------------------------------
    # signals
    # ------------------------------------------------------------------
    def declare_signal(self, name: str, kind: SignalKind) -> None:
        """Register a signal; re-declaring with a different kind is an error."""
        existing = self.signals.get(name)
        if existing is not None and existing != kind:
            raise PetriNetError(f"signal {name!r} already declared as {existing.value}")
        self.signals[name] = kind

    def signals_of_kind(self, *kinds: SignalKind) -> List[str]:
        """Signals of the given kinds, in declaration order."""
        return [s for s, k in self.signals.items() if k in kinds]

    @property
    def inputs(self) -> List[str]:
        """Input signals, in declaration order."""
        return self.signals_of_kind(SignalKind.INPUT)

    @property
    def outputs(self) -> List[str]:
        """Output signals, in declaration order."""
        return self.signals_of_kind(SignalKind.OUTPUT)

    # ------------------------------------------------------------------
    # transitions
    # ------------------------------------------------------------------
    def add_event(self, event: "SignalEvent | str") -> str:
        """Add a transition labelled with ``event``; returns its name.

        The transition name is the textual form of the event.  The signal
        must have been declared.  Adding the same event twice returns the
        existing transition.
        """
        if isinstance(event, str):
            event = SignalEvent.parse(event)
        if event.signal not in self.signals:
            raise PetriNetError(f"undeclared signal {event.signal!r}")
        name = str(event)
        self.net.add_transition(name, event)
        return name

    def add_fresh_event(self, base: "SignalEvent | str") -> str:
        """Add a new instance of ``base``, choosing an unused instance index."""
        if isinstance(base, str):
            base = SignalEvent.parse(base)
        instance = base.instance
        while str(base.with_instance(instance)) in self.net.transition_names:
            instance += 1
        return self.add_event(base.with_instance(instance))

    def add_dummy(self, name: str) -> str:
        """Add an unlabelled (dummy) transition."""
        self.net.add_transition(name, None)
        return name

    def event_of(self, transition: str) -> Optional[SignalEvent]:
        """The signal event labelling a transition (None for dummies)."""
        label = self.net.label_of(transition)
        if label is None:
            return None
        if not isinstance(label, SignalEvent):
            raise PetriNetError(f"transition {transition!r} has a non-signal label")
        return label

    def transitions_of_event(self, base: "SignalEvent | str") -> List[str]:
        """All transition instances of a base event (any instance index)."""
        if isinstance(base, str):
            base = SignalEvent.parse(base)
        result = []
        for transition in self.net.transitions:
            label = transition.label
            if (isinstance(label, SignalEvent) and label.signal == base.signal
                    and label.direction == base.direction):
                result.append(transition.name)
        return result

    # ------------------------------------------------------------------
    # convenience construction
    # ------------------------------------------------------------------
    def connect(self, source: str, target: str) -> None:
        """Arc between transitions/places, inserting implicit places as needed."""
        self.net.add_arc(source, target)

    def chain(self, *nodes: str) -> None:
        """Connect a sequence of nodes pairwise: ``chain(a, b, c)`` = a->b->c."""
        for src, dst in zip(nodes, nodes[1:]):
            self.connect(src, dst)

    def cycle(self, *nodes: str) -> None:
        """Connect nodes in a cycle (chain plus closing arc)."""
        self.chain(*nodes)
        if len(nodes) > 1:
            self.connect(nodes[-1], nodes[0])

    def mark(self, *places_or_arcs: str) -> None:
        """Put one token on each named place (or implicit ``<t1,t2>`` place)."""
        marking = {p: n for p, n in self.net._initial.items()}
        for name in places_or_arcs:
            if not self.net.has_place(name):
                raise PetriNetError(f"unknown place {name!r}")
            marking[name] = marking.get(name, 0) + 1
        self.net.set_initial(marking)

    def set_initial_value(self, signal: str, value: int) -> None:
        """Record the initial binary value of a signal (0 or 1)."""
        if value not in (0, 1):
            raise PetriNetError("initial value must be 0 or 1")
        if signal not in self.signals:
            raise PetriNetError(f"undeclared signal {signal!r}")
        self.initial_values[signal] = value

    def copy(self, name: Optional[str] = None) -> "STG":
        """A deep copy, optionally renamed."""
        clone = STG(name or self.name)
        clone.net = self.net.copy(name or self.name)
        clone.signals = dict(self.signals)
        clone.initial_values = dict(self.initial_values)
        return clone

    def __repr__(self) -> str:
        return (f"STG({self.name!r}, signals={len(self.signals)}, "
                f"|T|={len(self.net.transitions)}, |P|={len(self.net.places)})")
