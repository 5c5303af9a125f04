"""Partial specifications.

The input to the flow (Section 1 of the paper): a behaviour described with

* **channel actions** ``a?`` / ``a!`` -- abstract communication events on a
  channel ``a``, later refined into handshakes on the wire pair
  ``(a_i, a_o)``;
* **partially specified signals** -- only the functional (rising) pulses of
  a signal are given, written ``b``; the return-to-zero event is left to the
  tool;
* **fully specified signals** -- ordinary ``c+ / c-`` transitions.

A :class:`PartialSpec` is a Petri net over these abstract events plus the
declarations needed by expansion (channel roles, signal kinds).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple, Union

from ..petri.net import PetriNet, PetriNetError
from ..petri.stg import SignalEvent, SignalKind


class ChannelRole(Enum):
    """Handshake role of a channel port, fixing the interface constraint.

    PASSIVE ports receive the request (``[ai+, ao+, ai-, ao-]``), ACTIVE
    ports emit it (``[ao+, ai+, ao-, ai-]``); FREE ports get no interface
    constraint, yielding the unconstrained maximal-concurrency expansion of
    Fig. 2.e.
    """

    PASSIVE = "passive"
    ACTIVE = "active"
    FREE = "free"


@dataclass(frozen=True)
class ChannelAction:
    """``a?`` (input action) or ``a!`` (output action) on channel ``a``."""

    channel: str
    kind: str  # "?" or "!"
    instance: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("?", "!"):
            raise ValueError(f"channel action kind must be ? or !: {self.kind!r}")

    @property
    def is_input(self) -> bool:
        return self.kind == "?"

    def __str__(self) -> str:
        suffix = f"/{self.instance}" if self.instance else ""
        return f"{self.channel}{self.kind}{suffix}"


@dataclass(frozen=True)
class PartialPulse:
    """A functional pulse of a partially specified signal (rising edge)."""

    signal: str
    instance: int = 0

    def __str__(self) -> str:
        suffix = f"/{self.instance}" if self.instance else ""
        return f"{self.signal}{suffix}"


AbstractEvent = Union[ChannelAction, PartialPulse, SignalEvent]

_ACTION_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)([?!])(?:/(\d+))?$")
_PULSE_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:/(\d+))?$")


class PartialSpec:
    """A partially specified behaviour over abstract events."""

    def __init__(self, name: str = "spec") -> None:
        self.name = name
        self.net = PetriNet(name)
        self.channels: Dict[str, ChannelRole] = {}
        self.partial_signals: Dict[str, SignalKind] = {}
        self.full_signals: Dict[str, SignalKind] = {}
        self.initial_values: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------
    def declare_channel(self, name: str, role: ChannelRole = ChannelRole.PASSIVE) -> None:
        """Declare a handshake channel with the given role."""
        existing = self.channels.get(name)
        if existing is not None and existing != role:
            raise PetriNetError(f"channel {name!r} already declared as {existing.value}")
        self.channels[name] = role

    def declare_partial_signal(self, name: str,
                               kind: SignalKind = SignalKind.OUTPUT) -> None:
        """Declare a signal whose reset events the tool may place freely."""
        if kind == SignalKind.INPUT:
            raise PetriNetError(
                "partial signals are implemented by the circuit; inputs cannot "
                "have tool-inserted reset events")
        self.partial_signals[name] = kind

    def declare_signal(self, name: str, kind: SignalKind) -> None:
        """Declare a fully specified signal of the given kind."""
        self.full_signals[name] = kind

    # ------------------------------------------------------------------
    # event construction
    # ------------------------------------------------------------------
    def parse_event(self, text: str) -> AbstractEvent:
        """Interpret ``a?``, ``a!``, ``b`` (pulse) or ``c+`` by declarations."""
        text = text.strip()
        action = _ACTION_RE.match(text)
        if action:
            channel, kind, instance = action.groups()
            if channel not in self.channels:
                raise PetriNetError(f"undeclared channel {channel!r}")
            return ChannelAction(channel, kind, int(instance) if instance else 0)
        try:
            event = SignalEvent.parse(text)
        except ValueError:
            event = None
        if event is not None:
            if event.signal not in self.full_signals:
                raise PetriNetError(f"undeclared signal {event.signal!r}")
            return event
        pulse = _PULSE_RE.match(text)
        if pulse:
            signal, instance = pulse.groups()
            if signal not in self.partial_signals:
                raise PetriNetError(f"undeclared partial signal {signal!r}")
            return PartialPulse(signal, int(instance) if instance else 0)
        raise PetriNetError(f"cannot parse abstract event {text!r}")

    def add(self, text: str) -> str:
        """Add a transition for the abstract event; returns the node name."""
        event = self.parse_event(text)
        name = str(event)
        self.net.add_transition(name, event)
        return name

    def add_place(self, name: str, tokens: int = 0) -> str:
        """Add an explicit place; returns its name."""
        self.net.add_place(name, tokens)
        return name

    def connect(self, source: str, target: str) -> None:
        """Add a causal arc between two abstract events (or places)."""
        for node in (source, target):
            if node not in self.net:
                # Lazily create transitions for event-looking names.
                try:
                    self.add(node)
                except PetriNetError:
                    raise PetriNetError(f"unknown node {node!r}") from None
        self.net.add_arc(source, target)

    def chain(self, *nodes: str) -> None:
        """Connect the nodes in sequence."""
        for src, dst in zip(nodes, nodes[1:]):
            self.connect(src, dst)

    def cycle(self, *nodes: str) -> None:
        """Connect the nodes in a closed cycle."""
        self.chain(*nodes)
        if len(nodes) > 1:
            self.connect(nodes[-1], nodes[0])

    def mark(self, *places: str) -> None:
        """Put one token on each named (or implicit ``<a,b>``) place."""
        marking = dict(self.net._initial)
        for place in places:
            if not self.net.has_place(place):
                raise PetriNetError(f"unknown place {place!r}")
            marking[place] = marking.get(place, 0) + 1
        self.net.set_initial(marking)

    def set_initial_value(self, signal: str, value: int) -> None:
        """Fix a signal's initial binary value."""
        if value not in (0, 1):
            raise PetriNetError("initial value must be 0 or 1")
        self.initial_values[signal] = value

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def events(self) -> List[AbstractEvent]:
        """Every declared abstract event."""
        return [t.label for t in self.net.transitions if t.label is not None]

    def wire_names(self, channel: str) -> Tuple[str, str]:
        """The (input, output) wire pair implementing a channel (Fig. 2.b)."""
        if channel not in self.channels:
            raise PetriNetError(f"undeclared channel {channel!r}")
        return f"{channel}i", f"{channel}o"

    def __repr__(self) -> str:
        return (f"PartialSpec({self.name!r}, channels={sorted(self.channels)}, "
                f"partial={sorted(self.partial_signals)}, "
                f"full={sorted(self.full_signals)})")
