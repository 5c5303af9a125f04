"""Handshake expansion (Section 4 of the paper).

Transforms a :class:`~repro.hse.spec.PartialSpec` into a fully specified STG
under the chosen phase refinement:

* **2-phase**: channel actions and partial pulses become toggle transitions
  of the corresponding wires (``a?`` -> ``ai~``, ``a!`` -> ``ao~``,
  ``b`` -> ``b~``); no reset events exist.
* **4-phase**: actions become rising transitions (``a?`` -> ``ai+``,
  ``a!`` -> ``ao+``, ``b`` -> ``b+``) and a return-to-zero structure
  (Fig. 5) is attached to every such signal: one falling transition whose
  ``rtz`` place is fed by every rising instance and whose ``rdy`` place
  gates them, giving the reset event **maximum concurrency** with the rest
  of the behaviour.  Interface constraints (channel roles) then restrict the
  interleaving per handshake protocol, reproducing Fig. 2.f.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..petri.stg import STG, Direction, SignalEvent, SignalKind
from .constraints import InterfaceConstraint, apply_interface_constraint
from .spec import ChannelAction, ChannelRole, PartialPulse, PartialSpec


class ExpansionError(Exception):
    """Raised when a specification cannot be refined."""


def _declare_wires(spec: PartialSpec, stg: STG) -> None:
    for channel in spec.channels:
        wire_in, wire_out = spec.wire_names(channel)
        stg.declare_signal(wire_in, SignalKind.INPUT)
        stg.declare_signal(wire_out, SignalKind.OUTPUT)
    for signal, kind in spec.partial_signals.items():
        stg.declare_signal(signal, kind)
    for signal, kind in spec.full_signals.items():
        stg.declare_signal(signal, kind)


def _copy_structure(spec: PartialSpec, stg: STG,
                    relabel: Dict[str, str]) -> None:
    """Copy places and arcs from the spec net, renaming transitions."""
    for place in spec.net.places:
        stg.net.add_place(place.name, auto=place.auto)
    for old_name, new_name in relabel.items():
        for place, weight in spec.net.preset_of_transition(old_name).items():
            stg.net.add_arc(place, new_name, weight)
        for place, weight in spec.net.postset_of_transition(old_name).items():
            stg.net.add_arc(new_name, place, weight)
    marking = spec.net.marking_dict(spec.net.initial_marking())
    stg.net.set_initial(marking)


def _signal_of_action(spec: PartialSpec, action: ChannelAction) -> str:
    wire_in, wire_out = spec.wire_names(action.channel)
    return wire_in if action.is_input else wire_out


def expand_two_phase(spec: PartialSpec, name: Optional[str] = None) -> STG:
    """2-phase refinement: every abstract event becomes a toggle transition."""
    stg = STG(name or f"{spec.name}_2ph")
    _declare_wires(spec, stg)
    relabel: Dict[str, str] = {}
    for transition in spec.net.transitions:
        label = transition.label
        if label is None:
            raise ExpansionError(f"dummy transition {transition.name!r} in spec")
        if isinstance(label, ChannelAction):
            signal = _signal_of_action(spec, label)
            relabel[transition.name] = stg.add_fresh_event(f"{signal}~")
        elif isinstance(label, PartialPulse):
            relabel[transition.name] = stg.add_fresh_event(f"{label.signal}~")
        elif isinstance(label, SignalEvent):
            relabel[transition.name] = stg.add_fresh_event(label)
        else:
            raise ExpansionError(f"unsupported label {label!r}")
    _copy_structure(spec, stg, relabel)
    for signal in stg.signals:
        stg.set_initial_value(signal, spec.initial_values.get(signal, 0))
    return stg


def _attach_return_to_zero(stg: STG, signal: str) -> str:
    """Fig. 5.a/b: one falling transition with ``rtz``/``rdy`` places.

    Every rising instance feeds ``rtz`` (enabling the reset as soon as the
    pulse fired) and is gated by ``rdy`` (the next pulse waits for the
    reset), and nothing else constrains the reset: maximum concurrency.
    """
    rising = stg.transitions_of_event(f"{signal}+")
    if not rising:
        raise ExpansionError(f"no rising transitions for signal {signal!r}")
    falling = stg.add_event(f"{signal}-")
    rtz = f"rtz_{signal}"
    rdy = f"rdy_{signal}"
    stg.net.add_place(rtz)
    stg.net.add_place(rdy)
    for transition in rising:
        stg.net.add_arc(transition, rtz)
        stg.net.add_arc(rdy, transition)
    stg.net.add_arc(rtz, falling)
    stg.net.add_arc(falling, rdy)
    stg.mark(rdy)
    return falling


def expand_four_phase(spec: PartialSpec,
                      name: Optional[str] = None) -> STG:
    """4-phase refinement with maximally concurrent return-to-zero events.

    Channel roles drive the interface constraints: PASSIVE and ACTIVE ports
    get their protocol interleaving threaded through the STG; FREE channels
    (and partial signals) are constrained only by signal alternation.
    """
    stg = STG(name or f"{spec.name}_4ph")
    _declare_wires(spec, stg)
    relabel: Dict[str, str] = {}
    rtz_signals: List[str] = []
    for transition in spec.net.transitions:
        label = transition.label
        if label is None:
            raise ExpansionError(f"dummy transition {transition.name!r} in spec")
        if isinstance(label, ChannelAction):
            signal = _signal_of_action(spec, label)
            relabel[transition.name] = stg.add_fresh_event(f"{signal}+")
            if signal not in rtz_signals:
                rtz_signals.append(signal)
        elif isinstance(label, PartialPulse):
            relabel[transition.name] = stg.add_fresh_event(f"{label.signal}+")
            if label.signal not in rtz_signals:
                rtz_signals.append(label.signal)
        elif isinstance(label, SignalEvent):
            if label.direction == Direction.TOGGLE:
                raise ExpansionError(
                    f"toggle event {label} not allowed in a 4-phase refinement")
            relabel[transition.name] = stg.add_fresh_event(label)
        else:
            raise ExpansionError(f"unsupported label {label!r}")
    _copy_structure(spec, stg, relabel)

    for signal in rtz_signals:
        _attach_return_to_zero(stg, signal)

    for channel, role in spec.channels.items():
        if role == ChannelRole.PASSIVE:
            apply_interface_constraint(stg, InterfaceConstraint.passive(channel))
        elif role == ChannelRole.ACTIVE:
            apply_interface_constraint(stg, InterfaceConstraint.active(channel))

    for signal in stg.signals:
        stg.set_initial_value(signal, spec.initial_values.get(signal, 0))
    return stg


def expand(spec: PartialSpec, phases: int = 4,
           name: Optional[str] = None) -> STG:
    """Dispatch to the chosen refinement (``phases`` in {2, 4})."""
    if phases == 2:
        return expand_two_phase(spec, name)
    if phases == 4:
        return expand_four_phase(spec, name)
    raise ExpansionError(f"unsupported refinement: {phases}-phase")
