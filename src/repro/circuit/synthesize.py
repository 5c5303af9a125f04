"""Circuit synthesis from a state graph.

Derives, for every output and internal signal, either:

* a **complex gate**: the minimized next-state function as one SOP network
  with output feedback, or
* a **generalized C element (gC)**: minimized set/reset networks driving a
  C2 cell,

maps both onto the 2-input library and keeps the cheaper one.  Signals whose
minimized function is a single positive literal collapse to plain wires
(zero area), which is how the fully reduced LR-process becomes "two wires".

The SG must satisfy CSC; callers resolve conflicts first (see
:mod:`repro.encoding.insertion`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..logic.cube import Cover
from ..logic.functions import extract_all_functions, extract_function, extract_set_reset
from ..sg.graph import StateGraph
from ..petri.stg import SignalKind
from .library import Library, DEFAULT_LIBRARY
from .mapping import cover_mapped_area, map_cover, map_gc
from .netlist import Netlist


class SynthesisError(Exception):
    """Raised when an SG cannot be implemented (e.g. CSC conflicts)."""


@dataclass
class SignalImplementation:
    """Implementation of one signal: style, covers and mapped netlist."""

    signal: str
    style: str  # "wire", "constant", "complex" or "gc"
    cover: Optional[Cover]
    set_cover: Optional[Cover]
    reset_cover: Optional[Cover]
    netlist: Netlist
    equation: str

    @property
    def area(self) -> float:
        return self.netlist.area


@dataclass
class CircuitImplementation:
    """A complete synthesized controller."""

    name: str
    signals: Dict[str, SignalImplementation]
    netlist: Netlist

    @property
    def area(self) -> float:
        return self.netlist.area

    @property
    def equations(self) -> Dict[str, str]:
        return {signal: impl.equation for signal, impl in self.signals.items()}

    def style_of(self, signal: str) -> str:
        return self.signals[signal].style


def synthesize_signal(sg: StateGraph, signal: str,
                      library: Library = DEFAULT_LIBRARY,
                      style: str = "auto") -> SignalImplementation:
    """Implement one non-input signal from the SG with exact covers.

    ``style`` is ``"auto"`` (pick the cheaper of complex gate and gC),
    ``"complex"`` or ``"gc"``.
    """
    function = extract_function(sg, signal)
    if function.has_csc_conflict:
        raise SynthesisError(
            f"signal {signal!r} has {len(function.conflict_ints)} "
            "CSC-conflicting codes; insert state signals before synthesis")
    names = function.variables
    cover = function.minimized(exact=True)

    complex_netlist = Netlist(f"{sg.name}_{signal}_cx", library)
    map_cover(cover, names, signal, complex_netlist)
    literal = cover.single_literal()
    if cover.is_constant_zero or cover.is_constant_one:
        return SignalImplementation(signal, "constant", cover, None, None,
                                    complex_netlist,
                                    f"{signal} = {cover.to_expression(names)}")
    if literal is not None and literal[1] == 1 and names[literal[0]] != signal:
        return SignalImplementation(signal, "wire", cover, None, None,
                                    complex_netlist,
                                    f"{signal} = {names[literal[0]]}")

    if style == "complex":
        return SignalImplementation(signal, "complex", cover, None, None,
                                    complex_netlist,
                                    f"{signal} = {cover.to_expression(names)}")

    set_reset = extract_set_reset(sg, signal)
    gc_netlist = Netlist(f"{sg.name}_{signal}_gc", library)
    map_gc(set_reset.set_cover, set_reset.reset_cover, names, signal,
           library, gc_netlist)
    gc_equation = (f"{signal} = C(set: {set_reset.set_cover.to_expression(names)}, "
                   f"reset: {set_reset.reset_cover.to_expression(names)})")
    if style == "gc" or gc_netlist.area < complex_netlist.area:
        return SignalImplementation(signal, "gc", None, set_reset.set_cover,
                                    set_reset.reset_cover, gc_netlist, gc_equation)
    return SignalImplementation(signal, "complex", cover, None, None,
                                complex_netlist,
                                f"{signal} = {cover.to_expression(names)}")


def estimate_circuit_area(sg: StateGraph, library: Library = DEFAULT_LIBRARY) -> float:
    """Optimistic mapped-area estimate that tolerates CSC conflicts.

    Conflicting codes are treated as ON for each signal's cover, so the
    number is a *lower bound* on any real implementation (the state signals
    still to be inserted only add logic).  Used to report the "original"
    rows of Table 2 when the insertion search cannot fully resolve CSC.
    """
    total = 0.0
    for signal, function in extract_all_functions(sg).items():
        cover = function.minimized()
        total += cover_mapped_area(cover, function.variables, library)
    return total


def synthesize_circuit(sg: StateGraph, library: Library = DEFAULT_LIBRARY,
                       style: str = "auto") -> CircuitImplementation:
    """Implement every output and internal signal of the SG."""
    top = Netlist(sg.name, library)
    for signal in sg.signals:
        if sg.kinds[signal] == SignalKind.INPUT:
            top.add_input(signal)
        elif sg.kinds[signal] == SignalKind.OUTPUT:
            top.add_output(signal)
    implementations: Dict[str, SignalImplementation] = {}
    for signal in sg.signals:
        if sg.kinds[signal] == SignalKind.INPUT:
            continue
        impl = synthesize_signal(sg, signal, library=library, style=style)
        implementations[signal] = impl
        top.merge(impl.netlist)
    return CircuitImplementation(sg.name, implementations, top)
