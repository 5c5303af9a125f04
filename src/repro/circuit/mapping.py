"""SOP decomposition into 2-input gates and technology mapping.

The paper obtains final areas "by decomposing the circuit into 2-input
gates and mapping the network onto a gate library".  This module performs
that decomposition for the covers produced by logic synthesis:

* each complemented literal costs one inverter (shared per signal),
* each cube with k literals becomes a balanced tree of k-1 AND2 gates,
* the disjunction of m cubes becomes a tree of m-1 OR2 gates,
* a single positive literal collapses to a wire (zero area).

Decomposition of speed-independent logic must in general be done hazard-
free; the paper uses SI-preserving decomposition.  For area accounting the
gate counts are the same, which is what the benchmarks compare.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..logic.cube import DC, Cover
from .library import Library, DEFAULT_LIBRARY
from .netlist import Netlist, NetlistError


def _literal_net(netlist: Netlist, names: Sequence[str], var: int, value: int,
                 inverter_cache: Dict[str, str]) -> str:
    """Net carrying the requested literal, instantiating shared inverters."""
    name = names[var]
    if value == 1:
        return name
    if name not in inverter_cache:
        gate = netlist.add_gate("INV", [name])
        inverter_cache[name] = gate.output
    return inverter_cache[name]


def _tree(netlist: Netlist, cell: str, nets: List[str]) -> str:
    """Balanced tree of 2-input gates over ``nets``; returns the root net."""
    level = list(nets)
    while len(level) > 1:
        nxt: List[str] = []
        for i in range(0, len(level) - 1, 2):
            gate = netlist.add_gate(cell, [level[i], level[i + 1]])
            nxt.append(gate.output)
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def map_cover(cover: Cover, names: Sequence[str], output: str,
              netlist: Optional[Netlist] = None,
              library: Library = DEFAULT_LIBRARY,
              inverter_cache: Optional[Dict[str, str]] = None) -> Netlist:
    """Map an SOP cover onto 2-input gates, driving net ``output``.

    When ``netlist`` is given the gates are added to it (sharing its
    inverter cache through ``inverter_cache``); otherwise a fresh netlist is
    created.
    """
    if netlist is None:
        netlist = Netlist(f"map_{output}", library)
    if inverter_cache is None:
        inverter_cache = {}
    if cover.is_constant_zero:
        netlist.add_alias("GND", output)
        return netlist
    if cover.is_constant_one:
        netlist.add_alias("VDD", output)
        return netlist

    cube_nets: List[str] = []
    for cube in cover:
        literal_nets = [
            _literal_net(netlist, names, var, value, inverter_cache)
            for var, value in enumerate(cube.values) if value != DC
        ]
        cube_nets.append(_tree(netlist, "AND2", literal_nets))
    root = _tree(netlist, "OR2", cube_nets)
    if root == output:
        return netlist
    if netlist.driver_of(root) is None:
        # Root is a primary net (single positive literal): a plain wire.
        netlist.add_alias(root, output)
    else:
        _rename_output(netlist, root, output)
    return netlist


def _rename_output(netlist: Netlist, old: str, new: str) -> None:
    """Re-point the gate driving ``old`` at net ``new``."""
    for i, gate in enumerate(netlist.gates):
        if gate.output == old:
            netlist.gates[i] = type(gate)(gate.name, gate.cell, gate.inputs, new)
            netlist._drivers.pop(old, None)
            netlist._drivers[new] = gate.name
            return
    raise NetlistError(f"no gate drives {old!r}")


def cover_mapped_area(cover: Cover, names: Sequence[str],
                      library: Library = DEFAULT_LIBRARY,
                      shared_inverters: Optional[Dict[str, str]] = None) -> float:
    """Mapped area of a cover without keeping the netlist."""
    scratch = Netlist("scratch", library)
    cache = shared_inverters if shared_inverters is not None else {}
    map_cover(cover, names, "out", scratch, library, cache)
    return scratch.area


def map_gc(set_cover: Cover, reset_cover: Cover, names: Sequence[str],
           output: str, library: Library = DEFAULT_LIBRARY,
           netlist: Optional[Netlist] = None,
           inverter_cache: Optional[Dict[str, str]] = None) -> Netlist:
    """Map a generalized C-element: set/reset networks feeding a C2 cell.

    The C element fires the output high when the set network is high and low
    when the reset network is *low*; the reset network is therefore fed
    through complemented logic (an extra inverter unless it simplifies).
    """
    if netlist is None:
        netlist = Netlist(f"gc_{output}", library)
    if inverter_cache is None:
        inverter_cache = {}
    set_net = f"{output}_set"
    reset_net = f"{output}_reset"
    map_cover(set_cover, names, set_net, netlist, library, inverter_cache)
    map_cover(reset_cover, names, reset_net, netlist, library, inverter_cache)
    reset_inv = netlist.add_gate("INV", [reset_net]).output
    netlist.add_gate("C2", [set_net, reset_inv], output)
    return netlist
