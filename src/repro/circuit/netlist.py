"""Gate-level netlists.

A netlist is a set of gate instances connecting named nets.  Primary inputs
and outputs are tracked explicitly so examples and tests can check circuit
structure (e.g. the fully reduced LR-process really is two wires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .library import Cell, Library, DEFAULT_LIBRARY


class NetlistError(Exception):
    """Raised for malformed netlist operations."""


@dataclass(frozen=True)
class Gate:
    """A gate instance: a cell driving ``output`` from ``inputs``."""

    name: str
    cell: Cell
    inputs: Tuple[str, ...]
    output: str

    def __post_init__(self) -> None:
        if len(self.inputs) != self.cell.fanin:
            raise NetlistError(
                f"gate {self.name!r}: cell {self.cell.name} expects "
                f"{self.cell.fanin} inputs, got {len(self.inputs)}")


@dataclass(frozen=True)
class Alias:
    """A zero-cost connection: ``target`` is the same net as ``source``.

    Wires produced by full concurrency reduction (e.g. ``lo = ri`` in the
    LR-process) are aliases, not gates.
    """

    source: str
    target: str


class Netlist:
    """A named circuit: gates + aliases over named nets."""

    def __init__(self, name: str, library: Library = DEFAULT_LIBRARY) -> None:
        self.name = name
        self.library = library
        self.gates: List[Gate] = []
        self.aliases: List[Alias] = []
        self.primary_inputs: List[str] = []
        self.primary_outputs: List[str] = []
        self._drivers: Dict[str, str] = {}
        self._counter = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        """Declare a primary input net (idempotent)."""
        if net not in self.primary_inputs:
            self.primary_inputs.append(net)

    def add_output(self, net: str) -> None:
        """Declare a primary output net (idempotent)."""
        if net not in self.primary_outputs:
            self.primary_outputs.append(net)

    def add_gate(self, cell_name: str, inputs: Iterable[str],
                 output: Optional[str] = None, name: Optional[str] = None) -> Gate:
        """Instantiate a library cell; auto-names the gate and output net."""
        cell = self.library.cell(cell_name)
        self._counter += 1
        gate_name = name or f"{self.name}.g{self._counter}"
        out_net = output or f"{self.name}.n{self._counter}"
        if out_net in self._drivers:
            raise NetlistError(f"net {out_net!r} already driven by {self._drivers[out_net]!r}")
        gate = Gate(gate_name, cell, tuple(inputs), out_net)
        self.gates.append(gate)
        self._drivers[out_net] = gate_name
        return gate

    def add_alias(self, source: str, target: str) -> Alias:
        """Connect ``target`` directly to ``source`` (a plain wire)."""
        if target in self._drivers:
            raise NetlistError(f"net {target!r} already driven")
        alias = Alias(source, target)
        self.aliases.append(alias)
        self._drivers[target] = f"alias:{source}"
        return alias

    def merge(self, other: "Netlist") -> None:
        """Absorb another netlist's gates and aliases (nets must not clash)."""
        for gate in other.gates:
            if gate.output in self._drivers:
                raise NetlistError(f"net {gate.output!r} driven in both netlists")
            self.gates.append(gate)
            self._drivers[gate.output] = gate.name
        for alias in other.aliases:
            if alias.target in self._drivers:
                raise NetlistError(f"net {alias.target!r} driven in both netlists")
            self.aliases.append(alias)
            self._drivers[alias.target] = f"alias:{alias.source}"
        for net in other.primary_inputs:
            self.add_input(net)
        for net in other.primary_outputs:
            self.add_output(net)
        self._counter = max(self._counter, other._counter)

    # ------------------------------------------------------------------
    # metrics and queries
    # ------------------------------------------------------------------
    @property
    def area(self) -> float:
        """Total cell area; aliases are free."""
        return sum(gate.cell.area for gate in self.gates)

    def driver_of(self, net: str) -> Optional[str]:
        """The gate driving ``net``, or ``None`` for inputs/floating nets."""
        return self._drivers.get(net)

    def nets(self) -> List[str]:
        """All referenced net names, sorted.

        The sorted order (rather than set iteration order) keeps structural
        dumps, goldens and verification certificates byte-stable across
        hash seeds.
        """
        nets: Set[str] = set(self.primary_inputs) | set(self.primary_outputs)
        for gate in self.gates:
            nets.update(gate.inputs)
            nets.add(gate.output)
        for alias in self.aliases:
            nets.add(alias.source)
            nets.add(alias.target)
        return sorted(nets)

    def sequential_gates(self) -> List[Gate]:
        """Gates whose cell is sequential (state-holding)."""
        return [gate for gate in self.gates if gate.cell.sequential]

    def to_verilog_like(self) -> str:
        """A human-readable structural dump (not strict Verilog).

        Deterministic: interface and driver lines follow declaration order,
        the wire declaration follows the sorted order of :meth:`nets`.
        """
        lines = [f"module {self.name} (",
                 f"  input  {', '.join(self.primary_inputs)};",
                 f"  output {', '.join(self.primary_outputs)};", ")"]
        interface = set(self.primary_inputs) | set(self.primary_outputs)
        wires = [net for net in self.nets() if net not in interface]
        if wires:
            lines.append(f"  wire   {', '.join(wires)};")
        for alias in self.aliases:
            lines.append(f"  assign {alias.target} = {alias.source};")
        for gate in self.gates:
            args = ", ".join((gate.output,) + gate.inputs)
            lines.append(f"  {gate.cell.name} {gate.name} ({args});")
        lines.append("endmodule")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Netlist({self.name!r}, gates={len(self.gates)}, area={self.area})"
