"""Unit tests for library, netlist, mapping and synthesis (repro.circuit)."""

import pytest

from repro.circuit.library import DEFAULT_LIBRARY, Cell, Library
from repro.circuit.mapping import cover_mapped_area, map_cover, map_gc
from repro.circuit.netlist import Alias, Gate, Netlist, NetlistError
from repro.circuit.synthesize import (SynthesisError, estimate_circuit_area,
                                      synthesize_circuit, synthesize_signal)
from repro.logic.cube import Cube, Cover
from repro.reduction.explore import full_reduction
from repro.sg.generator import generate_sg
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded


class TestLibrary:
    def test_default_cells_present(self):
        for cell in ("INV", "AND2", "OR2", "C2"):
            assert cell in DEFAULT_LIBRARY

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_LIBRARY.cell("AND9")

    def test_relative_sizes(self):
        inv = DEFAULT_LIBRARY.cell("INV")
        and2 = DEFAULT_LIBRARY.cell("AND2")
        c2 = DEFAULT_LIBRARY.cell("C2")
        assert inv.area < and2.area < c2.area
        assert c2.sequential and not and2.sequential


class TestNetlist:
    def test_gate_fanin_checked(self):
        with pytest.raises(NetlistError):
            Gate("g", DEFAULT_LIBRARY.cell("AND2"), ("a",), "out")

    def test_area_accumulates(self):
        netlist = Netlist("n")
        netlist.add_gate("INV", ["a"], output="na")
        netlist.add_gate("AND2", ["na", "b"], output="y")
        assert netlist.area == 8 + 16
        assert len(netlist.gates) == 2

    def test_aliases_are_free(self):
        netlist = Netlist("n")
        netlist.add_alias("a", "y")
        assert netlist.area == 0
        assert netlist.driver_of("y") == "alias:a"

    def test_double_drive_rejected(self):
        netlist = Netlist("n")
        netlist.add_gate("INV", ["a"], output="y")
        with pytest.raises(NetlistError):
            netlist.add_gate("INV", ["b"], output="y")
        with pytest.raises(NetlistError):
            netlist.add_alias("b", "y")

    def test_nets_sorted(self):
        netlist = Netlist("n")
        netlist.add_input("b")
        netlist.add_input("a")
        netlist.add_gate("AND2", ["b", "a"], output="z")
        netlist.add_alias("z", "y")
        assert netlist.nets() == ["a", "b", "y", "z"]

    def test_merge(self):
        first = Netlist("a")
        first.add_gate("INV", ["x"], output="a.n")
        second = Netlist("b")
        second.add_gate("INV", ["y"], output="b.n")
        first.merge(second)
        assert len(first.gates) == 2

    def test_merge_conflict_rejected(self):
        first = Netlist("a")
        first.add_gate("INV", ["x"], output="same")
        second = Netlist("b")
        second.add_gate("INV", ["y"], output="same")
        with pytest.raises(NetlistError):
            first.merge(second)

    def test_verilog_dump(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_output("y")
        netlist.add_gate("INV", ["a"], output="y")
        text = netlist.to_verilog_like()
        assert "module n" in text
        assert "INV" in text

    def test_sequential_gates_listed(self):
        netlist = Netlist("n")
        netlist.add_gate("C2", ["a", "b"], output="y")
        netlist.add_gate("INV", ["y"], output="z")
        assert [g.cell.name for g in netlist.sequential_gates()] == ["C2"]


class TestMapping:
    NAMES = ["a", "b", "c"]

    def test_single_positive_literal_is_wire(self):
        cover = Cover(3, [Cube.parse("-1-")])
        netlist = map_cover(cover, self.NAMES, "y")
        assert netlist.area == 0
        assert any(alias.source == "b" and alias.target == "y"
                   for alias in netlist.aliases)

    def test_single_negative_literal_is_inverter(self):
        cover = Cover(3, [Cube.parse("0--")])
        netlist = map_cover(cover, self.NAMES, "y")
        assert netlist.area == 8
        assert len(netlist.gates) == 1

    def test_two_literal_cube(self):
        cover = Cover(3, [Cube.parse("11-")])
        netlist = map_cover(cover, self.NAMES, "y")
        assert netlist.area == 16  # one AND2

    def test_sop_tree(self):
        cover = Cover(3, [Cube.parse("11-"), Cube.parse("--0")])
        netlist = map_cover(cover, self.NAMES, "y")
        # AND2 + INV(c) + OR2
        assert netlist.area == 16 + 8 + 16

    def test_inverter_sharing(self):
        cover = Cover(3, [Cube.parse("0-1"), Cube.parse("0-0")])
        cache = {}
        netlist = map_cover(cover, self.NAMES, "y", inverter_cache=cache)
        inv_count = sum(1 for g in netlist.gates if g.cell.name == "INV")
        assert inv_count == 2  # a' shared, c' once

    def test_constants(self):
        zero = map_cover(Cover.zero(3), self.NAMES, "y")
        assert any(a.source == "GND" for a in zero.aliases)
        one = map_cover(Cover.one(3), self.NAMES, "y")
        assert any(a.source == "VDD" for a in one.aliases)

    def test_gc_mapping_has_c_element(self):
        set_cover = Cover(3, [Cube.parse("1--")])
        reset_cover = Cover(3, [Cube.parse("-1-")])
        netlist = map_gc(set_cover, reset_cover, self.NAMES, "y")
        assert any(g.cell.name == "C2" for g in netlist.gates)
        assert netlist.driver_of("y") is not None

    def test_cover_mapped_area_matches_map(self):
        cover = Cover(3, [Cube.parse("11-"), Cube.parse("--0")])
        assert cover_mapped_area(cover, self.NAMES) == 40


class TestSynthesize:
    def test_full_reduction_lr_is_wires(self):
        sg = full_reduction(generate_sg(lr_expanded()))
        circuit = synthesize_circuit(sg)
        assert circuit.area == 0
        assert circuit.style_of("lo") == "wire"
        assert circuit.style_of("ro") == "wire"
        assert circuit.equations["lo"] == "lo = ri"
        assert circuit.equations["ro"] == "ro = li"

    def test_conflicted_sg_rejected(self):
        sg = generate_sg(fig1_stg())
        with pytest.raises(SynthesisError):
            synthesize_signal(sg, "Ack")
        with pytest.raises(SynthesisError):
            synthesize_circuit(sg)

    def test_estimate_tolerates_conflicts(self):
        sg = generate_sg(fig1_stg())
        estimate = estimate_circuit_area(sg)
        assert estimate >= 0

    def test_netlist_io_declared(self):
        sg = full_reduction(generate_sg(lr_expanded()))
        circuit = synthesize_circuit(sg)
        assert set(circuit.netlist.primary_inputs) == {"li", "ri"}
        assert set(circuit.netlist.primary_outputs) == {"lo", "ro"}

    def test_style_override(self):
        sg = full_reduction(generate_sg(lr_expanded()),
                            keep_conc=[("lo-", "ro-")])
        from repro.encoding.insertion import resolve_csc
        resolved = resolve_csc(sg).sg
        complex_only = synthesize_circuit(resolved, style="complex")
        for signal, impl in complex_only.signals.items():
            assert impl.style in ("complex", "wire", "constant")

    def test_gc_style(self):
        sg = full_reduction(generate_sg(lr_expanded()),
                            keep_conc=[("li-", "ri-")])
        circuit = synthesize_circuit(sg, style="gc")
        assert any(impl.style == "gc" for impl in circuit.signals.values())
