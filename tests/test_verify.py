"""Unit and integration tests for the verification subsystem (repro.verify)."""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.circuit.library import DEFAULT_LIBRARY, Cell, Library
from repro.circuit.netlist import Netlist
from repro.petri.stg import SignalKind
from repro.pipeline import STRATEGIES, ArtifactStore, FlowConfig, run_pipeline
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.specs import suite
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import q_module_stg
from repro.sweep import run_sweep, render, tables_grid
from repro.verify import (SimulationError, VerificationReport, cell_table,
                          check_conformance, compile_circuit, skipped_report,
                          verification_key, verify_netlist)


# ----------------------------------------------------------------------
# simulator
# ----------------------------------------------------------------------
class TestCellSemantics:
    def test_combinational_tables(self):
        assert cell_table(DEFAULT_LIBRARY.cell("INV")) == (1, 0)
        assert cell_table(DEFAULT_LIBRARY.cell("AND2")) == (0, 0, 0, 1)
        assert cell_table(DEFAULT_LIBRARY.cell("OR2")) == (0, 1, 1, 1)
        assert cell_table(DEFAULT_LIBRARY.cell("XOR2")) == (0, 1, 1, 0)

    def test_c_element_holds(self):
        # index bit k = input k: holds except at 00 and 11.
        assert cell_table(DEFAULT_LIBRARY.cell("C2")) == (0, None, None, 1)

    def test_srlatch(self):
        table = cell_table(DEFAULT_LIBRARY.cell("SRLATCH"))
        assert table[0b01] == 1   # set alone
        assert table[0b10] == 0   # reset alone
        assert table[0b00] is None and table[0b11] is None

    def test_unknown_cell_rejected(self):
        exotic = Library("x", {"MAJ3": Cell("MAJ3", 3, 1.0, 1.0)})
        with pytest.raises(SimulationError):
            cell_table(exotic.cell("MAJ3"))


def _buffer_spec():
    """input a, output x; x follows a through a full handshake cycle."""
    sg = StateGraph("buf")
    sg.declare_signal("a", SignalKind.INPUT)
    sg.declare_signal("x", SignalKind.OUTPUT)
    for label in ("a+", "a-", "x+", "x-"):
        sg.declare_event(label)
    sg.add_state("00", (0, 0))
    sg.add_state("10", (1, 0))
    sg.add_state("11", (1, 1))
    sg.add_state("01", (0, 1))
    sg.add_arc("00", "a+", "10")
    sg.add_arc("10", "x+", "11")
    sg.add_arc("11", "a-", "01")
    sg.add_arc("01", "x-", "00")
    return sg


def _buffer_netlist():
    netlist = Netlist("buf")
    netlist.add_input("a")
    netlist.add_output("x")
    netlist.add_alias("a", "x")
    return netlist


class TestSimulator:
    def test_atomic_nets_are_signals(self):
        sim = compile_circuit(_buffer_netlist(), ["a", "x"], ["a"], "atomic")
        assert sim.nets == ["a", "x"]
        assert len(sim.nodes) == 1  # only the implemented signal

    def test_excited_and_fire(self):
        sim = compile_circuit(_buffer_netlist(), ["a", "x"], ["a"], "atomic")
        quiescent = 0b00
        assert sim.excited(quiescent) == ()
        raised = sim.set_net(quiescent, 0, 1)     # environment: a+
        assert sim.excited(raised) == (0,)
        fired = sim.fire(raised, 0)               # circuit: x+
        assert fired == 0b11
        assert sim.excited(fired) == ()

    def test_incremental_excited_matches_full_scan(self):
        sim = compile_circuit(_buffer_netlist(), ["a", "x"], ["a"], "atomic")
        for previous in range(4):
            base = sim.excited(previous)
            for net in range(2):
                flipped = previous ^ (1 << net)
                sim._excited_memo.pop(flipped, None)
                incremental = sim.excited_after(previous, base, flipped)
                sim._excited_memo.pop(flipped, None)
                assert incremental == sim.excited(flipped)

    def test_structural_settles_internal_nets(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        netlist.add_output("x")
        netlist.add_gate("INV", ["a"], output="na")
        netlist.add_gate("INV", ["na"], output="x")
        sim = compile_circuit(netlist, ["a", "x"], ["a"], "structural")
        values = sim.settle({"a": 1, "x": 1})
        assert sim.value(values, sim.net_index["na"]) == 0
        assert sim.excited(values) == ()

    def test_structural_ignores_drivers_of_input_signals(self):
        # A netlist driving an environment input keeps no node for it: the
        # spec chooses input values, never the circuit.
        netlist = _buffer_netlist()
        netlist.add_gate("INV", ["x"], output="a2")
        netlist.add_alias("a2", "a")  # pathological: drives the input
        sim = compile_circuit(netlist, ["a", "x"], ["a"], "structural")
        assert all(sim.nets[node.out] != "a" for node in sim.nodes)
        report = check_conformance(netlist, _buffer_spec(),
                                   model="structural")
        assert report.ok

    def test_missing_driver_reported(self):
        netlist = Netlist("n")
        netlist.add_input("a")
        with pytest.raises(SimulationError):
            compile_circuit(netlist, ["a", "x"], ["a"], "atomic")


# ----------------------------------------------------------------------
# conformance
# ----------------------------------------------------------------------
class TestConformance:
    def test_buffer_conforms(self):
        report = check_conformance(_buffer_netlist(), _buffer_spec())
        assert report.ok
        assert report.verdict == "conforming"
        assert (report.conforming and report.hazard_free
                and report.deadlock_free and report.semi_modular)
        # simulator-vs-SG cross-check: the product is exactly the spec.
        assert report.product_states == report.spec_states == 4
        assert report.product_arcs == report.spec_arcs == 4
        assert report.trace == []

    def test_wrong_polarity_yields_counterexample(self):
        netlist = Netlist("buf")
        netlist.add_input("a")
        netlist.add_output("x")
        netlist.add_gate("INV", ["a"], output="x")   # x = a' instead of a
        report = check_conformance(netlist, _buffer_spec())
        assert report.verdict == "non-conforming"
        assert not report.ok
        assert report.trace  # minimal witness, BFS order
        assert report.trace[-1]["net"] == "x"
        assert "x+" in report.reason

    def test_deadlock_detected(self):
        sg = StateGraph("dead")
        sg.declare_signal("x", SignalKind.OUTPUT)
        sg.declare_event("x+")
        sg.declare_event("x-")
        sg.add_state("0", (0,))
        sg.add_state("1", (1,))
        sg.add_arc("0", "x+", "1")
        sg.add_arc("1", "x-", "0")
        netlist = Netlist("dead")
        netlist.add_output("x")
        netlist.add_alias("GND", "x")   # never produces x+
        report = check_conformance(netlist, sg)
        assert report.verdict == "deadlock"
        assert not report.deadlock_free
        assert report.conforming  # nothing wrong was *produced*

    @pytest.mark.parametrize("declared", [("a+", "b+"), ("b+", "a+")])
    def test_first_failure_follows_event_declaration_order(self, declared):
        # Either input leads to a deadlock.  The product visits enabled
        # labels in declaration order, not arc order, so the minimal
        # counterexample fires the first declared one.
        sg = StateGraph("race")
        for signal, kind in (("a", SignalKind.INPUT), ("b", SignalKind.INPUT),
                             ("x", SignalKind.OUTPUT)):
            sg.declare_signal(signal, kind)
        for label in declared:
            sg.declare_event(label)
        sg.add_state("000", (0, 0, 0))
        sg.add_state("100", (1, 0, 0))
        sg.add_state("010", (0, 1, 0))
        sg.add_arc("000", "a+", "100")
        sg.add_arc("000", "b+", "010")
        netlist = Netlist("race")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_output("x")
        netlist.add_alias("GND", "x")
        report = check_conformance(netlist, sg)
        assert report.verdict == "deadlock"
        assert [step["label"] for step in report.trace] == [declared[0]]

    def test_hazard_detected_on_withdrawn_excitation(self):
        # A non-persistent spec: x is excited after a+, then a- withdraws
        # it.  The circuit (x = a) keeps tracking, so its x node is excited
        # and then disabled without firing -- the defining hazard.
        sg = StateGraph("np")
        sg.declare_signal("a", SignalKind.INPUT)
        sg.declare_signal("x", SignalKind.OUTPUT)
        for label in ("a+", "a-", "x+", "x-"):
            sg.declare_event(label)
        sg.add_state("00", (0, 0))
        sg.add_state("10", (1, 0))
        sg.add_state("11", (1, 1))
        sg.add_state("01", (0, 1))
        sg.add_arc("00", "a+", "10")
        sg.add_arc("10", "x+", "11")
        sg.add_arc("10", "a-", "00")   # withdraws x+
        sg.add_arc("11", "a-", "01")
        sg.add_arc("01", "x-", "00")
        report = check_conformance(_buffer_netlist(), sg)
        assert report.verdict == "hazard"
        assert not report.hazard_free
        assert "excited, then disabled" in report.reason
        assert report.trace[-1]["label"] == "a-"

    def test_state_limit_verdict(self):
        report = check_conformance(_buffer_netlist(), _buffer_spec(),
                                   max_states=2)
        assert report.verdict == "state-limit"
        assert not report.ok

    def test_bad_model_rejected(self):
        with pytest.raises(ValueError):
            check_conformance(_buffer_netlist(), _buffer_spec(),
                              model="timed")


class TestSuiteConformance:
    """The acceptance surface: every suite spec, all four strategies."""

    @pytest.mark.parametrize("name", suite.suite_names())
    def test_suite_implementations_conform(self, name):
        initial_sg = generate_sg(suite.load(name))
        for strategy in STRATEGIES:
            result = run_pipeline(
                FlowConfig(strategy=strategy, verify=True),
                initial_sg=initial_sg, name=f"{name}/{strategy}")
            verification = result.verification()
            assert verification is not None
            if result.circuit() is None:
                # Only the unreduced micropipeline cannot resolve CSC.
                assert (name, strategy) == ("micropipeline", "none")
                assert verification.verdict == "skipped"
                continue
            assert verification.ok, (name, strategy, verification.reason)
            assert verification.semi_modular
            # Lock-step cross-check: the conforming product *is* the spec.
            assert verification.product_states == verification.spec_states
            assert verification.product_arcs == verification.spec_arcs

    def test_corrupted_netlist_yields_trace(self):
        initial_sg = generate_sg(suite.load("half"))
        result = run_pipeline(FlowConfig(strategy="full"),
                              initial_sg=initial_sg, name="half")
        netlist = result.circuit().netlist
        # Corrupt one gate: swap an AND2 for an OR2 (same nets, wrong
        # function) and re-verify against the same spec.
        corrupted = Netlist(netlist.name, netlist.library)
        for net in netlist.primary_inputs:
            corrupted.add_input(net)
        for net in netlist.primary_outputs:
            corrupted.add_output(net)
        swapped = False
        for gate in netlist.gates:
            cell = gate.cell.name
            if not swapped and cell == "AND2":
                cell, swapped = "OR2", True
            corrupted.add_gate(cell, gate.inputs, output=gate.output,
                               name=gate.name)
        for alias in netlist.aliases:
            corrupted.add_alias(alias.source, alias.target)
        assert swapped
        report = check_conformance(corrupted, result.resolved_sg(),
                                   name="half-corrupted")
        assert not report.ok
        assert report.verdict in ("non-conforming", "hazard")
        assert report.trace


# ----------------------------------------------------------------------
# fig1: the paper's introductory CSC example, as a verification story
# ----------------------------------------------------------------------
class TestFig1CrossCheck:
    def test_fig1_conflicted_circuit_is_caught(self):
        # Fig. 1's SG has a CSC conflict, so *no* correct SOP circuit for
        # Ack exists.  Build the optimistic one (conflicting codes treated
        # as ON, exactly the area-estimate cover) and let the verifier
        # reproduce the paper's point with a concrete counterexample.
        from repro.circuit.mapping import map_cover
        from repro.logic.functions import extract_function
        sg = generate_sg(fig1_stg())
        function = extract_function(sg, "Ack")
        assert function.has_csc_conflict
        cover = function.minimized()
        netlist = Netlist("fig1_optimistic")
        netlist.add_input("Req")
        netlist.add_output("Ack")
        map_cover(cover, function.variables, "Ack", netlist)
        report = check_conformance(netlist, sg, name="fig1")
        assert not report.ok
        assert report.verdict in ("non-conforming", "hazard")
        assert report.trace

    def test_fig1_flow_verification_is_skipped(self):
        result = run_pipeline(FlowConfig(strategy="none", verify=True),
                              initial_sg=generate_sg(fig1_stg()))
        assert result.circuit() is None
        assert result.verification().verdict == "skipped"
        assert result.verification().ok is False


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
class TestCertificate:
    def test_round_trip(self):
        report = check_conformance(_buffer_netlist(), _buffer_spec())
        clone = VerificationReport.from_dict(
            json.loads(report.to_json()))
        assert clone.to_dict() == report.to_dict()
        assert clone.seconds == 0.0  # timings never round-trip

    def test_timing_excluded_from_payload(self):
        report = check_conformance(_buffer_netlist(), _buffer_spec())
        assert report.seconds > 0.0
        assert "seconds" not in report.to_dict()

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            VerificationReport(name="x", model="atomic", verdict="maybe")

    def test_skipped_report(self):
        report = skipped_report("x", "no circuit")
        assert report.skipped and not report.ok

    def test_store_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        netlist, spec = _buffer_netlist(), _buffer_spec()
        cold, cached_cold = verify_netlist(netlist, spec, store=store)
        warm, cached_warm = verify_netlist(netlist, spec, store=store)
        assert not cached_cold and cached_warm
        assert warm.to_dict() == cold.to_dict()

    def test_cache_hit_relabels_report(self, tmp_path):
        # The display name is not part of the store key; a hit must carry
        # the asking point's name, not the label of whoever computed it.
        store = ArtifactStore(tmp_path / "store")
        netlist, spec = _buffer_netlist(), _buffer_spec()
        verify_netlist(netlist, spec, name="buf/none", store=store)
        cached, hit = verify_netlist(netlist, spec, name="buf/full",
                                     store=store)
        assert hit
        assert cached.name == "buf/full"

    def test_store_key_depends_on_netlist_and_spec(self):
        netlist, spec = _buffer_netlist(), _buffer_spec()
        key = verification_key(netlist, spec, "atomic", 100)
        other_netlist = Netlist("buf")
        other_netlist.add_input("a")
        other_netlist.add_output("x")
        other_netlist.add_gate("BUF", ["a"], output="x")
        assert verification_key(other_netlist, spec, "atomic", 100) != key
        assert verification_key(netlist, spec, "structural", 100) != key

    def test_corrupt_store_entry_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        netlist, spec = _buffer_netlist(), _buffer_spec()
        verify_netlist(netlist, spec, store=store)
        victim = store.keys()[0]
        (store.root / f"{victim}.json").write_text('{"row": {"bogus": 1}}')
        report, cached = verify_netlist(netlist, spec, store=store)
        assert not cached
        assert report.ok


# ----------------------------------------------------------------------
# flow + sweep integration
# ----------------------------------------------------------------------
class TestFlowIntegration:
    def test_q_module_verifies(self):
        result = run_pipeline(FlowConfig(strategy="none", verify=True),
                              initial_sg=generate_sg(q_module_stg()))
        assert result.verification() is not None
        assert result.verification().ok is True

    def test_verification_off_by_default(self):
        result = run_pipeline(FlowConfig(strategy="none"),
                              initial_sg=generate_sg(q_module_stg()))
        assert result.verification() is None
        assert "verify" not in result.results

    def test_structural_model_exposes_decomposition_hazards(self):
        # The plain 2-input decomposition is not SI-preserving (the
        # mapping module says so): under per-gate delays the half
        # controller glitches, and the verifier proves it with a trace.
        initial_sg = generate_sg(suite.load("half"))
        config = FlowConfig(strategy="full", verify=True,
                            verify_model="structural")
        result = run_pipeline(config, initial_sg=initial_sg, name="half")
        verification = result.verification()
        assert verification.model == "structural"
        assert not verification.ok
        assert verification.trace


class TestSweepIntegration:
    def test_verify_axis_is_part_of_point_identity(self):
        from repro.sweep import SweepGrid, make_point
        grid = SweepGrid([make_point("lr", "full"),
                          make_point("lr", "full", verify=True)])
        assert len(grid) == 2

    def test_sweep_rows_carry_verdicts_and_are_parallel_stable(self):
        grid = tables_grid(specs=["half", "fifo_cell"],
                           strategies=("none", "full"), verify=True)
        serial = run_sweep(grid, jobs=1)
        parallel = run_sweep(grid, jobs=2)
        for fmt in ("json", "csv", "md"):
            assert render(serial.rows, fmt) == render(parallel.rows, fmt)
        for row in serial.rows:
            assert row["verdict"] == "conforming"
            assert row["verify_states"] > 0

    def test_unverified_rows_have_empty_verdict(self):
        grid = tables_grid(specs=["half"], strategies=("none",))
        outcome = run_sweep(grid)
        assert outcome.rows[0]["verdict"] is None

    def test_warm_store_skips_reverification(self, tmp_path):
        grid = tables_grid(specs=["half"], strategies=("none", "full"),
                           verify=True)
        store = ArtifactStore(tmp_path / "store")
        cold = run_sweep(grid, store=store)
        warm = run_sweep(grid, store=store)
        assert warm.computed == 0
        assert warm.cached == len(grid)
        assert render(cold.rows, "json") == render(warm.rows, "json")


class TestDeterminism:
    def test_certificate_stable_across_hash_seeds(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        program = (
            "from repro.pipeline import FlowConfig, run_pipeline\n"
            "from repro.sg.generator import generate_sg\n"
            "from repro.specs import suite\n"
            "sg = generate_sg(suite.load('fifo_cell'))\n"
            "result = run_pipeline(FlowConfig(strategy='full', verify=True),\n"
            "                      initial_sg=sg, name='fifo_cell')\n"
            "print(result.verification().to_json())\n")
        payloads = set()
        for seed in ("0", "1", "12345"):
            completed = subprocess.run(
                [sys.executable, "-c", program], cwd=root,
                env={"PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin",
                     "PYTHONPATH": str(root / "src")},
                capture_output=True, text=True, check=True)
            payloads.add(completed.stdout)
        assert len(payloads) == 1
