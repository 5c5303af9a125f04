"""``check_conformance`` against the FIFO-walk reference of
``tests/verify_oracle.py``, byte for byte.

The library runs the circuit x spec product on the shared level loop;
the reference drains its own queue with per-state step dicts.  Every
report payload, count, trace and reason must be the same: the verdict
each walk reaches first, where a budget stops it and which
counterexample it prints.
"""

import json
from functools import lru_cache

import pytest

from repro.circuit.netlist import Netlist
from repro.explore import ExplorationBudget
from repro.obs.metrics import registry as registry_metrics
from repro.obs.trace import TraceRecorder, recording
from repro.petri.stg import SignalKind
from repro.pipeline import STRATEGIES, FlowConfig, run_pipeline
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.specs import registry, suite
from repro.specs.lr import TABLE1_ROWS, lr_expanded
from repro.verify import check_conformance
from verify_oracle import reference_conformance

MODELS = ("atomic", "structural")
TWO_INPUT_CELLS = ("AND2", "OR2", "NAND2", "NOR2", "XOR2", "C2")


def _payload(report):
    return (json.dumps(report.to_dict(), sort_keys=True),
            report.product_states, report.product_arcs, report.trace,
            report.reason)


def _same(netlist, spec, **kwargs):
    """Both walks' reports on one check; returns the library's."""
    report = check_conformance(netlist, spec, **kwargs)
    assert _payload(report) == _payload(
        reference_conformance(netlist, spec, **kwargs)), kwargs
    return report


@lru_cache(maxsize=None)
def _flow(spec, strategy):
    """(netlist, resolved spec) of one design point, or None."""
    result = run_pipeline(FlowConfig(strategy=strategy),
                          initial_sg=registry.spec_sg(spec),
                          name=f"{spec}/{strategy}")
    circuit = result.circuit()
    return None if circuit is None else (circuit.netlist,
                                         result.resolved_sg())


def _rebuilt(netlist, cells=(), inverted=()):
    """A copy of ``netlist`` with the gate cells ``cells`` names replaced
    and the aliases onto ``inverted`` nets turned into inverters."""
    copy = Netlist(netlist.name, netlist.library)
    for net in netlist.primary_inputs:
        copy.add_input(net)
    for net in netlist.primary_outputs:
        copy.add_output(net)
    for gate in netlist.gates:
        copy.add_gate(dict(cells).get(gate.name, gate.cell.name),
                      gate.inputs, output=gate.output, name=gate.name)
    for alias in netlist.aliases:
        if alias.target in inverted:
            copy.add_gate("INV", [alias.source], output=alias.target)
        else:
            copy.add_alias(alias.source, alias.target)
    return copy


def _graph(name, signals, events, states, arcs):
    sg = StateGraph(name)
    for signal, kind in signals:
        sg.declare_signal(signal, kind)
    for label in events:
        sg.declare_event(label)
    for state in states:
        sg.add_state(state, tuple(int(bit) for bit in state if bit.isdigit()))
    for arc in arcs:
        sg.add_arc(*arc)
    return sg


A_X = (("a", SignalKind.INPUT), ("x", SignalKind.OUTPUT))
HANDSHAKE = ("a+", "a-", "x+", "x-")


def _buffer_spec():
    return _graph("buf", A_X, HANDSHAKE, ("00", "10", "11", "01"), [
        ("00", "a+", "10"), ("10", "x+", "11"), ("11", "a-", "01"),
        ("01", "x-", "00")])


def _withdrawing_spec():
    # a- withdraws the x+ that a+ excited: x = a is hazardous here.
    return _graph("np", A_X, HANDSHAKE, ("00", "10", "11", "01"), [
        ("00", "a+", "10"), ("10", "x+", "11"), ("10", "a-", "00"),
        ("11", "a-", "01"), ("01", "x-", "00")])


def _withdrawing_to_fresh_spec():
    # As above, but a- leads to a state the walk has not seen yet.
    return _graph("np2", A_X, HANDSHAKE, ("00", "10", "11", "01", "00w"), [
        ("00", "a+", "10"), ("10", "x+", "11"), ("10", "a-", "00w"),
        ("00w", "a+", "10"), ("11", "a-", "01"), ("01", "x-", "00")])


def _netlist(name, inputs, output, gate=None, alias=None):
    netlist = Netlist(name)
    for net in inputs:
        netlist.add_input(net)
    netlist.add_output(output)
    if gate is not None:
        netlist.add_gate(gate[0], gate[1], output=output)
    if alias is not None:
        netlist.add_alias(alias, output)
    return netlist


def _race_spec(declared):
    return _graph("race", (("a", SignalKind.INPUT), ("b", SignalKind.INPUT),
                           ("x", SignalKind.OUTPUT)), declared,
                  ("000", "100", "010"),
                  [("000", "a+", "100"), ("000", "b+", "010")])


SMALL_CASES = {
    "buffer": lambda: (_netlist("buf", ["a"], "x", alias="a"),
                       _buffer_spec()),
    "wrong_polarity": lambda: (_netlist("buf", ["a"], "x",
                                        gate=("INV", ["a"])),
                               _buffer_spec()),
    "hazard": lambda: (_netlist("buf", ["a"], "x", alias="a"),
                       _withdrawing_spec()),
    "hazard_fresh": lambda: (_netlist("buf", ["a"], "x", alias="a"),
                             _withdrawing_to_fresh_spec()),
    "deadlock": lambda: (_netlist("dead", [], "x", alias="GND"), _graph(
        "dead", (("x", SignalKind.OUTPUT),), ("x+", "x-"), ("0", "1"),
        [("0", "x+", "1"), ("1", "x-", "0")])),
    "race_ab": lambda: (_netlist("race", ["a", "b"], "x", alias="GND"),
                        _race_spec(("a+", "b+"))),
    "race_ba": lambda: (_netlist("race", ["a", "b"], "x", alias="GND"),
                        _race_spec(("b+", "a+"))),
    "drives_input": lambda: (_drives_input(), _buffer_spec()),
    "input_choice": lambda: (_netlist("or", ["a", "b"], "x",
                                      gate=("OR2", ["a", "b"])),
                             _input_choice_spec()),
}


def _input_choice_spec():
    # Either input may rise first and withdraws the other: x = a + b
    # conforms, but the environment's choice is not semi-modular.
    return _graph("choice", (("a", SignalKind.INPUT), ("b", SignalKind.INPUT),
                             ("x", SignalKind.OUTPUT)),
                  ("a+", "a-", "b+", "b-", "x+", "x-"),
                  ("000", "100", "101", "010", "011", "001"), [
                      ("000", "a+", "100"), ("100", "x+", "101"),
                      ("101", "a-", "001"), ("000", "b+", "010"),
                      ("010", "x+", "011"), ("011", "b-", "001"),
                      ("001", "x-", "000")])


def _drives_input():
    netlist = _netlist("buf", ["a"], "x", alias="a")
    netlist.add_gate("INV", ["x"], output="a2")
    netlist.add_alias("a2", "a")
    return netlist


def _mutants(spec, strategy):
    """One netlist per two-input gate, its cell swapped for the next
    two-input cell, and one per alias, turned into an inverter."""
    netlist = _flow(spec, strategy)[0]
    for gate in netlist.gates:
        if gate.cell.name in TWO_INPUT_CELLS:
            at = TWO_INPUT_CELLS.index(gate.cell.name)
            swap = TWO_INPUT_CELLS[(at + 1) % len(TWO_INPUT_CELLS)]
            yield gate.name, _rebuilt(netlist, cells=[(gate.name, swap)])
    for alias in netlist.aliases:
        yield alias.target, _rebuilt(netlist, inverted=[alias.target])


class TestReferenceConformance:
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("spec", suite.suite_names())
    def test_suite_points(self, spec, strategy, model):
        flow = _flow(spec, strategy)
        if flow is None:
            pytest.skip("no circuit: CSC unresolved")
        _same(*flow, model=model, name=f"{spec}/{strategy}")

    @pytest.mark.parametrize("row", sorted(TABLE1_ROWS))
    def test_table1_rows(self, row):
        result = run_pipeline(TABLE1_ROWS[row],
                              initial_sg=generate_sg(lr_expanded()), name=row)
        for model in MODELS:
            _same(result.circuit().netlist, result.resolved_sg(),
                  model=model, name=row)

    def test_decoupled_chain(self):
        from repro.bench.cases.frontier import (_chain_netlist, _chain_spec,
                                                _synthesize_cell)

        cell_text, cell_netlist = _synthesize_cell()
        report = _same(_chain_netlist(cell_netlist, 4),
                       generate_sg(_chain_spec(cell_text, 4)))
        assert report.ok

    @pytest.mark.parametrize("spec", ["vme_read", "half"])
    def test_reduced_walk(self, spec):
        _same(*_flow(spec, "full"), model="structural", reduced=True)

    @pytest.mark.parametrize("case", sorted(SMALL_CASES))
    @pytest.mark.parametrize("model", MODELS)
    def test_small_cases(self, case, model):
        _same(*SMALL_CASES[case](), model=model)

    @pytest.mark.parametrize("case", sorted(SMALL_CASES))
    def test_small_cases_strict(self, case):
        _same(*SMALL_CASES[case](), require_semi_modular=True)

    def test_small_cases_reach_every_verdict(self):
        verdicts = {check_conformance(*make(), require_semi_modular=True
                                      ).verdict
                    for make in SMALL_CASES.values()}
        assert {"conforming", "non-conforming", "hazard", "deadlock",
                "not-semi-modular"} <= verdicts

    def test_corrupted_half(self):
        netlist, resolved = _flow("half", "full")
        gate = next(g.name for g in netlist.gates if g.cell.name == "AND2")
        report = _same(_rebuilt(netlist, cells=[(gate, "OR2")]), resolved,
                       name="half-corrupted")
        assert not report.ok and report.trace

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("spec", ["lr", "vme_read"])
    def test_gate_mutants(self, spec, model):
        resolved = _flow(spec, "full")[1]
        mutants = list(_mutants(spec, "full"))
        assert mutants
        for mutated, netlist in mutants:
            _same(netlist, resolved, model=model, name=mutated)

    @pytest.mark.parametrize("case", sorted(SMALL_CASES)
                             + ["half/full", "lr/full"])
    def test_every_budget(self, case):
        # Up to the counts where the full walk ends or fails, so a
        # budget trips on every arc: before, at and after a refutation.
        if case in SMALL_CASES:
            netlist, spec = SMALL_CASES[case]()
        else:
            netlist, spec = _flow(*case.split("/"))
        model = "structural" if case == "half/full" else "atomic"
        full = check_conformance(netlist, spec, model=model)
        for limit in range(full.product_states + 1):
            _same(netlist, spec, model=model, max_states=limit)
        for limit in range(full.product_arcs + 1):
            _same(netlist, spec, model=model,
                  budget=ExplorationBudget(max_arcs=limit))


class TestProductObservability:
    """The product runs on the level loop: spanned and counted under the
    ``product`` engine label, and observation changes no byte."""

    @staticmethod
    def _verify():
        result = run_pipeline(FlowConfig(verify=True),
                              initial_sg=registry.spec_sg("fifo_cell"),
                              name="fifo_cell")
        return result.verification()

    def test_levels_are_spanned_under_verify(self):
        recorder = TraceRecorder()
        with recording(recorder):
            traced = self._verify()
        (pipeline,) = recorder.to_tree()["spans"]
        (verify,) = [node for node in pipeline["children"]
                     if node["name"] == "stage:verify"]
        levels = [node for node in _walk(verify)
                  if node["name"] == "frontier:level"]
        assert levels
        assert {node["attrs"]["engine"] for node in levels} == {"product"}
        assert [node["attrs"]["level"] for node in levels] == list(
            range(len(levels)))
        assert levels[-1]["attrs"]["states"] == traced.product_states
        assert traced.to_json() == self._verify().to_json()

    def test_each_computed_verification_counts_one_run(self):
        def runs():
            return registry_metrics().value("repro_explore_runs_total",
                                            engine="product") or 0

        before = runs()
        first, second = self._verify(), self._verify()
        assert runs() - before == 2
        assert first.to_json() == second.to_json()


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)
