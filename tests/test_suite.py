"""Flow-level tests over the extended benchmark suite (repro.specs.suite).

Each benchmark goes through the entire pipeline; the assertions here are
*invariants* of the flow, so they double as integration tests: reductions
never break speed independence, resolved SGs always synthesize, reported
areas are consistent with the per-signal netlists, and the timed simulation
always finds a steady cycle on a live controller.
"""

import pytest

from repro.petri.analysis import is_deadlock_free, is_safe
from repro.pipeline import FlowConfig, run_pipeline, table_row
from repro.reduction.explore import full_reduction, reduce_concurrency
from repro.sg.generator import generate_sg
from repro.sg.properties import check_implementability, csc_conflicts
from repro.specs.suite import load, load_all, suite_names

ALL = sorted(load_all())


class TestSuiteSpecs:
    def test_names(self):
        assert suite_names() == ["fifo_cell", "half", "micropipeline",
                                 "vme_read"]

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load("nope")

    @pytest.mark.parametrize("name", ALL)
    def test_nets_are_safe_and_live(self, name):
        stg = load(name)
        assert is_safe(stg.net), name
        assert is_deadlock_free(stg.net), name

    @pytest.mark.parametrize("name", ALL)
    def test_sgs_are_speed_independent(self, name):
        sg = generate_sg(load(name))
        report = check_implementability(sg)
        assert report.consistent, name
        assert report.speed_independent, name
        assert report.deadlock_free, name


class TestSuiteFlow:
    @pytest.mark.parametrize("name", ALL)
    def test_implement_each(self, name):
        result = run_pipeline(FlowConfig(strategy="none"),
                              initial_sg=generate_sg(load(name)))
        row = table_row(result)
        assert row.cycle_time is not None
        assert row.cycle_time > 0
        if result.csc_resolved():
            circuit = result.circuit()
            assert row.area is not None
            assert row.area == circuit.netlist.area
            per_signal = sum(impl.area for impl in circuit.signals.values())
            assert per_signal == row.area

    @pytest.mark.parametrize("name", ALL)
    def test_reduction_invariants(self, name):
        sg = generate_sg(load(name))
        result = reduce_concurrency(sg, max_explored=200, patience=50)
        best = result.best
        report = check_implementability(best)
        assert report.consistent, name
        assert report.speed_independent, name
        assert best.initial == sg.initial
        assert set(best.states) <= set(sg.states)
        assert {label for _, label, _ in best.arcs()} == \
            {label for _, label, _ in sg.arcs()}

    @pytest.mark.parametrize("name", ALL)
    def test_full_reduction_terminal(self, name):
        from repro.reduction.fwdred import forward_reduction, reducible_pairs
        sg = generate_sg(load(name))
        terminal = full_reduction(sg, size_frontier=3)
        for before, delayed in reducible_pairs(terminal):
            assert not forward_reduction(terminal, delayed, before).valid

    @pytest.mark.parametrize("name", ALL)
    def test_reduction_never_adds_conflicts(self, name):
        sg = generate_sg(load(name))
        baseline_codes = {sg.code_of(s) for s in sg.states}
        result = reduce_concurrency(sg, max_explored=200, patience=50)
        reduced_codes = {result.best.code_of(s) for s in result.best.states}
        assert reduced_codes <= baseline_codes
        assert len(csc_conflicts(result.best)) <= len(csc_conflicts(sg))
