"""Unit tests for next-state function extraction (repro.logic.functions)."""

from itertools import product

import pytest

from qm_oracle import qm_minimize
from repro import FlowConfig, run_pipeline
from repro.logic.cube import Cover
from repro.logic.functions import (extract_all_functions, extract_function,
                                   extract_set_reset)
from repro.logic.minimize import _unpack_cube, minimize_fast_ints
from repro.petri.stg import SignalKind
from repro.reduction.explore import full_reduction
from repro.sg.generator import generate_sg
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg
from repro.specs.mmu import TABLE2_KEEP_CONC, keep_conc_for, mmu_expanded


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def lr_wires():
    return full_reduction(generate_sg(lr_expanded()))


class TestExtraction:
    def test_input_signal_rejected(self, fig1):
        with pytest.raises(ValueError):
            extract_function(fig1, "Req")

    def test_fig1_ack_has_conflict(self, fig1):
        function = extract_function(fig1, "Ack")
        assert function.has_csc_conflict
        assert function.conflicts == {(1, 1)}

    def test_on_off_dc_partition(self, fig1):
        function = extract_function(fig1, "Ack")
        universe = set()
        universe |= function.on | function.off | function.dc | function.conflicts
        assert len(universe) == 4  # 2 signals -> 4 codes
        assert not function.on & function.off
        assert not function.on & function.dc
        assert not function.off & function.dc

    def test_next_state_semantics(self, fig1):
        function = extract_function(fig1, "Ack")
        # Initial state (Req=1, Ack=0) has Ack+ enabled: next value 1.
        assert (1, 0) in function.on
        # State (0, 0): Ack stable low: next value 0.
        assert (0, 0) in function.off

    def test_extract_all_covers_non_inputs(self, fig1):
        functions = extract_all_functions(fig1)
        assert set(functions) == {"Ack"}

    def test_q_module_conflicts_per_signal(self):
        sg = generate_sg(q_module_stg())
        functions = extract_all_functions(sg)
        conflicted = {s for s, f in functions.items() if f.has_csc_conflict}
        # The repeated code 1000 separates lo's and ro's excitation.
        assert conflicted  # at least one signal is ill-defined

    def test_wire_functions_after_full_reduction(self, lr_wires):
        functions = extract_all_functions(lr_wires)
        lo = functions["lo"].minimized(exact=True)
        ro = functions["ro"].minimized(exact=True)
        names = functions["lo"].variables
        assert lo.single_literal() == (names.index("ri"), 1)
        assert ro.single_literal() == (names.index("li"), 1)

    def test_minimized_conflict_policies(self, fig1):
        function = extract_function(fig1, "Ack")
        on_cover = function.minimized(conflict_policy="on")
        dc_cover = function.minimized(conflict_policy="dc")
        for minterm in function.on:
            assert on_cover.contains(minterm)
            assert dc_cover.contains(minterm)
        assert on_cover.contains((1, 1))
        with pytest.raises(ValueError):
            function.minimized(conflict_policy="bogus")

    def test_fast_and_exact_agree_on_validity(self, lr_wires):
        for signal, function in extract_all_functions(lr_wires).items():
            n = function.num_vars
            fast = Cover(n, [_unpack_cube(cube, n) for cube in
                             minimize_fast_ints(n, function.resolved_on(),
                                                function.off_ints)])
            exact = function.minimized(exact=True)
            for minterm in function.on:
                assert fast.contains(minterm)
                assert exact.contains(minterm)
            for minterm in function.off:
                assert not fast.contains(minterm)
                assert not exact.contains(minterm)


class TestSetReset:
    def test_conflicted_signal_rejected(self, fig1):
        with pytest.raises(ValueError):
            extract_set_reset(fig1, "Ack")

    def test_set_reset_covers_er(self, lr_wires):
        result = extract_set_reset(lr_wires, "lo", exact=True)
        index = lr_wires.signal_index("lo")
        for state in lr_wires.states:
            code = lr_wires.code_of(state)
            if lr_wires.target(state, "lo+") is not None:
                assert result.set_cover.contains(code)
            if lr_wires.target(state, "lo-") is not None:
                assert result.reset_cover.contains(code)

    def test_set_and_reset_mutual_exclusion(self, lr_wires):
        # The set network must be low in the reset region and at stable 0
        # (else the output would rise spuriously); dually the reset network
        # must be low in the set region and at stable 1.  Holding the reset
        # asserted while the output is already low is fine (don't care).
        result = extract_set_reset(lr_wires, "lo", exact=True)
        for state in lr_wires.states:
            code = lr_wires.code_of(state)
            if lr_wires.target(state, "lo-") is not None:
                assert not result.set_cover.contains(code)
            if lr_wires.target(state, "lo+") is not None:
                assert not result.reset_cover.contains(code)
            value = lr_wires.value_of(state, "lo")
            stable = (lr_wires.target(state, "lo+") is None
                      and lr_wires.target(state, "lo-") is None)
            if stable and value == 0:
                assert not result.set_cover.contains(code)
            if stable and value == 1:
                assert not result.reset_cover.contains(code)


class TestSetResetOracle:
    """Set/reset covers of a Table 2 row against the QM path on tuples."""

    @pytest.fixture(scope="class")
    def mmu_bmr(self):
        sg = full_reduction(generate_sg(mmu_expanded()), size_frontier=3,
                            keep_conc=keep_conc_for(TABLE2_KEEP_CONC["|| (b, m, r)"]))
        return run_pipeline(FlowConfig(strategy="none"), initial_sg=sg,
                            name="|| (b, m, r)").resolved_sg()

    def test_covers_match_the_qm_path(self, mmu_bmr):
        sg = mmu_bmr
        num_vars = len(sg.signals)
        reachable = {sg.code_of(state) for state in sg.states}
        unreachable = set(product((0, 1), repeat=num_vars)) - reachable
        signals = [s for s in sg.signals if sg.kinds[s] != SignalKind.INPUT]
        assert len(sg) == 48 and len(signals) == 5
        for signal in signals:
            index = sg.signal_index(signal)
            regions = {"set": set(), "reset": set(), "high": set(), "low": set()}
            for state in sg.states:
                code = sg.code_of(state)
                if sg.target(state, f"{signal}+") is not None:
                    regions["set"].add(code)
                elif sg.target(state, f"{signal}-") is not None:
                    regions["reset"].add(code)
                else:
                    regions["high" if code[index] else "low"].add(code)
            for exact in (False, True):
                result = extract_set_reset(sg, signal, exact=exact)
                expected_set = qm_minimize(num_vars, regions["set"],
                                           regions["high"] | unreachable, exact)
                expected_reset = qm_minimize(num_vars, regions["reset"],
                                             regions["low"] | unreachable, exact)
                assert str_cubes(result.set_cover) == str_cubes(expected_set)
                assert str_cubes(result.reset_cover) == str_cubes(expected_reset)


def str_cubes(cover):
    return [str(cube) for cube in cover.cubes]
