"""Unit tests for next-state function extraction (repro.logic.functions)."""

import pytest

from cost_oracle import minimize_fast_ints
from qm_oracle import qm_minimize
from repro import FlowConfig, run_pipeline
from repro.logic.cube import Cover
from repro.logic.functions import (extract_all_functions, extract_function,
                                   extract_set_reset)
from repro.logic.minimize import _unpack_cube
from repro.petri.net import bit_tuple
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
        assert function.conflict_ints == {0b11}

    def test_on_off_dc_partition(self, fig1):
        function = extract_function(fig1, "Ack")
        on, off = function.on_ints, function.off_ints
        conflicts = function.conflict_ints
        assert not on & off and not on & conflicts and not off & conflicts
        # 2 signals -> 4 codes; every code outside the three is a don't care.
        assert on | off | conflicts <= set(range(4))

    def test_next_state_semantics(self, fig1):
        function = extract_function(fig1, "Ack")
        # Initial state (Req=1, Ack=0) has Ack+ enabled: next value 1.
        assert 0b01 in function.on_ints
        # State (0, 0): Ack stable low: next value 0.
        assert 0b00 in function.off_ints

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

    def test_minimized_folds_conflicts_into_on(self, fig1):
        function = extract_function(fig1, "Ack")
        cover = function.minimized()
        assert function.resolved_on() == function.on_ints | {0b11}
        for code in function.resolved_on():
            assert cover.contains(bit_tuple(code, 2))
        for code in function.off_ints:
            assert not cover.contains(bit_tuple(code, 2))

    def test_fast_and_exact_agree_on_validity(self, lr_wires):
        for signal, function in extract_all_functions(lr_wires).items():
            n = function.num_vars
            fast = Cover(n, [_unpack_cube(cube, n) for cube in
                             minimize_fast_ints(n, function.resolved_on(),
                                                function.off_ints)])
            exact = function.minimized(exact=True)
            for code in function.on_ints:
                assert fast.contains(bit_tuple(code, n))
                assert exact.contains(bit_tuple(code, n))
            for code in function.off_ints:
                assert not fast.contains(bit_tuple(code, n))
                assert not exact.contains(bit_tuple(code, n))


class TestSetReset:
    def test_conflicted_signal_rejected(self, fig1):
        with pytest.raises(ValueError):
            extract_set_reset(fig1, "Ack")

    def test_set_reset_covers_er(self, lr_wires):
        result = extract_set_reset(lr_wires, "lo")
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
        result = extract_set_reset(lr_wires, "lo")
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
        unreachable = set(range(1 << num_vars)) - set(sg.code_ints)
        signals = [s for s in sg.signals if sg.kinds[s] != SignalKind.INPUT]
        assert len(sg) == 48 and len(signals) == 5
        for signal in signals:
            bit = 1 << sg.signal_index(signal)
            regions = {"set": set(), "reset": set(), "high": set(), "low": set()}
            for state in sg.states:
                code = sg.code_int(state)
                if sg.target(state, f"{signal}+") is not None:
                    regions["set"].add(code)
                elif sg.target(state, f"{signal}-") is not None:
                    regions["reset"].add(code)
                else:
                    regions["high" if code & bit else "low"].add(code)
            result = extract_set_reset(sg, signal)
            expected_set = qm_minimize(
                num_vars, regions["set"], regions["high"] | unreachable,
                exact=True)
            expected_reset = qm_minimize(
                num_vars, regions["reset"], regions["low"] | unreachable,
                exact=True)
            assert str_cubes(result.set_cover) == str_cubes(expected_set)
            assert str_cubes(result.reset_cover) == str_cubes(expected_reset)


def str_cubes(cover):
    return [str(cube) for cube in cover.cubes]
