"""Unit tests for CSC state-signal insertion (repro.encoding)."""

import pytest

from repro.encoding.csc import (conflict_cores, conflict_count,
                                conflicting_state_pairs,
                                estimate_csc_signals_needed,
                                irresolvable_conflicts,
                                signals_needing_resolution)
from repro.encoding.insertion import (enumerate_insertions, find_insertion,
                                      insert_state_signal,
                                      insert_state_signal_sequencing,
                                      resolve_csc)
from repro.petri.stg import SignalKind
from repro.sg.generator import generate_sg
from repro.sg.properties import (csc_conflicts, is_consistent,
                                 is_output_persistent)
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def q_module():
    return generate_sg(q_module_stg())


class TestConflictAnalysis:
    def test_fig1_core(self, fig1):
        cores = conflict_cores(fig1)
        assert len(cores) == 1
        assert cores[0].code == (1, 1)
        assert len(cores[0].states) == 2

    def test_counts(self, fig1):
        assert conflict_count(fig1) == 1
        assert len(conflicting_state_pairs(fig1)) == 1

    def test_signals_needing_resolution(self, fig1):
        assert signals_needing_resolution(fig1) == {"Ack"}

    def test_estimate_signals_needed(self, fig1):
        assert estimate_csc_signals_needed(fig1) == 1

    def test_fig1_conflict_is_irresolvable(self, fig1):
        # Only input events (Req-; Req+) separate the two 11 states: no
        # internal signal can tell them apart without delaying an input.
        assert len(irresolvable_conflicts(fig1)) == 1

    def test_resolvable_conflicts_not_flagged(self, q_module):
        assert irresolvable_conflicts(q_module) == []


class TestInsertion:
    def test_fig1_resolution_fails_cleanly(self, fig1):
        # The conflict is irresolvable (see above): the search must report
        # failure rather than produce a bogus insertion.
        result = resolve_csc(fig1)
        assert not result.resolved
        assert result.signal_count == 0
        assert result.sg is fig1

    def test_resolved_sg_is_well_formed(self, q_module):
        result = resolve_csc(q_module)
        sg = result.sg
        assert result.resolved
        assert is_consistent(sg)
        assert is_output_persistent(sg)
        assert sg.kinds["csc0"] == SignalKind.INTERNAL

    def test_resolve_q_module(self, q_module):
        result = resolve_csc(q_module)
        assert result.resolved
        assert result.signal_count == 1

    def test_resolve_lr_max_needs_two_signals(self):
        sg = generate_sg(lr_expanded())
        result = resolve_csc(sg)
        assert result.resolved
        assert result.signal_count == 2  # Table 1, "Max. concurrency" row

    def test_already_clean_sg_untouched(self, q_module):
        clean = resolve_csc(q_module).sg
        again = resolve_csc(clean)
        assert again.resolved
        assert again.signal_count == 0
        assert again.sg is clean

    def test_threading_rejects_input_triggers(self, fig1):
        assert insert_state_signal(fig1, "Req+", "Ack-", "x") is None
        assert insert_state_signal(fig1, "Ack-", "Req-", "x") is None

    def test_threading_rejects_same_trigger(self, q_module):
        assert insert_state_signal(q_module, "lo+", "lo+", "x") is None

    def test_threading_rejects_unknown(self, q_module):
        assert insert_state_signal(q_module, "zz", "lo+", "x") is None

    def test_threading_initial_value_validated(self, q_module):
        with pytest.raises(ValueError):
            insert_state_signal(q_module, "lo+", "ro+", "x", initial_value=2)

    def test_threading_extends_codes(self, q_module):
        candidate = insert_state_signal(q_module, "ro+", "lo+", "x")
        assert candidate is not None
        assert len(candidate.signals) == len(q_module.signals) + 1
        assert is_consistent(candidate)

    def test_sequencing_allows_input_triggers(self, q_module):
        candidate = insert_state_signal_sequencing(q_module, "ri+", "li-", "x")
        assert candidate is not None
        assert is_consistent(candidate)

    def test_sequencing_never_delays_inputs(self, q_module):
        candidate = insert_state_signal_sequencing(q_module, "ri+", "li-", "x")
        # Every state that enabled an input in the original enables it in
        # the extension (pending or not).
        for state in candidate.states:
            orig = state[0]
            for label in q_module.enabled(orig):
                if q_module.is_input_label(label):
                    assert candidate.target(state, label) is not None

    @pytest.mark.parametrize("insert", [insert_state_signal,
                                        insert_state_signal_sequencing])
    def test_product_bounded_by_four_phases(self, insert):
        # (value, pending) takes only four combinations, so no candidate
        # outgrows 4x its parent and the search needs no state cap.
        sg = generate_sg(lr_expanded())
        phases = {(0, None), (1, None), (0, "+"), (1, "-")}
        built = 0
        for rise in sg.labels():
            for fall in sg.labels():
                for value in (0, 1):
                    candidate = insert(sg, rise, fall, "csc0", value)
                    if candidate is None:
                        continue
                    built += 1
                    assert len(candidate) <= 4 * len(sg)
                    assert {state[1:] for state in candidate.states} <= phases
        assert built

    def test_enumerate_orders_by_quality(self, q_module):
        candidates = enumerate_insertions(q_module, "x")
        assert candidates
        conflicts = [choice.conflicts_after for choice, _ in candidates]
        assert conflicts == sorted(conflicts)

    def test_find_insertion_none_when_clean(self, q_module):
        clean = resolve_csc(q_module).sg
        assert find_insertion(clean, "x") is None

    def test_inserted_signal_participates_in_logic(self, q_module):
        from repro.logic.functions import extract_all_functions
        result = resolve_csc(q_module)
        functions = extract_all_functions(result.sg)
        assert "csc0" in functions
        assert all(not f.has_csc_conflict for f in functions.values())
