"""Unit tests for CSC state-signal insertion (repro.encoding)."""

import pytest

from repro.encoding.csc import conflict_count, irresolvable_conflicts
from repro.encoding.insertion import (STYLES, enumerate_insertions,
                                      insert_state_signal, resolve_csc)
from repro.petri.stg import SignalKind
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.sg.generator import generate_sg
from repro.sg.properties import is_consistent, is_output_persistent
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def q_module():
    return generate_sg(q_module_stg())


@pytest.fixture(scope="module")
def mmu_bl():
    # Its improving candidates cover both insertion styles.
    from repro.reduction.explore import full_reduction
    from repro.specs.mmu import keep_conc_for, mmu_expanded
    return full_reduction(generate_sg(mmu_expanded()),
                          keep_conc=keep_conc_for(("b", "l")), size_frontier=3)


class TestConflictAnalysis:
    def test_counts(self, fig1):
        assert conflict_count(fig1) == 1

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

    @pytest.mark.parametrize("rise, fall", [("lo+", "lo+"), ("zz", "lo+"),
                                            ("ri+", "lo+")],
                             ids=["equal", "unknown", "input"])
    def test_arguments_checked_before_feasibility(self, q_module, rise, fall):
        # Each trigger pair alone is infeasible for threading; bad arguments
        # must still raise rather than return None.
        assert insert_state_signal(q_module, rise, fall, "x") is None
        with pytest.raises(ValueError, match="style"):
            insert_state_signal(q_module, rise, fall, "x", style="serial")
        with pytest.raises(ValueError, match="initial_value"):
            insert_state_signal(q_module, rise, fall, "x", initial_value=2)
        with pytest.raises(ValueError, match="already declared"):
            insert_state_signal(q_module, rise, fall, "ri")

    def test_unknown_style_rejected(self, q_module):
        with pytest.raises(ValueError, match="style"):
            insert_state_signal(q_module, "ro+", "lo+", "x", style="serial")

    def test_declared_signal_rejected(self, q_module):
        with pytest.raises(ValueError, match="already declared"):
            insert_state_signal(q_module, "ro+", "lo+", "ri")

    def test_threading_extends_codes(self, q_module):
        candidate = insert_state_signal(q_module, "ro+", "lo+", "x")
        assert candidate is not None
        assert len(candidate.signals) == len(q_module.signals) + 1
        assert is_consistent(candidate)

    def test_sequencing_allows_input_triggers(self, q_module):
        candidate = insert_state_signal(q_module, "ri+", "li-", "x",
                                        style="sequencing")
        assert candidate is not None
        assert is_consistent(candidate)

    def test_sequencing_never_delays_inputs(self, q_module):
        candidate = insert_state_signal(q_module, "ri+", "li-", "x",
                                        style="sequencing")
        # Every state that enabled an input in the original enables it in
        # the extension (pending or not).
        for state in candidate.states:
            orig = state[0]
            for label in q_module.enabled(orig):
                if q_module.is_input_label(label):
                    assert candidate.target(state, label) is not None

    @pytest.mark.parametrize("style", STYLES)
    def test_product_bounded_by_four_phases(self, style, q_module):
        # (value, pending) takes only four combinations, so no candidate
        # outgrows 4x its parent and the search needs no state cap.  LR
        # builds no sequencing candidate (each one breaks persistency), so
        # the Q module is walked as well.
        phases = {(0, None), (1, None), (0, "+"), (1, "-")}
        built = 0
        for sg in (generate_sg(lr_expanded()), q_module):
            for rise in sg.labels():
                for fall in sg.labels():
                    for value in (0, 1):
                        candidate = insert_state_signal(sg, rise, fall, "csc0",
                                                        value, style)
                        if candidate is None:
                            continue
                        built += 1
                        assert len(candidate) <= 4 * len(sg)
                        assert ({state[1:] for state in candidate.states}
                                <= phases)
        assert built

    def test_sequencing_rejects_a_trigger_that_disables(self):
        # li+ fires while the output ro- is enabled; sequencing makes ro-
        # wait for the pending csc+, so li+ disables it (Definition 5.1).
        sg = generate_sg(lr_expanded())
        assert insert_state_signal(sg, "li+", "li-", "x", 0,
                                   "sequencing") is None

    def test_enumerate_checks_persistency_on_its_input_only(self, q_module,
                                                            monkeypatch):
        import repro.encoding.insertion as insertion
        checked = []
        real = insertion.persistency_violations
        monkeypatch.setattr(insertion, "persistency_violations",
                            lambda sg: checked.append(sg) or real(sg))
        assert enumerate_insertions(q_module, "x")
        assert checked == [q_module]

    def test_enumerate_orders_by_quality(self, q_module):
        candidates = enumerate_insertions(q_module, "x")
        assert candidates
        conflicts = [choice.conflicts_after for choice, _ in candidates]
        assert conflicts == sorted(conflicts)

    def test_choice_rebuilds_its_candidate(self, mmu_bl):
        candidates = enumerate_insertions(mmu_bl, "x")
        assert {choice.style for choice, _ in candidates} == set(STYLES)
        for choice, candidate in candidates:
            rebuilt = insert_state_signal(
                mmu_bl, choice.rise_trigger, choice.fall_trigger,
                choice.signal, choice.initial_value, choice.style)
            assert sg_to_payload(rebuilt) == sg_to_payload(candidate)

    def test_inserted_signal_participates_in_logic(self, q_module):
        from repro.logic.functions import extract_all_functions
        result = resolve_csc(q_module)
        functions = extract_all_functions(result.sg)
        assert "csc0" in functions
        assert all(not f.has_csc_conflict for f in functions.values())

    def test_resolve_again_names_a_fresh_signal(self):
        # A graph that already has csc0 gets csc1, not a second csc0 bit.
        sg = generate_sg(lr_expanded())
        first = resolve_csc(sg, max_signals=1)
        assert [c.signal for c in first.insertions] == ["csc0"]
        again = resolve_csc(first.sg, max_signals=1)
        assert [c.signal for c in again.insertions] == ["csc1"]
        assert again.sg.signals == first.sg.signals + ["csc1"]
        assert (again.insertions[0].conflicts_after
                < first.insertions[0].conflicts_after)

    def test_resolve_skips_a_spec_signal_named_like_csc(self, q_module):
        # The spec's own input "csc0" keeps its kind; the new signal is csc1.
        payload = sg_to_payload(q_module)
        labels = {label: label.replace("ri", "csc0", 1)
                  for label, signal, _, __ in payload["events"]
                  if signal == "ri"}
        payload["signals"] = [["csc0" if name == "ri" else name, kind]
                              for name, kind in payload["signals"]]
        payload["events"] = [[labels.get(label, label),
                              "csc0" if signal == "ri" else signal, *rest]
                             for label, signal, *rest in payload["events"]]
        payload["arcs"] = [[source, labels.get(label, label), target]
                           for source, label, target in payload["arcs"]]
        renamed = sg_from_payload(payload)
        assert renamed.kinds["csc0"] == SignalKind.INPUT
        result = resolve_csc(renamed)
        assert result.resolved
        assert [c.signal for c in result.insertions] == ["csc1"]
        assert result.sg.kinds["csc0"] == SignalKind.INPUT
