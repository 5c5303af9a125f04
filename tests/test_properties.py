"""Unit tests for implementability checks (repro.sg.properties)."""

import pytest

from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.sg.properties import (check_implementability, commutativity_violations,
                                 consistency_violations, csc_conflicting_signals,
                                 csc_conflicts, deadlock_states, has_csc, has_usc,
                                 is_commutative, is_consistent,
                                 is_output_persistent, is_speed_independent,
                                 persistency_violations, usc_conflicts)
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


def build_sg(signals, arcs, codes=None, initial=None):
    """signals: {name: kind}; arcs: [(src, label, dst)]."""
    sg = StateGraph("t")
    for name, kind in signals.items():
        sg.declare_signal(name, kind)
    labels = {label for _, label, _ in arcs}
    for label in labels:
        sg.declare_event(label)
    for src, label, dst in arcs:
        sg.add_arc(src, label, dst)
    for state, code in (codes or {}).items():
        sg.add_state(state, code)
    if initial is not None:
        sg.initial = initial
    return sg


class TestConsistency:
    def test_fig1_consistent(self):
        assert is_consistent(generate_sg(fig1_stg()))

    def test_rise_from_one_flagged(self):
        sg = build_sg({"a": SignalKind.OUTPUT},
                      [("s0", "a+", "s1")],
                      codes={"s0": (1,), "s1": (1,)})
        violations = consistency_violations(sg)
        assert len(violations) == 1
        assert violations[0].label == "a+"

    def test_unrelated_signal_change_flagged(self):
        sg = build_sg({"a": SignalKind.OUTPUT, "b": SignalKind.OUTPUT},
                      [("s0", "a+", "s1")],
                      codes={"s0": (0, 0), "s1": (1, 1)})
        violations = consistency_violations(sg)
        assert any("b" in v.reason for v in violations)

    def test_toggle_arc_must_flip(self):
        sg = StateGraph()
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("a~", SignalEvent("a", Direction.TOGGLE))
        sg.add_state("s0", (0,))
        sg.add_state("s1", (0,))
        sg.add_arc("s0", "a~", "s1")
        assert not is_consistent(sg)


class TestSpeedIndependence:
    def test_fig1_speed_independent(self):
        sg = generate_sg(fig1_stg())
        assert is_commutative(sg)
        assert is_output_persistent(sg)
        assert is_speed_independent(sg)

    def test_commutativity_violation_detected(self):
        # Both orders of a/b fire but land in different states.
        arcs = [("s0", "a+", "s1"), ("s0", "b+", "s2"),
                ("s1", "b+", "s3"), ("s2", "a+", "s4")]
        sg = build_sg({"a": SignalKind.OUTPUT, "b": SignalKind.OUTPUT}, arcs)
        violations = commutativity_violations(sg)
        assert len(violations) == 1
        assert {violations[0].label_a, violations[0].label_b} == {"a+", "b+"}

    def test_output_disabled_by_input_flagged(self):
        # Output a+ enabled at s0, input b+ leads to a state without a+.
        arcs = [("s0", "a+", "s1"), ("s0", "b+", "s2")]
        sg = build_sg({"a": SignalKind.OUTPUT, "b": SignalKind.INPUT}, arcs)
        violations = persistency_violations(sg)
        assert any(v.disabled == "a+" and v.by == "b+" for v in violations)

    def test_input_disabled_by_input_allowed(self):
        # Free choice between two inputs: the environment's decision.
        arcs = [("s0", "a+", "s1"), ("s0", "b+", "s2")]
        sg = build_sg({"a": SignalKind.INPUT, "b": SignalKind.INPUT}, arcs)
        assert is_output_persistent(sg)

    def test_input_disabled_by_output_flagged(self):
        arcs = [("s0", "a+", "s1"), ("s0", "b+", "s2")]
        sg = build_sg({"a": SignalKind.INPUT, "b": SignalKind.OUTPUT}, arcs)
        violations = persistency_violations(sg)
        assert any(v.disabled == "a+" and v.by == "b+" for v in violations)

    def test_check_inputs_false_ignores_input_disabling(self):
        arcs = [("s0", "a+", "s1"), ("s0", "b+", "s2")]
        sg = build_sg({"a": SignalKind.INPUT, "b": SignalKind.OUTPUT}, arcs)
        relaxed = persistency_violations(sg, check_inputs=False)
        # The output b+ being disabled by a+ is still flagged, but the input
        # a+ being disabled by the output b+ no longer is.
        assert not any(v.disabled == "a+" for v in relaxed)
        assert any(v.disabled == "b+" for v in relaxed)


class TestEncoding:
    def test_fig1_has_csc_conflict(self):
        sg = generate_sg(fig1_stg())
        conflicts = csc_conflicts(sg)
        assert len(conflicts) == 1
        assert conflicts[0].code == (1, 1)
        assert not has_csc(sg)
        assert not has_usc(sg)

    def test_fig1_conflicting_signal_is_ack(self):
        sg = generate_sg(fig1_stg())
        assert csc_conflicting_signals(sg) == {"Ack"}

    def test_q_module_has_one_usc_pair(self):
        sg = generate_sg(q_module_stg())
        assert len(usc_conflicts(sg)) == 1
        assert len(csc_conflicts(sg)) == 1

    def test_usc_without_csc(self):
        # Same code, same (empty) non-input excitation: USC but not CSC.
        arcs = [("s0", "a+", "s1"), ("s1", "b+", "s2"), ("s2", "a-", "s3")]
        sg = build_sg({"a": SignalKind.INPUT, "b": SignalKind.INPUT},
                      arcs,
                      codes={"s0": (0, 0), "s1": (1, 0), "s2": (1, 1),
                             "s3": (0, 1)})
        # craft: give s3 the same code as s0 (add_state rewrites it)
        sg.add_state("s3", (0, 0))
        assert not has_usc(sg)
        assert has_csc(sg)  # only inputs are enabled anywhere

    def test_max_concurrency_lr_conflicts(self):
        sg = generate_sg(lr_expanded())
        assert len(csc_conflicts(sg)) == 3


class TestReport:
    def test_fig1_report(self):
        report = check_implementability(generate_sg(fig1_stg()))
        assert report.consistent
        assert report.speed_independent
        assert not report.csc
        assert report.csc_conflict_count == 1
        assert not report.implementable
        assert report.deadlock_free

    def test_deadlock_states(self):
        arcs = [("s0", "a+", "s1")]
        sg = build_sg({"a": SignalKind.OUTPUT}, arcs)
        assert deadlock_states(sg) == ["s1"]
