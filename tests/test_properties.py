"""Unit tests for implementability checks (repro.sg.properties)."""

import json

import pytest

import repro.sg.properties as properties
from repro.encoding.csc import conflict_count
from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.sg.properties import (_marking_tuple, check_implementability,
                                 coding_counts, coding_report,
                                 commutativity_violations,
                                 consistency_violations, csc_conflicting_signals,
                                 csc_conflicts, deadlock_states, has_csc, has_usc,
                                 is_commutative, is_consistent,
                                 is_output_persistent,
                                 persistency_violations, usc_conflicts)
from repro.specs import families
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg
from repro.sweep.grid import spec_registry
from repro.symbolic.csc import (CodingReport, canonical_conflict,
                                canonical_pair, sort_conflicts, sort_pairs)


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
        assert check_implementability(sg).speed_independent

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
        # ...and so is the output b+ disabled by the input a+.
        assert any(v.disabled == "b+" and v.by == "a+" for v in violations)


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


def _seeded_members():
    """Seeded members of the three chain families, small enough to list."""
    shapes = ([(families.counter, n) for n in (2, 3, 4)]
              + [(families.fifo_chain, n) for n in (2, 3, 4)]
              + [(families.micropipeline_chain, n) for n in (1, 2)])
    return [(f"{build.__name__}_{n}_s{seed}", build, n, seed)
            for build, n in shapes for seed in (1, 2, 3)]


def _listed_report(sg, limit):
    """The coding report by listing every pair, then truncating."""
    pairs, conflicts = usc_conflicts(sg), csc_conflicts(sg)
    truncated = len(pairs) > limit or len(conflicts) > limit
    return CodingReport(
        name=sg.name, engine="explicit", states=len(sg),
        consistent=is_consistent(sg), usc=not pairs, csc=not conflicts,
        usc_pair_count=len(pairs), csc_conflict_count=len(conflicts),
        conflicts=[] if truncated else sort_conflicts([
            canonical_conflict(c.code, _marking_tuple(c.state_a), c.excited_a,
                               _marking_tuple(c.state_b), c.excited_b)
            for c in conflicts]),
        usc_pairs=[] if truncated else sort_pairs([
            canonical_pair(sg.code_of(a), _marking_tuple(a), _marking_tuple(b))
            for a, b in pairs]),
        truncated=truncated)


def _listed_signals(sg):
    """Signals whose excitation differs in a listed conflict pair."""
    return {signal for c in csc_conflicts(sg)
            for signal, _ in c.excited_a ^ c.excited_b}


def _assert_counts_match_lists(sg):
    assert coding_counts(sg) == (len(usc_conflicts(sg)),
                                 len(csc_conflicts(sg)))
    assert csc_conflicting_signals(sg) == _listed_signals(sg)


def _payload_bytes(report):
    return json.dumps(report.to_payload(), sort_keys=True).encode()


class TestCodingCounts:
    """Counting per code bucket equals listing every pair (the registry's
    ``mmu`` is the unreduced MMU, 264 states)."""

    @pytest.mark.parametrize("name", sorted(spec_registry()))
    def test_registry_specs(self, name):
        _assert_counts_match_lists(generate_sg(spec_registry()[name]()))

    @pytest.mark.parametrize("name,build,stages,seed", _seeded_members(),
                             ids=[member[0] for member in _seeded_members()])
    def test_seeded_family_members(self, name, build, stages, seed):
        _assert_counts_match_lists(
            generate_sg(build(stages, seed=seed, name=name), engine="packed"))

    def test_hand_built_usc_without_csc(self):
        arcs = [("s0", "a+", "s1"), ("s1", "b+", "s2"), ("s2", "a-", "s3")]
        sg = build_sg({"a": SignalKind.INPUT, "b": SignalKind.INPUT}, arcs,
                      codes={"s0": (0, 0), "s1": (1, 0), "s2": (1, 1),
                             "s3": (0, 0)})
        assert coding_counts(sg) == (1, 0)


class TestNoListing:
    """Verdicts and counts never build a witness list."""

    @pytest.fixture
    def no_lists(self, monkeypatch):
        def refuse(sg):
            raise AssertionError("a witness list was built")
        monkeypatch.setattr(properties, "csc_conflicts", refuse)
        monkeypatch.setattr(properties, "usc_conflicts", refuse)

    def test_counter_verdicts(self, no_lists):
        sg = generate_sg(families.counter(5), engine="packed")
        report = check_implementability(sg)
        assert (report.usc, report.csc, report.csc_conflict_count) == (
            False, False, 30600)
        assert conflict_count(sg) == 30600
        assert not has_csc(sg) and not has_usc(sg)

    def test_truncated_report_lists_nothing(self, no_lists):
        sg = generate_sg(families.counter(3), engine="packed")
        usc_pairs, conflicts = coding_counts(sg)
        report = coding_report(sg, witness_limit=usc_pairs - 1)
        assert report.truncated and report.conflicts == []
        assert (report.usc_pair_count, report.csc_conflict_count) == (
            usc_pairs, conflicts)

    @pytest.mark.parametrize("name", ["micropipeline", "lr", "fig1"])
    def test_truncation_boundary(self, name):
        # micropipeline has 16 USC pairs but 7 CSC conflicts, so the two
        # counts cross their limits at different points.
        sg = generate_sg(spec_registry()[name]())
        for count in coding_counts(sg):
            for limit in (count - 1, count, count + 1):
                assert (_payload_bytes(coding_report(sg, witness_limit=limit))
                        == _payload_bytes(_listed_report(sg, limit))), limit
