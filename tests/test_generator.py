"""Unit tests for SG generation and code assignment (repro.sg.generator)."""

import pytest

from repro.explore import ExplorationBudget
from repro.petri.parser import parse_stg
from repro.petri.stg import STG, SignalKind
from repro.sg.generator import ConsistencyError, generate_sg
from repro.sg.graph import StateGraphError
from repro.sg.properties import is_consistent
from repro.specs.fig1 import fig1_stg


def simple_cycle(events, marked_arc, inputs=(), name="c"):
    stg = STG(name)
    signals = sorted({e.split("/")[0][:-1] for e in events})
    for signal in signals:
        kind = SignalKind.INPUT if signal in inputs else SignalKind.OUTPUT
        stg.declare_signal(signal, kind)
    for event in events:
        stg.add_event(event)
    stg.cycle(*events)
    stg.mark(marked_arc)
    return stg


class TestGeneration:
    def test_fig1_states_and_codes(self):
        sg = generate_sg(fig1_stg())
        assert len(sg) == 5
        assert sg.signals == ["Req", "Ack"]
        codes = sorted(sg.codes.values())
        assert codes == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]

    def test_fig1_initial_state_code(self):
        sg = generate_sg(fig1_stg())
        # Initial state of Fig. 1.d is 0*1: Ack = 0 (excited), Req = 1.
        assert sg.code_of(sg.initial) == (1, 0)
        assert set(sg.enabled(sg.initial)) == {"Ack+"}

    def test_codes_are_consistent(self):
        sg = generate_sg(fig1_stg())
        assert is_consistent(sg)

    def test_simple_cycle(self):
        stg = simple_cycle(["a+", "b+", "a-", "b-"], "<b-,a+>")
        sg = generate_sg(stg)
        assert len(sg) == 4
        assert sg.code_of(sg.initial) == (0, 0)

    def test_initial_value_inference_from_fall_first(self):
        # Cycle starting with a falling transition forces a = 1 initially.
        stg = simple_cycle(["a-", "b+", "a+", "b-"], "<b-,a->")
        sg = generate_sg(stg)
        assert sg.value_of(sg.initial, "a") == 1

    def test_declared_initial_value_conflict_detected(self):
        stg = simple_cycle(["a-", "b+", "a+", "b-"], "<b-,a->")
        stg.set_initial_value("a", 0)  # contradicts a- being first
        with pytest.raises(ConsistencyError):
            generate_sg(stg)

    def test_inconsistent_stg_rejected(self):
        # a+ twice in a row with no a- between: no consistent encoding.
        stg = STG("bad")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.add_event("a+")
        stg.add_fresh_event("a+")
        stg.cycle("a+", "a+/1")
        stg.mark("<a+/1,a+>")
        with pytest.raises(ConsistencyError):
            generate_sg(stg)

    @pytest.mark.parametrize("text, witness", [
        # a+ fires twice with no a- between.
        (".outputs a\n.graph\na+ a+/1\na+/1 a+\n"
         ".marking { <a+/1,a+> }\n.end\n", ["a+", "a+/1"]),
        # a+ and b+ merge into one marking with different codes.
        (".outputs a b c\n.graph\np0 a+ b+\na+ p1\nb+ p1\np1 c+\n"
         "c+ c-\nc- p0\n.marking { p0 }\n.end\n", ["b+"]),
        # a- fires first, so a=1 initially; the declared 0 conflicts.
        (".outputs a b\n.graph\na- b+\nb+ a+\na+ b-\nb- a-\n"
         ".marking { <b-,a-> }\n.initial_state !a\n.end\n", ["a-"]),
    ])
    def test_inconsistency_witness_replays_to_offending_firing(self, text,
                                                               witness):
        stg = parse_stg(text)
        with pytest.raises(ConsistencyError) as excinfo:
            generate_sg(stg)
        assert excinfo.value.witness == witness
        marking = stg.net.initial_marking()
        for transition in witness:
            assert transition in stg.net.enabled_transitions(marking)
            marking = stg.net.fire(transition, marking)

    def test_toggle_self_loop_unfolds(self):
        # 2-phase semantics: one marking, but two binary states (a=0, a=1).
        stg = STG("toggle2")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.add_event("a~")
        stg.net.add_place("p", tokens=1)
        stg.net.add_arc("p", "a~")
        stg.net.add_arc("a~", "p")
        sg = generate_sg(stg)
        assert len(sg) == 2
        assert {sg.code_of(s) for s in sg.states} == {(0,), (1,)}

    def test_toggle_cycle_unfolds_to_four_phases(self):
        stg = STG("toggle3")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.declare_signal("b", SignalKind.OUTPUT)
        stg.add_event("a~")
        stg.add_event("b~")
        stg.cycle("a~", "b~")
        stg.mark("<b~,a~>")
        sg = generate_sg(stg)
        # two markings x two parity phases
        assert len(sg) == 4
        a_index = sg.signal_index("a")
        values = {sg.code_of(s)[a_index] for s in sg.states}
        assert values == {0, 1}

    def test_mixed_toggle_and_rise_consistency_checked(self):
        stg = STG("mixed")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.declare_signal("b", SignalKind.OUTPUT)
        stg.add_event("a~")
        stg.add_event("b+")
        stg.cycle("a~", "b+")  # b+ fires twice without b-: inconsistent
        stg.mark("<b+,a~>")
        with pytest.raises(ConsistencyError):
            generate_sg(stg)

    def test_dummy_rejected(self):
        stg = STG("dummy")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.add_event("a+")
        stg.add_dummy("eps")
        stg.cycle("a+", "eps")
        stg.mark("<eps,a+>")
        with pytest.raises(StateGraphError):
            generate_sg(stg)

    def test_state_limit(self):
        stg = simple_cycle(["a+", "b+", "a-", "b-"], "<b-,a+>")
        with pytest.raises(StateGraphError):
            generate_sg(stg, budget=ExplorationBudget(max_states=2))

    def test_unused_signal_gets_declared_value(self):
        stg = simple_cycle(["a+", "b+", "a-", "b-"], "<b-,a+>")
        stg.declare_signal("idle", SignalKind.INPUT)
        stg.set_initial_value("idle", 1)
        sg = generate_sg(stg)
        assert all(sg.value_of(s, "idle") == 1 for s in sg.states)

    def test_arc_labels_are_transition_names(self):
        sg = generate_sg(fig1_stg())
        assert set(sg.events) == {"Req+", "Req-", "Ack+", "Ack-"}

    def test_concurrent_events_make_diamond(self):
        stg = STG("conc")
        stg.declare_signal("a", SignalKind.OUTPUT)
        stg.declare_signal("b", SignalKind.OUTPUT)
        for e in ("a+", "b+", "a-", "b-"):
            stg.add_event(e)
        # a and b handshakes fully independent
        stg.cycle("a+", "a-")
        stg.cycle("b+", "b-")
        stg.mark("<a-,a+>", "<b-,b+>")
        sg = generate_sg(stg)
        assert len(sg) == 4


class TestPackedRefusals:
    """``stubborn=True`` and ``engine="packed"`` run packed or raise."""

    @staticmethod
    def _handshake(extra_place_tokens):
        # a+ / a- with one more place q that a+ fills and a- drains:
        # after a+ it holds one token more than it starts with.
        stg = simple_cycle(["a+", "a-"], "<a-,a+>", name="q")
        stg.net.add_place("q", tokens=extra_place_tokens)
        stg.net.add_arc("a+", "q")
        stg.net.add_arc("q", "a-")
        return stg

    @pytest.mark.parametrize("stg, engine, reason", [
        (simple_cycle(["a+", "a-"], "<a-,a+>"), "tuples", "engine='tuples'"),
        (simple_cycle(["a~", "b~"], "<b~,a~>"), "auto", "toggle events"),
        (simple_cycle(["a~", "b~"], "<b~,a~>"), "packed", "toggle events"),
    ])
    def test_refused_where_not_packed(self, stg, engine, reason):
        with pytest.raises(StateGraphError) as excinfo:
            generate_sg(stg, stubborn=True, engine=engine)
        assert "stubborn" in str(excinfo.value)
        assert reason in str(excinfo.value)
        generate_sg(stg, engine=engine)

    @pytest.mark.parametrize("tokens, reason", [
        (2, "outside the packed regime"), (1, "not 1-safe")])
    def test_refused_on_auto_fallback(self, tokens, reason):
        stg = self._handshake(tokens)
        assert len(generate_sg(stg)) == 2  # the tuple fallback runs
        with pytest.raises(StateGraphError) as excinfo:
            generate_sg(stg, stubborn=True)
        assert reason in str(excinfo.value)

    def test_packed_engine_overflow_is_a_state_graph_error(self):
        with pytest.raises(StateGraphError, match="not 1-safe"):
            generate_sg(self._handshake(1), engine="packed")
