"""Unit tests for SG generation and code assignment (repro.sg.generator)."""

import json
from functools import partial
from pathlib import Path

import pytest

from net_oracle import fire
from repro.explore import ExplorationBudget
from repro.petri.net import PetriNet
from repro.petri.parser import parse_stg
from repro.petri.stg import STG, SignalKind
from repro.sg.generator import ConsistencyError, generate_sg
from repro.sg.graph import StateGraphError
from repro.sg.properties import is_consistent
from repro.specs.families import load_family
from repro.specs.fig1 import fig1_stg
from repro.specs.generate import generate_spec, spec_seed
from sg_oracle import reference_sg
from test_frontier import golden_inputs


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
            marking = fire(stg.net, transition, marking)

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


#: The quick corpus that ``tests/data/fuzz_corpus.json`` anchors.
QUICK_FUZZ = json.loads((Path(__file__).parent / "data" / "fuzz_corpus.json")
                        .read_text())["quick"]
#: A toggle net outside the packed regime: two tokens in one place.
TWO_TOKEN_TOGGLE = (".outputs a\n.graph\np0 a~\na~ p1\n"
                    ".marking { p0=2 }\n.end\n")
#: A toggle net the packed run starts and leaves mid-run (q gets two).
OVERFLOWING_TOGGLE = (".outputs a b c d\n.graph\ns a~\na~ t q\nt b~\n"
                      "b~ u q\nu c~\nq c~\nc~ v\nv d~\nq d~\nd~ s\n"
                      ".marking { s }\n.end\n")
#: A 2-phase spec whose rise fires twice from a net outside the packed
#: regime, so the tuple run fails the guard.
TWO_TOKEN_RISE = (".outputs a b\n.graph\np0 a+\na+ p1\np1 b~\nb~ p2\n"
                  ".marking { p0=2 }\n.end\n")
DOUBLE_RISE = (".outputs a\n.graph\na+ a+/1\na+/1 a+\n"
               ".marking { <a+/1,a+> }\n.end\n")
#: A rise/fall spec whose a+ comes round again before a-, three firings in.
LATE_DOUBLE_RISE = (".outputs a b\n.graph\na+ b+\nb+ b-\nb- a+/1\n"
                    "a+/1 a-\na- a+\n.marking { <a-,a+> }\n.end\n")
#: Two rises fail their guards at the initial state; a+ comes first.
TWO_GUARDS_AT_ONCE = (".outputs a b x\n.graph\np0 a+ b+\na+ p1\nb+ p1\n"
                      "p1 x~\nx~ p0\n.marking { p0 }\n"
                      ".initial_state a b\n.end\n")
#: c+ fails on its second round, after two diamonds: the witness takes
#: each diamond's first-seen side.
DIAMONDS_THEN_RISE = (".outputs a b c\n.graph\npa a~\npb b~\na~ qa\n"
                      "b~ qb\nqa c+\nqb c+\nc+ pa pb\n"
                      ".marking { pa pb }\n.end\n")


def _mixed_toggle_and_rise():
    stg = STG("mixed")
    stg.declare_signal("a", SignalKind.OUTPUT)
    stg.declare_signal("b", SignalKind.OUTPUT)
    stg.add_event("a~")
    stg.add_event("b+")
    stg.cycle("a~", "b+")  # b+ fires twice without b-: inconsistent
    stg.mark("<b+,a~>")
    return stg


def _contradicted_initial_value():
    stg = simple_cycle(["a-", "b+", "a+", "b-"], "<b-,a->")
    stg.set_initial_value("a", 0)  # contradicts a- being first
    return stg


def _oracle_inputs():
    """``{name: STG factory}`` the generator is compared on."""
    inputs = {name: (lambda stg=stg: stg)
              for name, stg in golden_inputs().items()}
    for index in range(QUICK_FUZZ["count"]):
        inputs[f"fuzz/{index}"] = (lambda index=index: generate_spec(
            spec_seed(QUICK_FUZZ["seed"], index)).build())
    for family, sizes in (("counter", range(2, 7)),
                          ("fifo_chain", range(3, 7)),
                          ("micropipeline_chain", range(2, 4))):
        for size in sizes:
            for seed in range(3):
                member = f"{family}_{size}_s{seed}"
                inputs[f"family/{member}"] = partial(load_family, member)
    for name, text in (("two_token_toggle", TWO_TOKEN_TOGGLE),
                       ("overflowing_toggle", OVERFLOWING_TOGGLE),
                       ("two_token_rise", TWO_TOKEN_RISE),
                       ("double_rise", DOUBLE_RISE),
                       ("late_double_rise", LATE_DOUBLE_RISE),
                       ("two_guards_at_once", TWO_GUARDS_AT_ONCE),
                       ("diamonds_then_rise", DIAMONDS_THEN_RISE)):
        inputs[name] = partial(parse_stg, text)
    inputs["mixed_toggle_and_rise"] = _mixed_toggle_and_rise
    inputs["contradicted_initial_value"] = _contradicted_initial_value
    return inputs


ORACLE_INPUTS = _oracle_inputs()


def _outcome(build, stg, budget=None):
    """Everything a caller sees of one generation: the graph's states in
    order, each state's successors in order, codes and ``initial`` -- or
    the error's type, message, witness and budget exceedance."""
    try:
        sg = build(stg, budget=budget)
    except StateGraphError as error:
        exceedance = getattr(error, "exceedance", None)
        return (type(error).__name__, str(error),
                getattr(error, "witness", None),
                None if exceedance is None else
                (exceedance.resource, exceedance.limit, exceedance.states,
                 exceedance.arcs, exceedance.level))
    return (sg.states, [list(sg.successors(state).items())
                        for state in sg.states],
            [sg.code_of(state) for state in sg.states], sg.initial)


class TestReferenceGeneration:
    """``generate_sg`` against the tuple-and-dict reference of
    ``tests/sg_oracle.py``, byte for byte."""

    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_same_graph_or_error(self, name):
        stg = ORACLE_INPUTS[name]()
        assert _outcome(generate_sg, stg) == _outcome(reference_sg, stg)

    @pytest.mark.parametrize("name, error", [
        ("mixed_toggle_and_rise", "b+ fires with b already high"),
        ("double_rise", "a+/1 fires with a already high"),
        ("late_double_rise", "a+/1 fires with a already high"),
        ("contradicted_initial_value", "declared initial value a=0"),
        ("two_token_rise", "a+ fires with a already high"),
        ("two_guards_at_once", "a+ fires with a already high"),
        ("diamonds_then_rise", "c+ fires with c already high"),
    ])
    def test_inconsistent_inputs_raise(self, name, error):
        outcome = _outcome(generate_sg, ORACLE_INPUTS[name]())
        assert outcome[0] == "ConsistencyError"
        assert outcome[1].startswith(error)
        assert outcome[2]

    @pytest.mark.parametrize("name", [
        "2-phase/lr", "2-phase/toggle_ring", "family/counter_4_s1",
        "mixed_toggle_and_rise", "two_guards_at_once", "diamonds_then_rise"])
    def test_tuple_unfolding_matches(self, name, monkeypatch):
        # Outside the packed regime the tuple engine unfolds 2-phase
        # specs with the same effects, order and errors.
        stg = ORACLE_INPUTS[name]()
        expected = _outcome(reference_sg, stg)
        monkeypatch.setattr(PetriNet, "compile_packed", lambda net: None)
        assert _outcome(generate_sg, stg) == expected

    def test_two_token_toggle_states_in_order(self):
        sg = generate_sg(parse_stg(TWO_TOKEN_TOGGLE))
        assert sg.states == [((2, 0), (0,)), ((1, 1), (1,)),
                             ((0, 2), (0,))]

    @pytest.mark.parametrize("name", ["2-phase/toggle_ring", "2-phase/lr",
                                      "family/counter_3_s0",
                                      "diamonds_then_rise"])
    def test_same_exceedance_at_every_budget(self, name):
        # An inconsistent spec's limits run past its failing arc, which
        # is never charged.
        stg = ORACLE_INPUTS[name]()
        full = _outcome(reference_sg, stg)
        if full[0] == "ConsistencyError":
            sizes = {"max_states": 20, "max_arcs": 20}
        else:
            sizes = {"max_states": len(full[0]),
                     "max_arcs": sum(map(len, full[1]))}
        for resource, size in sizes.items():
            for limit in range(1, size + 1):
                budget = ExplorationBudget(**{resource: limit})
                assert (_outcome(generate_sg, stg, budget)
                        == _outcome(reference_sg, stg, budget)), (
                    resource, limit)
