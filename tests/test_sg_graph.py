"""Unit tests for the state graph container (repro.sg.graph)."""

import pytest

from repro.circuit.netlist import Netlist
from repro.encoding.insertion import insert_state_signal
from repro.logic.functions import extract_all_functions
from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph, StateGraphError
from repro.sg.properties import (commutativity_violations,
                                 consistency_violations, csc_conflicts,
                                 persistency_violations, usc_conflicts)
from repro.specs.fig1 import fig1_stg
from repro.verify.conformance import check_conformance
from sg_oracle import backward_reachable


@pytest.fixture
def diamond():
    """a and b concurrent from s0: the four-state diamond."""
    sg = StateGraph("diamond")
    sg.declare_signal("a", SignalKind.OUTPUT)
    sg.declare_signal("b", SignalKind.INPUT)
    sg.declare_event("a+")
    sg.declare_event("b+")
    sg.add_state("s0", (0, 0))
    sg.add_state("s1", (1, 0))
    sg.add_state("s2", (0, 1))
    sg.add_state("s3", (1, 1))
    sg.add_arc("s0", "a+", "s1")
    sg.add_arc("s0", "b+", "s2")
    sg.add_arc("s1", "b+", "s3")
    sg.add_arc("s2", "a+", "s3")
    return sg


class TestConstruction:
    def test_declare_event_parses_label(self, diamond):
        assert diamond.events["a+"] == SignalEvent("a", Direction.RISE)

    def test_declare_event_undeclared_signal(self):
        sg = StateGraph()
        with pytest.raises(StateGraphError):
            sg.declare_event("x+")

    def test_declare_event_explicit(self):
        sg = StateGraph()
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("first_a", SignalEvent("a", Direction.RISE))
        assert sg.events["first_a"].signal == "a"

    def test_redeclare_event_conflict(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.declare_event("a+", SignalEvent("b", Direction.RISE))

    def test_undeclared_arc_label_rejected(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_arc("s0", "zz", "s1")

    def test_first_state_is_initial(self):
        sg = StateGraph()
        sg.add_state("x")
        assert sg.initial == "x"

    def test_nondeterminism_rejected(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_arc("s0", "a+", "s3")

    def test_duplicate_arc_tolerated(self, diamond):
        diamond.add_arc("s0", "a+", "s1")  # same target: fine
        assert diamond.arc_count() == 4

    def test_code_length_checked(self, diamond):
        with pytest.raises(StateGraphError):
            diamond.add_state("bad", (0, 1, 0))


class TestQueries:
    def test_successors_and_predecessors(self, diamond):
        assert diamond.successors("s0") == {"a+": "s1", "b+": "s2"}
        assert diamond.predecessors("s3") == {("b+", "s1"), ("a+", "s2")}

    def test_enabled_and_target(self, diamond):
        assert set(diamond.enabled("s0")) == {"a+", "b+"}
        assert diamond.target("s0", "a+") == "s1"
        assert diamond.target("s3", "a+") is None

    def test_arcs_iteration(self, diamond):
        assert len(list(diamond.arcs())) == 4

    def test_labels_of_signal(self, diamond):
        assert diamond.labels_of_signal("a") == ["a+"]

    def test_is_input_label(self, diamond):
        assert diamond.is_input_label("b+")
        assert not diamond.is_input_label("a+")

    def test_codes(self, diamond):
        assert diamond.code_of("s3") == (1, 1)
        assert diamond.value_of("s1", "a") == 1
        with pytest.raises(StateGraphError):
            diamond.value_of("s1", "zz")

    def test_code_of_missing(self, diamond):
        diamond.add_state("nocode")
        with pytest.raises(StateGraphError):
            diamond.code_of("nocode")

    def test_code_string_marks_excited(self, diamond):
        assert diamond.code_string("s0") == "0*0*"
        assert diamond.code_string("s3") == "11"

    def test_len_and_contains(self, diamond):
        assert len(diamond) == 4
        assert "s0" in diamond
        assert "zz" not in diamond


class TestReachability:
    """The ``tests/sg_oracle.py`` walk that the FwdRed tests compare against."""

    def test_backward_reachable(self, diamond):
        assert backward_reachable(diamond, ["s3"]) == {"s0", "s1", "s2", "s3"}

    def test_backward_reachable_within(self, diamond):
        within = {"s1", "s3"}
        assert backward_reachable(diamond, ["s3"], within=within) == {"s1", "s3"}

    def test_backward_reachable_target_outside_within(self, diamond):
        assert backward_reachable(diamond, ["s3"], within={"s0"}) == set()


class TestDerivation:
    """``copy_without_arcs`` derives a new graph; the parent never changes."""

    def test_dropped_arc(self, diamond):
        derived = diamond.copy_without_arcs([("s1", "b+")])
        assert derived.target("s1", "b+") is None
        assert derived.predecessors("s3") == {("a+", "s2")}

    def test_cut_off_state_is_pruned(self, diamond):
        derived = diamond.copy_without_arcs([("s0", "a+")])
        assert "s1" not in derived
        assert ("b+", "s1") not in derived.predecessors("s3")

    def test_unreachable_states_pruned(self, diamond):
        diamond.add_state("orphan", (0, 0))
        derived = diamond.copy_without_arcs(())
        assert "orphan" not in derived
        assert len(derived) == 4

    def test_parent_untouched(self, diamond):
        diamond.copy_without_arcs([("s0", "a+")])
        assert diamond.target("s0", "a+") == "s1"
        assert len(diamond) == 4

    def test_copy_preserves_everything(self, diamond):
        clone = diamond.copy_without_arcs((), name="c")
        assert clone.name == "c"
        assert clone.codes == diamond.codes
        assert set(clone.arcs()) == set(diamond.arcs())
        assert clone.initial == diamond.initial
        assert clone.signature() == diamond.signature()


#: Every builder call, applied to the diamond; each is valid while open.
BUILDERS = {
    "declare_signal": lambda sg: sg.declare_signal("c", SignalKind.OUTPUT),
    "redeclare_signal": lambda sg: sg.declare_signal("a", SignalKind.OUTPUT),
    "declare_event": lambda sg: sg.declare_event("a-"),
    "add_state": lambda sg: sg.add_state("s4"),
    "add_state_code": lambda sg: sg.add_state("s3", (0, 0)),
    "add_arc": lambda sg: sg.add_arc("s3", "a+", "s4"),
    "set_initial": lambda sg: setattr(sg, "initial", "s1"),
}

#: Every derived read that closes the graph.
DERIVED_READS = {
    "signature": lambda sg: sg.signature(),
    "code_int": lambda sg: sg.code_int("s0"),
    "live_labels": lambda sg: sg.live_labels(),
    "index": lambda sg: sg.index(),
    "predecessors": lambda sg: sg.predecessors("s3"),
    "backward_reachable": lambda sg: backward_reachable(sg, ["s3"]),
    "freeze": lambda sg: sg.freeze(),
}


def _threaded():
    sg = generate_sg(fig1_stg())
    candidates = [insert_state_signal(sg, rise, fall, "csc0")
                  for rise in sg.labels() for fall in sg.labels()]
    return next(c for c in candidates if c is not None)


#: Every producer of graphs outside this module's builder API.
PRODUCERS = {
    "copy_without_arcs": lambda: generate_sg(fig1_stg()).copy_without_arcs(()),
    "generate_sg": lambda: generate_sg(fig1_stg()),
    "sg_from_payload": lambda: sg_from_payload(
        sg_to_payload(generate_sg(fig1_stg()))),
    "insert_state_signal": _threaded,
}

#: Every analysis that reads the graph's adjacency directly; each must
#: freeze its input first.
ANALYSES = {
    "consistency": consistency_violations,
    "commutativity": commutativity_violations,
    "persistency": persistency_violations,
    "csc": csc_conflicts,
    "usc": usc_conflicts,
    "extract_all_functions": extract_all_functions,
    "check_conformance": lambda sg: check_conformance(Netlist("empty"), sg),
}


class TestFreeze:
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_builder_succeeds_while_open(self, diamond, builder):
        BUILDERS[builder](diamond)
        diamond.add_state("s5")  # a builder call leaves the graph open

    @pytest.mark.parametrize("read", sorted(DERIVED_READS))
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_builder_raises_after_derived_read(self, diamond, builder, read):
        before = (diamond.signals[:], dict(diamond.events), diamond.initial,
                  dict(diamond.codes), set(diamond.arcs()))
        DERIVED_READS[read](diamond)
        with pytest.raises(StateGraphError, match="frozen"):
            BUILDERS[builder](diamond)
        assert before == (diamond.signals, diamond.events, diamond.initial,
                          diamond.codes, set(diamond.arcs()))

    def test_plain_queries_keep_graph_open(self, diamond):
        diamond.successors("s0")
        diamond.code_of("s0")
        list(diamond.arcs())
        diamond.add_arc("s3", "a+", "s4")
        assert diamond.target("s3", "a+") == "s4"

    def test_codes_are_read_only(self, diamond):
        with pytest.raises(TypeError):
            diamond.codes["s0"] = (1, 1)

    def test_add_state_rewrites_code_while_open(self, diamond):
        diamond.add_state("s3", (0, 0))
        assert diamond.code_of("s3") == (0, 0)
        assert diamond.code_int("s3") == 0

    def test_derived_copy_is_frozen_from_the_start(self, diamond):
        derived = diamond.copy_without_arcs([("s0", "a+")])
        with pytest.raises(StateGraphError):
            derived.add_state("s9")
        diamond.add_state("s9")

    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_outputs_frozen_after_first_analysis(self, producer):
        for name, analysis in ANALYSES.items():
            sg = PRODUCERS[producer]()
            analysis(sg)
            with pytest.raises(StateGraphError, match="frozen"):
                sg.add_arc(sg.initial, sg.labels()[0], sg.initial)
                pytest.fail(f"{name} left the graph open")

    def test_derived_views_computed_once(self, diamond):
        assert diamond.signature() is diamond.signature()
        assert diamond.live_labels() is diamond.live_labels()
        assert diamond.live_labels() == {"a+", "b+"}

    def test_index_is_built_once_per_graph(self, diamond):
        index = diamond.index()
        assert diamond.index() is index
        assert index.states == ["s0", "s1", "s2", "s3"]
        assert index.labels == ["a+", "b+"]
        assert index.succ[0] == {0: 1, 1: 2}
        assert index.codes == [0b00, 0b01, 0b10, 0b11]
        assert index.excites == [1, 0]  # b is an input
        # A derived copy builds its own index over its own states.
        child = diamond.copy_without_arcs([("s0", "b+")])
        assert child.index() is not index
        assert child.index().states == ["s0", "s1", "s3"]
        assert child.signature() == child.copy_without_arcs(()).signature()

    def test_index_reads_codes_only_when_asked(self):
        sg = StateGraph("codeless")
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("a+")
        sg.add_arc("s0", "a+", "s1")
        index = sg.index()
        assert index.succ == [{0: 1}, {}]
        with pytest.raises(StateGraphError, match="'s0' has no binary code"):
            index.codes


class TestDot:
    def test_dot_output(self, diamond):
        dot = diamond.to_dot()
        assert "digraph" in dot
        assert '"a+"' in dot
        assert dot.count("->") == 4
