"""Unit tests for the state graph container (repro.sg.graph)."""

import gc
import tracemalloc

import pytest

from repro.circuit.netlist import Netlist
from repro.encoding.insertion import insert_state_signal
from repro.logic.functions import extract_all_functions
from repro.petri.stg import Direction, SignalEvent, SignalKind
from repro.pipeline.artifacts import (ArtifactError, sg_from_payload,
                                      sg_to_payload)
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph, StateGraphError
from repro.sg.properties import (check_implementability,
                                 commutativity_violations,
                                 consistency_violations, csc_conflicts,
                                 persistency_violations, usc_conflicts)
from repro.specs.fig1 import fig1_stg
from repro.specs.registry import load_spec
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
    "in_arcs": lambda sg: sg.in_arcs(),
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

    def test_graph_holds_its_own_numbering(self, diamond):
        diamond.freeze()
        assert diamond.states == ["s0", "s1", "s2", "s3"]
        assert diamond.labels() == ["a+", "b+"]
        assert diamond.succ[0] == {0: 1, 1: 2}
        assert diamond.code_ints == [0b00, 0b01, 0b10, 0b11]
        assert diamond.excites == [1, 0]  # b is an input
        assert diamond.in_arcs() is diamond.in_arcs()
        # A derived copy numbers its own states.
        child = diamond.copy_without_arcs([("s0", "b+")])
        assert child.succ is not diamond.succ
        assert child.states == ["s0", "s1", "s3"]
        assert child.succ == [{0: 1}, {1: 2}, {}]
        assert child.signature() == child.copy_without_arcs(()).signature()

    def test_packed_codes_raise_only_when_read(self):
        sg = StateGraph("codeless")
        sg.declare_signal("a", SignalKind.OUTPUT)
        sg.declare_event("a+")
        sg.add_arc("s0", "a+", "s1")
        sg.freeze()
        assert sg.succ == [{0: 1}, {}]
        with pytest.raises(StateGraphError, match="'s0' has no binary code"):
            sg.code_ints


class TestPayload:
    """A decoded graph adopts the payload's ids, so its arcs are checked."""

    @pytest.mark.parametrize("arc", [[0, "zz", 1], [0, "a+", 4],
                                     [-1, "a+", 1], [0, "a+", 3]])
    def test_bad_arc_refused(self, diamond, arc):
        payload = sg_to_payload(diamond)
        payload["arcs"].append(arc)
        with pytest.raises(ArtifactError, match="bad arc"):
            sg_from_payload(payload)

    @pytest.mark.parametrize("field, value", [
        ("codes", [[0, 0], [1, 0], [0, 1]]),
        ("codes", [[0, 0], [1, 0], [0, 1], [1, 1], [0, 0]]),
        ("codes", [[0, 0], [1, 0, 0], [0, 1], [1, 1]]),
        ("codes", [[0, 0], [1], [0, 1], [1, 1]]),
        ("initial", 4), ("initial", -1)])
    def test_bad_codes_or_initial_refused(self, diamond, field, value):
        payload = sg_to_payload(diamond)
        payload[field] = value
        with pytest.raises(ArtifactError, match="do not fit its 4 states "
                                                "and 2 signals"):
            sg_from_payload(payload)

    def test_round_trip(self, diamond):
        decoded = sg_from_payload(sg_to_payload(diamond))
        assert decoded.states == [0, 1, 2, 3]
        assert sg_to_payload(decoded) == sg_to_payload(diamond)


class TestDot:
    def test_dot_output(self, diamond):
        dot = diamond.to_dot()
        assert "digraph" in dot
        assert '"a+"' in dot
        assert dot.count("->") == 4


class TestMemory:
    #: Bytes a generated graph may retain once analysed.  Measured with
    #: tracemalloc for fifo_chain_8 (19,684 states, 68,900 arcs): 16.25
    #: MiB on CPython 3.10.13, 16.14 MiB on 3.11.7 and on 3.12.1, 10.4 MiB
    #: of it the marking-tuple state names.  A second, name-keyed copy of
    #: the graph beside its integer numbering retained 24.7 MiB.
    BOUND = 19 * 2**20

    def test_one_representation(self):
        stg = load_spec("fifo_chain_8")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            sg = generate_sg(stg)
            check_implementability(sg)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert (len(sg), sg.arc_count()) == (19684, 68900)
        assert retained < self.BOUND, f"{retained / 2**20:.1f} MiB"

    #: Bytes ``generate_sg(fifo_chain_8)`` may hold at its peak.  Measured
    #: with tracemalloc on CPython 3.11.7: 20.2 MiB with the level loop
    #: writing the graph's successor rows, 23.7 MiB when the run kept an
    #: arc tuple per arc and the generator regrouped them into rows.
    PEAK = 22 * 2**20

    def test_generation_peak(self):
        stg = load_spec("fifo_chain_8")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sg = generate_sg(stg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(sg) == 19684
        assert peak < self.PEAK, f"{peak / 2**20:.1f} MiB"
