"""Unit tests for the .g format reader/writer (repro.petri.parser)."""

import json
from functools import partial
from pathlib import Path

import pytest

from repro.petri.parser import ParseError, parse_stg, read_stg, write_stg
from repro.petri.stg import SignalKind
from repro.pipeline.hashing import graph_digest
from repro.sg.generator import generate_sg
from repro.specs import suite
from repro.specs.families import family_names, load_family
from repro.specs.fig1 import fig1_stg
from repro.specs.generate import generate_spec, spec_seed
from repro.specs.lr import lr_expanded, q_module_stg
from repro.specs.registry import load_spec, spec_names

SIMPLE = """
.model demo
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.initial_state !req !ack
.end
"""


class TestParse:
    def test_basic(self):
        stg = parse_stg(SIMPLE)
        assert stg.name == "demo"
        assert stg.signals == {"req": SignalKind.INPUT, "ack": SignalKind.OUTPUT}
        assert set(stg.net.transition_names) == {"req+", "ack+", "req-", "ack-"}
        assert stg.initial_values == {"req": 0, "ack": 0}

    def test_marking_on_implicit_place(self):
        stg = parse_stg(SIMPLE)
        marked = stg.net.marking_dict(stg.net.initial_marking())
        assert marked == {"<ack-,req+>": 1}

    def test_explicit_places(self):
        text = """
.model p
.inputs a
.outputs b
.graph
p0 a+
a+ b+
b+ p0
.marking { p0 }
.end
"""
        stg = parse_stg(text)
        assert stg.net.has_place("p0")
        assert not stg.net.place("p0").auto

    def test_comments_and_blank_lines(self):
        text = SIMPLE.replace(".graph", ".graph\n# a comment\n\n")
        assert parse_stg(text).name == "demo"

    def test_instance_suffixes(self):
        text = """
.model i
.outputs a
.graph
a+ a-
a- a+/1
a+/1 a-/1
a-/1 a+
.marking { <a-/1,a+> }
.end
"""
        stg = parse_stg(text)
        assert set(stg.transitions_of_event("a+")) == {"a+", "a+/1"}

    def test_dummy_declaration(self):
        text = """
.model d
.outputs b
.dummy eps
.graph
eps b+
b+ eps
.marking { <b+,eps> }
.end
"""
        stg = parse_stg(text)
        assert stg.event_of("eps") is None

    def test_undeclared_signal_rejected(self):
        text = ".model x\n.graph\nfoo+ bar+\n.end\n"
        with pytest.raises(ParseError):
            parse_stg(text)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ParseError):
            parse_stg(".model x\n.bogus y\n.end\n")

    def test_marking_unknown_place_rejected(self):
        text = ".model x\n.outputs a\n.graph\na+ a-\na- a+\n.marking { zz }\n.end\n"
        with pytest.raises(ParseError):
            parse_stg(text)

    def test_content_outside_graph_rejected(self):
        with pytest.raises(ParseError):
            parse_stg(".model x\nstray line\n.end\n")

    def test_weighted_marking(self):
        text = """
.model w
.outputs a
.graph
p0 a+
a+ p0
.marking { p0=2 }
.end
"""
        stg = parse_stg(text)
        assert stg.net.marking_dict(stg.net.initial_marking()) == {"p0": 2}

    def test_end_stops_parsing(self):
        stg = parse_stg(SIMPLE + "\ngarbage after end\n")
        assert stg.name == "demo"


class TestRoundTrip:
    @pytest.mark.parametrize("make", [fig1_stg, q_module_stg, lr_expanded])
    def test_roundtrip_preserves_behaviour(self, make):
        original = make()
        rebuilt = parse_stg(write_stg(original))
        assert rebuilt.signals == original.signals
        sg_a = generate_sg(original)
        sg_b = generate_sg(rebuilt)
        assert len(sg_a) == len(sg_b)
        assert sg_a.arc_count() == sg_b.arc_count()
        assert sorted(map(str, sg_a.events.values())) == \
            sorted(map(str, sg_b.events.values()))

    def test_roundtrip_codes_match(self):
        original = fig1_stg()
        rebuilt = parse_stg(write_stg(original))
        sg_a, sg_b = generate_sg(original), generate_sg(rebuilt)
        assert sorted(sg_a.codes.values()) == sorted(sg_b.codes.values())

    def test_file_io(self, tmp_path):
        path = tmp_path / "demo.g"
        path.write_text(write_stg(fig1_stg()))
        loaded = read_stg(str(path))
        assert loaded.name == "fig1_controller"
        assert len(generate_sg(loaded)) == 5

    def test_write_contains_sections(self):
        text = write_stg(fig1_stg())
        for token in (".model", ".inputs Req", ".outputs Ack", ".graph",
                      ".marking", ".initial_state", ".end"):
            assert token in text


class TestSuiteRoundTrip:
    """Property test: parse(write(stg)) over the whole specs/ suite.

    Round-tripping must preserve the signal table, the transition set, the
    place structure (explicit names kept, implicit places fold back to the
    same count), the token marking and the generated behaviour, and a
    second write must be a fixed point (byte-identical text).
    """

    @pytest.fixture(params=suite.suite_names())
    def spec(self, request):
        return suite.load(request.param)

    def test_roundtrip_preserves_structure(self, spec):
        text = write_stg(spec)
        rebuilt = parse_stg(text)
        assert rebuilt.signals == spec.signals
        assert rebuilt.initial_values == spec.initial_values
        assert (sorted(t.name for t in rebuilt.net.transitions)
                == sorted(t.name for t in spec.net.transitions))
        explicit = lambda stg: sorted(p.name for p in stg.net.places
                                      if not p.auto)
        implicit = lambda stg: sum(1 for p in stg.net.places if p.auto)
        assert explicit(rebuilt) == explicit(spec)
        assert implicit(rebuilt) == implicit(spec)
        tokens = lambda stg: sorted(
            stg.net.marking_dict(stg.net.initial_marking()).values())
        assert tokens(rebuilt) == tokens(spec)

    def test_roundtrip_preserves_behaviour(self, spec):
        rebuilt = parse_stg(write_stg(spec))
        sg_a, sg_b = generate_sg(spec), generate_sg(rebuilt)
        assert len(sg_a) == len(sg_b)
        assert sg_a.arc_count() == sg_b.arc_count()
        assert sorted(sg_a.codes.values()) == sorted(sg_b.codes.values())

    def test_second_write_is_fixed_point(self, spec):
        once = write_stg(parse_stg(write_stg(spec)))
        twice = write_stg(parse_stg(once))
        assert once == twice


#: Inputs and outputs declared alternately, then an internal signal.
INTERLEAVED = """
.model interleaved
.inputs li
.outputs lo
.inputs ri
.outputs ro
.internal x
.graph
li+ x+
x+ lo+
lo+ li-
li- x-
x- lo-
lo- ro+
ro+ ri+
ri+ ro-
ro- ri-
ri- li+
.marking { <ri-,li+> }
.initial_state !li !lo !ri !ro !x
.end
"""

#: The smallest member of every family kind.
SMALLEST_FAMILY = {"arbiter_tree": "arbiter_tree_2", "counter": "counter_1",
                   "fifo_chain": "fifo_chain_1",
                   "micropipeline_chain": "micropipeline_chain_1"}

#: The quick corpus that ``tests/data/fuzz_corpus.json`` anchors.
QUICK = json.loads((Path(__file__).parent / "data" / "fuzz_corpus.json")
                   .read_text())["quick"]

#: case id -> STG factory of every round trip checked below.
ROUND_TRIPS = {
    **{f"registry/{name}": partial(load_spec, name) for name in spec_names()},
    **{f"family/{member}": partial(load_family, member)
       for member in SMALLEST_FAMILY.values()},
    **{f"fuzz/{index}": (lambda index=index: generate_spec(
        spec_seed(QUICK["seed"], index)).build())
       for index in range(QUICK["count"])},
    "interleaved": partial(parse_stg, INTERLEAVED),
}


class TestDeclarationOrder:
    """``write_stg`` keeps ``stg.signals`` order, so a round trip through
    ``.g`` text gives the same signal order and the same state graph."""

    def test_every_family_kind_is_covered(self):
        assert sorted(SMALLEST_FAMILY) == family_names()

    @pytest.mark.parametrize("case", list(ROUND_TRIPS))
    def test_round_trip_keeps_order_and_graph(self, case):
        stg = ROUND_TRIPS[case]()
        rebuilt = parse_stg(write_stg(stg))
        assert list(rebuilt.signals.items()) == list(stg.signals.items())
        assert (graph_digest(generate_sg(rebuilt))
                == graph_digest(generate_sg(stg)))

    def test_one_directive_per_run_of_one_kind(self):
        stg = parse_stg(INTERLEAVED)
        assert list(stg.signals) == ["li", "lo", "ri", "ro", "x"]
        directives = [line for line in write_stg(stg).splitlines()
                      if line.startswith((".inputs", ".outputs",
                                          ".internal", ".dummy"))]
        assert directives == [".inputs li", ".outputs lo", ".inputs ri",
                              ".outputs ro", ".internal x"]

    def test_inputs_first_spec_writes_its_source(self):
        # A spec declared inputs-first keeps its grouped directives: the
        # suite's ``half`` writes back its own declaration lines.
        text = write_stg(suite.load("half"))
        assert ".inputs ri ai\n.outputs ro ao\n" in text

