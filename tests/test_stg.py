"""Unit tests for signal transition graphs (repro.petri.stg)."""

import pytest

from repro.petri.net import PetriNetError
from repro.petri.stg import STG, Direction, SignalEvent, SignalKind


class TestSignalEvent:
    @pytest.mark.parametrize("text,signal,direction,instance", [
        ("a+", "a", Direction.RISE, 0),
        ("req-", "req", Direction.FALL, 0),
        ("x~", "x", Direction.TOGGLE, 0),
        ("ack+/2", "ack", Direction.RISE, 2),
        ("b_1-/10", "b_1", Direction.FALL, 10),
    ])
    def test_parse(self, text, signal, direction, instance):
        event = SignalEvent.parse(text)
        assert event.signal == signal
        assert event.direction == direction
        assert event.instance == instance

    @pytest.mark.parametrize("bad", ["a", "+a", "a++", "a+/x", "", "a +"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            SignalEvent.parse(bad)

    def test_str_roundtrip(self):
        for text in ("a+", "b-", "c~", "d+/3"):
            assert str(SignalEvent.parse(text)) == text

    def test_base_strips_instance(self):
        assert SignalEvent.parse("a+/5").base == SignalEvent.parse("a+")

    def test_opposite(self):
        assert SignalEvent.parse("a+").opposite() == SignalEvent.parse("a-")
        assert SignalEvent.parse("a-").opposite() == SignalEvent.parse("a+")
        assert SignalEvent.parse("a~").opposite().direction == Direction.TOGGLE

    def test_ordering_is_total(self):
        events = [SignalEvent.parse(t) for t in ("b+", "a-", "a+", "a+/1")]
        assert sorted(events)  # does not raise

    def test_direction_opposite(self):
        assert Direction.RISE.opposite() == Direction.FALL
        assert Direction.FALL.opposite() == Direction.RISE


class TestSTG:
    @pytest.fixture
    def stg(self):
        stg = STG("t")
        stg.declare_signal("a", SignalKind.INPUT)
        stg.declare_signal("b", SignalKind.OUTPUT)
        stg.declare_signal("x", SignalKind.INTERNAL)
        return stg

    def test_signal_partition(self, stg):
        assert stg.inputs == ["a"]
        assert stg.outputs == ["b"]
        assert stg.signals_of_kind(SignalKind.OUTPUT,
                                   SignalKind.INTERNAL) == ["b", "x"]

    def test_redeclare_same_kind_ok(self, stg):
        stg.declare_signal("a", SignalKind.INPUT)

    def test_redeclare_other_kind_rejected(self, stg):
        with pytest.raises(PetriNetError):
            stg.declare_signal("a", SignalKind.OUTPUT)

    def test_add_event_requires_declaration(self, stg):
        with pytest.raises(PetriNetError):
            stg.add_event("undeclared+")

    def test_add_event_returns_name(self, stg):
        assert stg.add_event("a+") == "a+"
        assert stg.event_of("a+") == SignalEvent.parse("a+")

    def test_add_fresh_event_picks_new_instance(self, stg):
        first = stg.add_fresh_event("a+")
        second = stg.add_fresh_event("a+")
        assert first == "a+"
        assert second == "a+/1"
        assert stg.event_of(second).instance == 1

    def test_transitions_of_signal_and_event(self, stg):
        stg.add_event("a+")
        stg.add_event("a-")
        stg.add_fresh_event("a+")
        assert set(stg.transitions_of_event("a+")) == {"a+", "a+/1"}

    def test_chain_and_cycle(self, stg):
        for e in ("a+", "b+", "a-", "b-"):
            stg.add_event(e)
        stg.cycle("a+", "b+", "a-", "b-")
        assert stg.net.has_place("<b-,a+>")
        assert stg.net.preset_of_transition("b+") == {"<a+,b+>": 1}

    def test_mark(self, stg):
        stg.add_event("a+")
        stg.add_event("b+")
        stg.connect("a+", "b+")
        stg.mark("<a+,b+>")
        assert stg.net.marking_dict(stg.net.initial_marking()) == {"<a+,b+>": 1}

    def test_mark_unknown_place(self, stg):
        with pytest.raises(PetriNetError):
            stg.mark("nope")

    def test_initial_values(self, stg):
        stg.set_initial_value("a", 1)
        assert stg.initial_values["a"] == 1
        with pytest.raises(PetriNetError):
            stg.set_initial_value("a", 2)
        with pytest.raises(PetriNetError):
            stg.set_initial_value("zz", 0)

    def test_dummy_transitions(self, stg):
        stg.add_dummy("eps")
        assert stg.event_of("eps") is None

    def test_copy_independent(self, stg):
        stg.add_event("a+")
        clone = stg.copy("c")
        clone.declare_signal("new", SignalKind.OUTPUT)
        clone.add_event("new+")
        assert "new" not in stg.signals
        assert not stg.net.has_transition("new+")
