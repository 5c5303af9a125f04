"""Unit tests for partial specs and handshake expansion (repro.hse)."""

import pytest

from repro.hse.constraints import (InterfaceConstraint, apply_interface_constraint,
                                   normalise_keep_conc)
from repro.hse.expansion import (ExpansionError, expand, expand_four_phase,
                                 expand_two_phase)
from repro.hse.spec import (ChannelAction, ChannelRole, PartialPulse,
                            PartialSpec)
from repro.petri.net import PetriNetError
from repro.petri.stg import SignalEvent, SignalKind
from repro.sg.generator import generate_sg
from repro.sg.properties import check_implementability, is_consistent
from repro.sg.regions import are_concurrent
from repro.specs.fragments import fig6_spec
from repro.specs.lr import lr_spec


class TestPartialSpec:
    def test_parse_channel_actions(self):
        spec = PartialSpec()
        spec.declare_channel("a")
        event = spec.parse_event("a?")
        assert isinstance(event, ChannelAction)
        assert event.is_input
        assert str(spec.parse_event("a!")) == "a!"

    def test_parse_partial_pulse(self):
        spec = PartialSpec()
        spec.declare_partial_signal("b")
        event = spec.parse_event("b")
        assert isinstance(event, PartialPulse)
        assert str(spec.parse_event("b/1")) == "b/1"

    def test_parse_full_signal_event(self):
        spec = PartialSpec()
        spec.declare_signal("c", SignalKind.OUTPUT)
        assert isinstance(spec.parse_event("c+"), SignalEvent)

    def test_undeclared_rejected(self):
        spec = PartialSpec()
        with pytest.raises(PetriNetError):
            spec.parse_event("z?")
        with pytest.raises(PetriNetError):
            spec.parse_event("z+")
        with pytest.raises(PetriNetError):
            spec.parse_event("z")

    def test_partial_signal_cannot_be_input(self):
        spec = PartialSpec()
        with pytest.raises(PetriNetError):
            spec.declare_partial_signal("b", SignalKind.INPUT)

    def test_channel_role_conflict(self):
        spec = PartialSpec()
        spec.declare_channel("a", ChannelRole.PASSIVE)
        with pytest.raises(PetriNetError):
            spec.declare_channel("a", ChannelRole.ACTIVE)

    def test_wire_names(self):
        spec = PartialSpec()
        spec.declare_channel("l")
        assert spec.wire_names("l") == ("li", "lo")
        with pytest.raises(PetriNetError):
            spec.wire_names("zz")

    def test_connect_lazily_creates_transitions(self):
        spec = PartialSpec()
        spec.declare_channel("a")
        spec.connect("a?", "a!")
        assert spec.net.has_transition("a?")

    def test_bad_action_kind(self):
        with pytest.raises(ValueError):
            ChannelAction("a", "x")


class TestTwoPhase:
    def test_lr_two_phase_has_toggles(self):
        stg = expand_two_phase(lr_spec())
        assert set(stg.net.transition_names) == {"li~", "lo~", "ri~", "ro~"}
        assert stg.signals["li"] == SignalKind.INPUT
        assert stg.signals["lo"] == SignalKind.OUTPUT

    def test_lr_two_phase_behaviour(self):
        sg = generate_sg(expand_two_phase(lr_spec()))
        # four markings x toggle parity unfolding = 8 binary states
        assert len(sg) == 8
        assert is_consistent(sg)

    def test_two_phase_rejects_constraints(self):
        with pytest.raises(ExpansionError):
            expand(lr_spec(), phases=2,
                   extra_constraints=[InterfaceConstraint.passive("l")])

    def test_unsupported_phase_count(self):
        with pytest.raises(ExpansionError):
            expand(lr_spec(), phases=3)


class TestFourPhase:
    def test_lr_four_phase_events(self):
        stg = expand_four_phase(lr_spec())
        names = set(stg.net.transition_names)
        assert names == {"li+", "li-", "lo+", "lo-", "ri+", "ri-", "ro+", "ro-"}

    def test_rtz_structure_present(self):
        stg = expand_four_phase(lr_spec())
        for wire in ("li", "lo", "ri", "ro"):
            assert stg.net.has_place(f"rtz_{wire}")
            assert stg.net.has_place(f"rdy_{wire}")

    def test_lr_four_phase_is_implementable_modulo_csc(self):
        sg = generate_sg(expand_four_phase(lr_spec()))
        report = check_implementability(sg)
        assert report.consistent
        assert report.speed_independent
        assert report.deadlock_free
        assert len(sg) == 16  # Fig. 2.f

    def test_interface_constraints_enforced(self):
        sg = generate_sg(expand_four_phase(lr_spec()))
        # Passive port l: never reset the request before the acknowledgment,
        # so li- is *not* concurrent with lo+ and fires only after it.
        assert not are_concurrent(sg, "li-", "lo+")
        # But resets of different channels overlap.
        assert are_concurrent(sg, "li-", "ri-")

    def test_free_channel_is_less_constrained(self):
        free = lr_spec()
        free.channels["l"] = ChannelRole.FREE
        free.channels["r"] = ChannelRole.FREE
        sg_free = generate_sg(expand_four_phase(free))
        sg_constrained = generate_sg(expand_four_phase(lr_spec()))
        # Fig 2.e vs Fig 2.f: dropping the interface constraints admits
        # strictly more behaviour.
        assert len(sg_free) > len(sg_constrained)

    def test_initial_values_all_zero(self):
        stg = expand_four_phase(lr_spec())
        assert all(value == 0 for value in stg.initial_values.values())

    def test_fig6_mixed_spec_expands(self):
        stg = expand_four_phase(fig6_spec())
        # channel a contributes ai/ao wires; b gets an inserted b-;
        # c keeps its explicit c+/c-.
        names = set(stg.net.transition_names)
        assert {"ai+", "ao+", "ai-", "ao-", "b+", "b+/1", "b-", "c+", "c-"} <= names
        sg = generate_sg(stg)
        assert is_consistent(sg)

    def test_fig6_two_phase(self):
        stg = expand_two_phase(fig6_spec())
        names = set(stg.net.transition_names)
        assert {"ai~", "ao~", "b~", "b~/1", "c+", "c-"} <= names
        assert is_consistent(generate_sg(stg))

    def test_toggle_in_four_phase_rejected(self):
        spec = PartialSpec()
        spec.declare_signal("c", SignalKind.OUTPUT)
        spec.add("c~")
        spec.net.add_place("p", 1)
        spec.net.add_arc("p", "c~")
        spec.net.add_arc("c~", "p")
        with pytest.raises(ExpansionError):
            expand_four_phase(spec)


class TestConstraints:
    def test_constraint_factories(self):
        passive = InterfaceConstraint.passive("l")
        assert passive.order == ("li+", "lo+", "li-", "lo-")
        active = InterfaceConstraint.active("r")
        assert active.order == ("ro+", "ri+", "ro-", "ri-")

    def test_constraint_missing_event_rejected(self):
        stg = expand_four_phase(lr_spec())
        with pytest.raises(ValueError):
            apply_interface_constraint(
                stg, InterfaceConstraint(("zz+", "li+"), 0))

    def test_normalise_keep_conc(self):
        sg = generate_sg(expand_four_phase(lr_spec()))
        pairs = normalise_keep_conc(sg, [("li-", "ri-")])
        assert pairs == {frozenset(("li-", "ri-"))}

    def test_normalise_expands_signals(self):
        sg = generate_sg(expand_four_phase(lr_spec()))
        pairs = normalise_keep_conc(sg, [("li", "ri")])
        assert frozenset(("li+", "ri+")) in pairs
        assert frozenset(("li-", "ri-")) in pairs
        assert len(pairs) == 4

    def test_normalise_unknown_item(self):
        sg = generate_sg(expand_four_phase(lr_spec()))
        with pytest.raises(ValueError):
            normalise_keep_conc(sg, [("zz", "li")])
