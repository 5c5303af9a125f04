"""Unit tests for the Petri net kernel (repro.petri.net)."""

import pytest

from net_oracle import fire, is_enabled, reachable_markings
from repro.petri.net import PetriNet, PetriNetError


@pytest.fixture
def ring():
    """A two-transition ring: p0 -> t0 -> p1 -> t1 -> p0, token on p0."""
    net = PetriNet("ring")
    net.add_place("p0", tokens=1)
    net.add_place("p1")
    net.add_transition("t0")
    net.add_transition("t1")
    net.add_arc("p0", "t0")
    net.add_arc("t0", "p1")
    net.add_arc("p1", "t1")
    net.add_arc("t1", "p0")
    return net


class TestConstruction:
    def test_add_place_and_transition(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t", label="x")
        assert net.has_place("p")
        assert net.has_transition("t")
        assert net.label_of("t") == "x"

    def test_add_place_twice_is_idempotent(self):
        net = PetriNet()
        first = net.add_place("p")
        second = net.add_place("p")
        assert first is second
        assert len(net.places) == 1

    def test_add_place_readd_is_idempotent(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_place("p", tokens=1)
        assert net.initial_marking() == (1,)

    def test_add_place_readd_can_mark_unmarked_place(self):
        net = PetriNet()
        net.add_place("p")
        net.add_place("p", tokens=2)
        net.add_place("p")  # token-less re-add never clears the marking
        assert net.initial_marking() == (2,)

    def test_add_place_readd_with_conflicting_tokens_rejected(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        with pytest.raises(PetriNetError):
            net.add_place("p", tokens=2)

    def test_place_and_transition_name_clash_rejected(self):
        net = PetriNet()
        net.add_place("x")
        with pytest.raises(PetriNetError):
            net.add_transition("x")
        net.add_transition("t")
        with pytest.raises(PetriNetError):
            net.add_place("t")

    def test_transition_relabel_conflict_rejected(self):
        net = PetriNet()
        net.add_transition("t", label="a")
        with pytest.raises(PetriNetError):
            net.add_transition("t", label="b")

    def test_arc_between_transitions_creates_implicit_place(self):
        net = PetriNet()
        net.add_transition("t0")
        net.add_transition("t1")
        net.add_arc("t0", "t1")
        assert net.has_place("<t0,t1>")
        assert net.place("<t0,t1>").auto

    def test_arc_between_places_rejected(self):
        net = PetriNet()
        net.add_place("p0")
        net.add_place("p1")
        with pytest.raises(PetriNetError):
            net.add_arc("p0", "p1")

    def test_arc_to_unknown_node_rejected(self):
        net = PetriNet()
        net.add_place("p")
        with pytest.raises(PetriNetError):
            net.add_arc("p", "nope")

    def test_zero_weight_arc_rejected(self):
        net = PetriNet()
        net.add_place("p")
        net.add_transition("t")
        with pytest.raises(PetriNetError):
            net.add_arc("p", "t", weight=0)

    def test_presets_and_postsets(self, ring):
        assert ring.preset_of_transition("t0") == {"p0": 1}
        assert ring.postset_of_transition("t0") == {"p1": 1}
        assert ring.preset_of_place("p1") == {"t0"}
        assert ring.postset_of_place("p1") == {"t1"}

    def test_remove_arc(self, ring):
        ring.remove_arc("p0", "t0")
        assert ring.preset_of_transition("t0") == {}
        assert "t0" not in ring.postset_of_place("p0")

    def test_fresh_names(self, ring):
        assert not ring.has_place(ring.fresh_place_name())

    def test_contains(self, ring):
        assert "p0" in ring
        assert "t1" in ring
        assert "zz" not in ring


class TestTokenGame:
    def test_initial_marking(self, ring):
        assert ring.initial_marking() == (1, 0)

    def test_marking_dict_roundtrip(self, ring):
        marking = fire(ring, "t0", ring.initial_marking())
        ring.set_initial(ring.marking_dict(marking))
        assert ring.initial_marking() == marking

    def test_enabled_transitions(self, ring):
        assert ring.enabled_transitions(ring.initial_marking()) == ["t0"]

    def test_fire_moves_token(self, ring):
        after = fire(ring, "t0", ring.initial_marking())
        assert after == (0, 1)
        assert ring.enabled_transitions(after) == ["t1"]

    def test_fire_disabled_raises(self, ring):
        with pytest.raises(PetriNetError):
            fire(ring, "t1", ring.initial_marking())

    def test_reachable_markings_of_ring(self, ring):
        assert reachable_markings(ring) == {(1, 0), (0, 1)}

    def test_reachability_limit(self):
        net = PetriNet()
        net.add_place("p", tokens=1)
        net.add_transition("t")
        net.add_arc("p", "t")
        net.add_arc("t", "p")
        net.add_arc("t", "p")  # weight accumulates: unbounded growth
        with pytest.raises(PetriNetError):
            reachable_markings(net, limit=10)

    def test_weighted_arcs(self):
        net = PetriNet()
        net.add_place("p", tokens=2)
        net.add_transition("t")
        net.add_arc("p", "t", weight=2)
        assert is_enabled(net, "t", net.initial_marking())
        assert fire(net, "t", net.initial_marking()) == (0,)

    def test_concurrent_diamond(self):
        net = PetriNet()
        for place in ("pa", "pb"):
            net.add_place(place, tokens=1)
        net.add_transition("a")
        net.add_transition("b")
        net.add_arc("pa", "a")
        net.add_arc("pb", "b")
        markings = reachable_markings(net)
        assert len(markings) == 4  # both orders commute

    def test_set_initial_validates(self, ring):
        with pytest.raises(PetriNetError):
            ring.set_initial({"nope": 1})


class TestCopy:
    def test_copy_is_deep_for_structure(self, ring):
        clone = ring.copy()
        clone.remove_arc("p0", "t0")
        assert ring.preset_of_transition("t0") == {"p0": 1}

    def test_copy_preserves_marking_and_arcs(self, ring):
        clone = ring.copy("clone")
        assert clone.name == "clone"
        assert clone.initial_marking() == ring.initial_marking()
        assert clone.preset_of_transition("t1") == ring.preset_of_transition("t1")

    def test_copy_preserves_labels(self):
        net = PetriNet()
        net.add_transition("t", label=("sig", "+"))
        assert net.copy().label_of("t") == ("sig", "+")
