"""Unit tests for STG parallel composition (repro.petri.compose)."""

import pytest

from repro.petri.compose import compose, compose_all
from repro.petri.net import PetriNetError
from repro.petri.stg import STG, SignalKind
from repro.sg.generator import generate_sg


def cycle_stg(name, signals, events, marked_arc, kinds=None):
    stg = STG(name)
    kinds = kinds or {}
    for signal in signals:
        stg.declare_signal(signal, kinds.get(signal, SignalKind.OUTPUT))
    for event in events:
        stg.add_event(event)
    stg.cycle(*events)
    stg.mark(marked_arc)
    for signal in signals:
        stg.set_initial_value(signal, 0)
    return stg


class TestCompose:
    def test_private_events_interleave(self):
        left = cycle_stg("L", ["a"], ["a+", "a-"], "<a-,a+>")
        right = cycle_stg("R", ["b"], ["b+", "b-"], "<b-,b+>")
        product = compose(left, right)
        sg = generate_sg(product)
        assert len(sg) == 4  # full interleaving of two independent cycles

    def test_shared_events_synchronise(self):
        left = cycle_stg("L", ["a", "b"], ["a+", "b+", "a-", "b-"], "<b-,a+>")
        right = cycle_stg("R", ["b", "c"], ["b+", "c+", "b-", "c-"], "<c-,b+>")
        product = compose(left, right)
        sg = generate_sg(product)
        # b transitions are fused: both components step through them together.
        assert len(product.transitions_of_event("b+")
                   + product.transitions_of_event("b-")) == 2
        assert len(sg) > 0

    def test_signal_kind_resolution_input_loses(self):
        left = STG("L")
        left.declare_signal("x", SignalKind.INPUT)
        left.add_event("x+")
        left.add_event("x-")
        left.cycle("x+", "x-")
        left.mark("<x-,x+>")
        right = cycle_stg("R", ["x"], ["x+", "x-"], "<x-,x+>")
        product = compose(left, right)
        assert product.signals["x"] == SignalKind.OUTPUT

    def test_conflicting_kinds_rejected(self):
        left = cycle_stg("L", ["x"], ["x+", "x-"], "<x-,x+>")
        right = STG("R")
        right.declare_signal("x", SignalKind.INTERNAL)
        right.add_event("x+")
        right.add_event("x-")
        right.cycle("x+", "x-")
        right.mark("<x-,x+>")
        with pytest.raises(PetriNetError):
            compose(left, right)

    def test_composition_preserves_initial_values(self):
        left = cycle_stg("L", ["a"], ["a+", "a-"], "<a-,a+>")
        left.set_initial_value("a", 0)
        right = cycle_stg("R", ["b"], ["b+", "b-"], "<b-,b+>")
        product = compose(left, right)
        assert product.initial_values["a"] == 0
        assert product.initial_values["b"] == 0

    def test_compose_all(self):
        parts = [cycle_stg(n, [s], [f"{s}+", f"{s}-"], f"<{s}-,{s}+>")
                 for n, s in (("A", "a"), ("B", "b"), ("C", "c"))]
        product = compose_all(parts, name="abc")
        assert product.name == "abc"
        assert len(generate_sg(product)) == 8

    def test_compose_all_empty_rejected(self):
        with pytest.raises(PetriNetError):
            compose_all([])

    def test_synchronised_behaviour_is_constrained(self):
        # A sequential left component forces order on the shared event that
        # the right component alone would leave free.
        left = cycle_stg("L", ["a", "s"], ["a+", "s+", "a-", "s-"], "<s-,a+>")
        right = cycle_stg("R", ["s"], ["s+", "s-"], "<s-,s+>")
        product = compose(left, right)
        sg = generate_sg(product)
        # s+ must wait for a+: no state enables s+ before a+ has fired.
        initial_enabled = sg.enabled(sg.initial)
        assert any(label.startswith("a+") for label in initial_enabled)
        assert not any(label.startswith("s+") for label in initial_enabled)
