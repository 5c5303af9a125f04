"""Unit tests for excitation regions and concurrency (repro.sg.regions)."""

import pytest

from repro.sg.generator import generate_sg
from repro.sg.regions import (are_concurrent, excitation_region,
                              minimal_states, quiescent_region)
from repro.specs.fig1 import fig1_stg
from repro.specs.fragments import fig8_sg
from repro.specs.lr import lr_expanded, q_module_stg
from sg_oracle import concurrent_pairs


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def lr_max():
    return generate_sg(lr_expanded())


class TestExcitationRegions:
    def test_fig1_er_sizes(self, fig1):
        # ER(Req+) and ER(Ack-) both have two states (Section 2).
        assert len(excitation_region(fig1, "Req+")) == 2
        assert len(excitation_region(fig1, "Ack-")) == 2
        assert len(excitation_region(fig1, "Ack+")) == 1

    def test_fig1_ers_intersect_for_concurrent(self, fig1):
        er_req = excitation_region(fig1, "Req+")
        er_ack = excitation_region(fig1, "Ack-")
        assert er_req & er_ack  # the paper's example of ER intersection

    def test_sequential_ers_are_singletons(self):
        sg = generate_sg(q_module_stg())
        for label in sg.events:
            assert len(excitation_region(sg, label)) == 1

    def test_quiescent_region(self, fig1):
        # States where Ack is stably 0: none are in ER(Ack+).
        stable0 = quiescent_region(fig1, "Ack", 0)
        assert stable0.isdisjoint(excitation_region(fig1, "Ack+"))
        for state in stable0:
            assert fig1.value_of(state, "Ack") == 0

    def test_minimal_states(self, fig1):
        er = excitation_region(fig1, "Req+")
        minimal = minimal_states(fig1, er)
        assert minimal
        assert minimal <= er


class TestConcurrency:
    def test_fig1_req_plus_concurrent_with_ack_minus(self, fig1):
        assert are_concurrent(fig1, "Req+", "Ack-")
        assert are_concurrent(fig1, "Ack-", "Req+")

    def test_fig1_sequential_events_not_concurrent(self, fig1):
        assert not are_concurrent(fig1, "Req+", "Ack+")
        assert not are_concurrent(fig1, "Ack+", "Req-")

    def test_event_not_concurrent_with_itself(self, fig1):
        assert not are_concurrent(fig1, "Req+", "Req+")

    def test_concurrent_pairs_symmetric_closure(self, fig1):
        pairs = concurrent_pairs(fig1)
        assert pairs == {("Ack-", "Req+")}

    def test_diamond_matches_er_intersection_on_si_graphs(self, fig1, lr_max):
        # For speed-independent SGs the two definitions coincide (Section 2).
        for sg in (fig1, lr_max):
            labels = sorted(sg.events)
            for i, a in enumerate(labels):
                for b in labels[i + 1:]:
                    assert are_concurrent(sg, a, b) == bool(
                        excitation_region(sg, a) & excitation_region(sg, b)
                    ), (a, b)

    def test_q_module_has_no_concurrency(self):
        sg = generate_sg(q_module_stg())
        assert concurrent_pairs(sg) == set()

    def test_lr_max_concurrency_structure(self, lr_max):
        pairs = concurrent_pairs(lr_max)
        # Reset events are maximally concurrent after expansion: the two
        # falling input events overlap (the li || ri row of Table 1).
        assert ("li-", "ri-") in pairs
        assert len(pairs) >= 8

    def test_choice_is_not_concurrency(self):
        sg = fig8_sg()
        # g and d are both enabled at s1 but form no diamond: choice.
        assert not are_concurrent(sg, "g", "d")
        assert are_concurrent(sg, "a", "d")
