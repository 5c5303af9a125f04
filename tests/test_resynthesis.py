"""Unit tests for region-based STG re-derivation (repro.sg.resynthesis)."""

import pytest

from net_oracle import is_safe
from repro.sg.generator import generate_sg
from repro.sg.regions import excitation_region
from repro.sg.resynthesis import (excitation_closure_holds, is_region,
                                  minimal_preregions, resynthesise_stg,
                                  verify_resynthesis)
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg, TABLE1_KEEP_CONC
from repro.reduction.explore import full_reduction


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


class TestRegions:
    def test_whole_state_set_is_not_a_region(self, fig1):
        assert not is_region(fig1, set(fig1.states))
        assert not is_region(fig1, set())

    def test_er_based_candidates(self, fig1):
        for label in fig1.events:
            for region in minimal_preregions(fig1, label):
                assert is_region(fig1, set(region))
                assert excitation_region(fig1, label) <= region

    def test_preregions_are_minimal(self, fig1):
        for label in fig1.events:
            regions = minimal_preregions(fig1, label)
            for region in regions:
                assert not any(other < region for other in regions)

    def test_excitation_closure(self, fig1):
        for label in fig1.events:
            preregions = minimal_preregions(fig1, label)
            assert excitation_closure_holds(fig1, label, preregions), label

    def test_unknown_event_has_no_preregions(self, fig1):
        assert minimal_preregions(fig1, "Req+") != []


class TestResynthesis:
    def test_fig1_roundtrip(self, fig1):
        stg = resynthesise_stg(fig1)
        assert verify_resynthesis(fig1, stg)
        # The paper's Fig. 1.c has five places.
        assert len(stg.net.places) == 5

    def test_fig1_roundtrip_is_safe(self, fig1):
        stg = resynthesise_stg(fig1)
        assert is_safe(stg.net)

    def test_sequential_cycle_roundtrip(self):
        sg = generate_sg(q_module_stg())
        stg = resynthesise_stg(sg)
        assert verify_resynthesis(sg, stg)

    def test_max_concurrency_lr_roundtrip(self):
        sg = generate_sg(lr_expanded())
        stg = resynthesise_stg(sg)
        assert verify_resynthesis(sg, stg)

    def test_reduced_lr_roundtrip(self):
        sg = generate_sg(lr_expanded())
        reduced = full_reduction(sg, keep_conc=TABLE1_KEEP_CONC["li || ri"])
        stg = resynthesise_stg(reduced)
        assert verify_resynthesis(reduced, stg)

    def test_resynthesis_preserves_signals(self, fig1):
        stg = resynthesise_stg(fig1)
        assert stg.signals.keys() == fig1.kinds.keys()
        assert stg.initial_values == {"Req": 1, "Ack": 0}

    def test_no_pruning_still_verifies(self, fig1):
        stg = resynthesise_stg(fig1, prune_redundant=False)
        assert verify_resynthesis(fig1, stg)
        assert len(stg.net.places) >= 5
