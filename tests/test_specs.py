"""Sanity tests for the benchmark specifications (repro.specs)."""

import pytest

from repro.sg.generator import generate_sg
from repro.sg.properties import (check_implementability, csc_conflicts,
                                 is_consistent)
from repro.sg.regions import are_concurrent
from repro.specs.fig1 import fig1_stg
from repro.specs.fragments import fig6_spec, fig8_sg
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded, lr_spec, q_module_stg
from repro.specs.mmu import TABLE2_KEEP_CONC, keep_conc_for, mmu_expanded, mmu_spec
from repro.specs.par import PAR_KEEP_CONC, par_expanded, par_manual_stg, par_spec
from repro.hse.expansion import expand_four_phase


class TestFig1:
    def test_shape(self):
        sg = generate_sg(fig1_stg())
        report = check_implementability(sg)
        assert len(sg) == 5
        assert report.consistent and report.speed_independent
        assert report.csc_conflict_count == 1


class TestLR:
    def test_spec_events(self):
        spec = lr_spec()
        assert {str(e) for e in spec.events()} == {"l?", "l!", "r?", "r!"}

    def test_expansion_is_fig_2f(self):
        sg = generate_sg(lr_expanded())
        assert len(sg) == 16
        assert check_implementability(sg).speed_independent
        assert len(csc_conflicts(sg)) == 3

    def test_q_module_is_valid_reshuffling(self):
        sg = generate_sg(q_module_stg())
        assert len(sg) == 8
        assert check_implementability(sg).speed_independent
        # respects both channel protocols
        assert is_consistent(sg)

    def test_keep_conc_table_covers_four_rows(self):
        assert set(TABLE1_KEEP_CONC) == {"li || ri", "li || ro",
                                         "lo || ri", "lo || ro"}
        sg = generate_sg(lr_expanded())
        for name, pairs in TABLE1_KEEP_CONC.items():
            for a, b in pairs:
                assert are_concurrent(sg, a, b), (name, a, b)


class TestPAR:
    def test_spec_structure(self):
        spec = par_spec()
        assert set(spec.channels) == {"a", "b", "c"}

    def test_expansion(self):
        sg = generate_sg(par_expanded())
        assert len(sg) == 76
        assert check_implementability(sg).speed_independent
        # The parallel acknowledgments stay concurrent in the expansion.
        assert are_concurrent(sg, "bi+", "ci+")

    def test_manual_design_is_clean(self):
        sg = generate_sg(par_manual_stg())
        assert check_implementability(sg).speed_independent
        assert not csc_conflicts(sg)
        assert are_concurrent(sg, "bi+", "ci+")

    def test_keep_conc_preservable(self):
        sg = generate_sg(par_expanded())
        for a, b in PAR_KEEP_CONC:
            assert are_concurrent(sg, a, b)


class TestMMU:
    def test_spec_channels(self):
        assert set(mmu_spec().channels) == {"b", "l", "m", "r"}

    def test_expansion_scale(self):
        sg = generate_sg(mmu_expanded())
        assert len(sg) == 264
        assert check_implementability(sg).speed_independent
        assert len(csc_conflicts(sg)) > 0

    def test_keep_conc_tables(self):
        assert len(TABLE2_KEEP_CONC) == 4
        pairs = keep_conc_for(("b", "m"))
        assert ("bi-", "mi-") in pairs
        assert ("bo-", "mo-") in pairs
        assert len(pairs) == 4

    def test_translation_and_read_are_parallel(self):
        sg = generate_sg(mmu_expanded())
        assert are_concurrent(sg, "mo+", "ro+")


class TestFragments:
    def test_fig8_shape(self):
        sg = fig8_sg()
        assert len(sg) == 10
        assert sg.initial == "s0"

    def test_fig6_expands_both_ways(self):
        spec = fig6_spec()
        four = expand_four_phase(spec)
        sg = generate_sg(four)
        assert is_consistent(sg)
        # the channel acts in both roles: ao+ (active) precedes ai+ (passive)
        assert "ao+" in sg.events
