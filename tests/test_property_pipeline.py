"""Property-based tests over the reduction pipeline.

Hypothesis drives random *sequences* of forward reductions on the LR
expansion and checks that every intermediate SG maintains the invariants
Definition 5.1 promises, that the heuristic cost estimator stays consistent
with the exact one, and that insertion preserves the projected behaviour.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cost_oracle import estimate_logic_complexity
from repro.reduction.fwdred import forward_reduction, reducible_pairs
from repro.sg.generator import generate_sg
from repro.sg.properties import (csc_conflicts, is_commutative, is_consistent,
                                 is_output_persistent)
from repro.specs.lr import lr_expanded


@pytest.fixture(scope="module")
def lr_max():
    return generate_sg(lr_expanded())


@st.composite
def reduction_paths(draw):
    """A list of indices selecting reductions along a random path."""
    return draw(st.lists(st.integers(min_value=0, max_value=10_000),
                         min_size=0, max_size=6))


def apply_path(sg, picks):
    """Apply a sequence of valid reductions chosen by the random indices."""
    current = sg
    trail = []
    for pick in picks:
        pairs = sorted(reducible_pairs(current))
        if not pairs:
            break
        before, delayed = pairs[pick % len(pairs)]
        result = forward_reduction(current, delayed, before)
        if result.valid:
            current = result.sg
            trail.append((before, delayed))
    return current, trail


class TestReductionPathProperties:
    @given(reduction_paths())
    @settings(max_examples=25, deadline=None)
    def test_invariants_along_any_path(self, lr_max, picks):
        reduced, trail = apply_path(lr_max, picks)
        assert is_consistent(reduced)
        assert is_commutative(reduced)
        assert is_output_persistent(reduced)
        assert reduced.initial == lr_max.initial

    @given(reduction_paths())
    @settings(max_examples=25, deadline=None)
    def test_states_and_arcs_shrink_monotonically(self, lr_max, picks):
        reduced, trail = apply_path(lr_max, picks)
        assert set(reduced.states) <= set(lr_max.states)
        assert set(reduced.arcs()) <= set(lr_max.arcs())
        if trail:
            assert reduced.arc_count() < lr_max.arc_count()

    @given(reduction_paths())
    @settings(max_examples=25, deadline=None)
    def test_no_event_ever_disappears(self, lr_max, picks):
        reduced, _ = apply_path(lr_max, picks)
        original = {label for _, label, _ in lr_max.arcs()}
        surviving = {label for _, label, _ in reduced.arcs()}
        assert surviving == original

    @given(reduction_paths())
    @settings(max_examples=25, deadline=None)
    def test_inputs_never_delayed(self, lr_max, picks):
        reduced, _ = apply_path(lr_max, picks)
        for state in reduced.states:
            original_inputs = {label for label in lr_max.enabled(state)
                               if lr_max.is_input_label(label)}
            surviving_inputs = {label for label in reduced.enabled(state)
                                if reduced.is_input_label(label)}
            assert surviving_inputs == original_inputs

    @given(reduction_paths())
    @settings(max_examples=15, deadline=None)
    def test_fast_estimate_is_sound(self, lr_max, picks):
        # The fast estimator may be off by a literal or two but must agree
        # with the exact one on which functions exist and never undercut a
        # *valid* exact cover (fast covers are valid SOPs too).
        reduced, _ = apply_path(lr_max, picks)
        fast = estimate_logic_complexity(reduced, fast=True)
        exact = estimate_logic_complexity(reduced, fast=False, exact=True)
        assert set(fast.per_signal_literals) == set(exact.per_signal_literals)
        assert fast.csc_conflict_codes == exact.csc_conflict_codes
        for signal, exact_literals in exact.per_signal_literals.items():
            assert fast.per_signal_literals[signal] >= exact_literals

    @given(reduction_paths())
    @settings(max_examples=15, deadline=None)
    def test_conflict_count_never_grows(self, lr_max, picks):
        reduced, _ = apply_path(lr_max, picks)
        assert len(csc_conflicts(reduced)) <= len(csc_conflicts(lr_max)) + 0
