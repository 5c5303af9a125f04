"""Unit tests for CSC state-signal insertion (repro.encoding)."""

import dataclasses
from itertools import product

import pytest

from insertion_oracle import reference_insert
from repro.encoding.csc import conflict_count, irresolvable_conflicts
from repro.encoding.insertion import (REJECTIONS, STYLES, _Index, _walk,
                                      enumerate_insertions, insert_state_signal,
                                      insertion_work, resolve_csc)
from repro.obs.metrics import registry as obs_registry
from repro.obs.trace import TraceRecorder, recording
from repro.petri.stg import SignalKind
from repro.pipeline.artifacts import sg_from_payload, sg_to_payload
from repro.sg.generator import generate_sg
from repro.sg.graph import StateGraph
from repro.sg.properties import (csc_conflicts, is_consistent,
                                 is_output_persistent)
from repro.specs import families
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import lr_expanded, q_module_stg


@pytest.fixture(scope="module")
def fig1():
    return generate_sg(fig1_stg())


@pytest.fixture(scope="module")
def q_module():
    return generate_sg(q_module_stg())


@pytest.fixture(scope="module")
def mmu_bl():
    # Its improving candidates cover both insertion styles.
    return _mmu_bl()


class TestConflictAnalysis:
    def test_counts(self, fig1):
        assert conflict_count(fig1) == 1

    def test_fig1_conflict_is_irresolvable(self, fig1):
        # Only input events (Req-; Req+) separate the two 11 states: no
        # internal signal can tell them apart without delaying an input.
        assert len(irresolvable_conflicts(fig1)) == 1

    def test_resolvable_conflicts_not_flagged(self, q_module):
        assert irresolvable_conflicts(q_module) == []

    @pytest.mark.parametrize("name", ["fig1", "q_module", "counter_4"])
    def test_matches_per_pair_search(self, name, request):
        sg = (generate_sg(families.counter(4), engine="packed")
              if name == "counter_4" else request.getfixturevalue(name))
        assert irresolvable_conflicts(sg) == _per_pair_irresolvable(sg)


def _per_pair_irresolvable(sg):
    """Reference: two input-only searches per conflict pair, in list order."""
    def input_reachable(source, target):
        frontier, seen = [source], {source}
        while frontier:
            state = frontier.pop()
            if state == target:
                return True
            for label, nxt in sg.successors(state).items():
                if sg.is_input_label(label) and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    return [c for c in csc_conflicts(sg)
            if input_reachable(c.state_a, c.state_b)
            or input_reachable(c.state_b, c.state_a)]


class TestInsertion:
    def test_fig1_resolution_fails_cleanly(self, fig1):
        # The conflict is irresolvable (see above): the search must report
        # failure rather than produce a bogus insertion.
        result = resolve_csc(fig1)
        assert not result.resolved
        assert result.signal_count == 0
        assert result.sg is fig1

    def test_resolved_sg_is_well_formed(self, q_module):
        result = resolve_csc(q_module)
        sg = result.sg
        assert result.resolved
        assert is_consistent(sg)
        assert is_output_persistent(sg)
        assert sg.kinds["csc0"] == SignalKind.INTERNAL

    def test_resolve_q_module(self, q_module):
        result = resolve_csc(q_module)
        assert result.resolved
        assert result.signal_count == 1

    def test_resolve_lr_max_needs_two_signals(self):
        sg = generate_sg(lr_expanded())
        result = resolve_csc(sg)
        assert result.resolved
        assert result.signal_count == 2  # Table 1, "Max. concurrency" row

    def test_already_clean_sg_untouched(self, q_module):
        clean = resolve_csc(q_module).sg
        again = resolve_csc(clean)
        assert again.resolved
        assert again.signal_count == 0
        assert again.sg is clean

    def test_threading_rejects_input_triggers(self, fig1):
        assert insert_state_signal(fig1, "Req+", "Ack-", "x") is None
        assert insert_state_signal(fig1, "Ack-", "Req-", "x") is None

    def test_threading_rejects_same_trigger(self, q_module):
        assert insert_state_signal(q_module, "lo+", "lo+", "x") is None

    def test_threading_rejects_unknown(self, q_module):
        assert insert_state_signal(q_module, "zz", "lo+", "x") is None

    def test_threading_initial_value_validated(self, q_module):
        with pytest.raises(ValueError):
            insert_state_signal(q_module, "lo+", "ro+", "x", initial_value=2)

    @pytest.mark.parametrize("rise, fall", [("lo+", "lo+"), ("zz", "lo+"),
                                            ("ri+", "lo+")],
                             ids=["equal", "unknown", "input"])
    def test_arguments_checked_before_feasibility(self, q_module, rise, fall):
        # Each trigger pair alone is infeasible for threading; bad arguments
        # must still raise rather than return None.
        assert insert_state_signal(q_module, rise, fall, "x") is None
        with pytest.raises(ValueError, match="style"):
            insert_state_signal(q_module, rise, fall, "x", style="serial")
        with pytest.raises(ValueError, match="initial_value"):
            insert_state_signal(q_module, rise, fall, "x", initial_value=2)
        with pytest.raises(ValueError, match="already declared"):
            insert_state_signal(q_module, rise, fall, "ri")

    def test_unknown_style_rejected(self, q_module):
        with pytest.raises(ValueError, match="style"):
            insert_state_signal(q_module, "ro+", "lo+", "x", style="serial")

    def test_declared_signal_rejected(self, q_module):
        with pytest.raises(ValueError, match="already declared"):
            insert_state_signal(q_module, "ro+", "lo+", "ri")

    def test_threading_extends_codes(self, q_module):
        candidate = insert_state_signal(q_module, "ro+", "lo+", "x")
        assert candidate is not None
        assert len(candidate.signals) == len(q_module.signals) + 1
        assert is_consistent(candidate)

    def test_sequencing_allows_input_triggers(self, q_module):
        candidate = insert_state_signal(q_module, "ri+", "li-", "x",
                                        style="sequencing")
        assert candidate is not None
        assert is_consistent(candidate)

    def test_sequencing_never_delays_inputs(self, q_module):
        candidate = insert_state_signal(q_module, "ri+", "li-", "x",
                                        style="sequencing")
        # Every state that enabled an input in the original enables it in
        # the extension (pending or not).
        for state in candidate.states:
            orig = state[0]
            for label in q_module.enabled(orig):
                if q_module.is_input_label(label):
                    assert candidate.target(state, label) is not None

    @pytest.mark.parametrize("style", STYLES)
    def test_product_bounded_by_four_phases(self, style, q_module):
        # (value, pending) takes only four combinations, so no candidate
        # outgrows 4x its parent and the search needs no state cap.  LR
        # builds no sequencing candidate (each one breaks persistency), so
        # the Q module is walked as well.
        phases = {(0, None), (1, None), (0, "+"), (1, "-")}
        built = 0
        for sg in (generate_sg(lr_expanded()), q_module):
            for rise in sg.labels():
                for fall in sg.labels():
                    for value in (0, 1):
                        candidate = insert_state_signal(sg, rise, fall, "csc0",
                                                        value, style)
                        if candidate is None:
                            continue
                        built += 1
                        assert len(candidate) <= 4 * len(sg)
                        assert ({state[1:] for state in candidate.states}
                                <= phases)
        assert built

    def test_sequencing_rejects_a_trigger_that_disables(self):
        # li+ fires while the output ro- is enabled; sequencing makes ro-
        # wait for the pending csc+, so li+ disables it (Definition 5.1).
        sg = generate_sg(lr_expanded())
        assert insert_state_signal(sg, "li+", "li-", "x", 0,
                                   "sequencing") is None

    def test_enumerate_checks_persistency_on_its_input_only(self, q_module,
                                                            monkeypatch):
        import repro.encoding.insertion as insertion
        checked = []
        real = insertion.persistency_violations
        monkeypatch.setattr(insertion, "persistency_violations",
                            lambda sg: checked.append(sg) or real(sg))
        assert enumerate_insertions(q_module, "x")
        assert checked == [q_module]

    def test_enumerate_orders_by_quality(self, q_module):
        candidates = enumerate_insertions(q_module, "x")
        assert candidates
        conflicts = [choice.conflicts_after for choice in candidates]
        assert conflicts == sorted(conflicts)

    def test_choice_rebuilds_its_candidate(self, mmu_bl):
        # A choice carries no graph; insert_state_signal builds the one it
        # names, and that graph has the choice's score.
        candidates = enumerate_insertions(mmu_bl, "x")
        assert {choice.style for choice in candidates} == set(STYLES)
        for choice in candidates:
            rebuilt = insert_state_signal(
                mmu_bl, choice.rise_trigger, choice.fall_trigger,
                choice.signal, choice.initial_value, choice.style)
            assert (conflict_count(rebuilt), len(rebuilt)) == (
                choice.conflicts_after, choice.states_after)

    def test_inserted_signal_participates_in_logic(self, q_module):
        from repro.logic.functions import extract_all_functions
        result = resolve_csc(q_module)
        functions = extract_all_functions(result.sg)
        assert "csc0" in functions
        assert all(not f.has_csc_conflict for f in functions.values())

    def test_resolve_again_names_a_fresh_signal(self):
        # A graph that already has csc0 gets csc1, not a second csc0 bit.
        sg = generate_sg(lr_expanded())
        first = resolve_csc(sg, max_signals=1)
        assert [c.signal for c in first.insertions] == ["csc0"]
        again = resolve_csc(first.sg, max_signals=1)
        assert [c.signal for c in again.insertions] == ["csc1"]
        assert again.sg.signals == first.sg.signals + ["csc1"]
        assert (again.insertions[0].conflicts_after
                < first.insertions[0].conflicts_after)

    def test_resolve_skips_a_spec_signal_named_like_csc(self, q_module):
        # The spec's own input "csc0" keeps its kind; the new signal is csc1.
        payload = sg_to_payload(q_module)
        labels = {label: label.replace("ri", "csc0", 1)
                  for label, signal, _, __ in payload["events"]
                  if signal == "ri"}
        payload["signals"] = [["csc0" if name == "ri" else name, kind]
                              for name, kind in payload["signals"]]
        payload["events"] = [[labels.get(label, label),
                              "csc0" if signal == "ri" else signal, *rest]
                             for label, signal, *rest in payload["events"]]
        payload["arcs"] = [[source, labels.get(label, label), target]
                           for source, label, target in payload["arcs"]]
        renamed = sg_from_payload(payload)
        assert renamed.kinds["csc0"] == SignalKind.INPUT
        result = resolve_csc(renamed)
        assert result.resolved
        assert [c.signal for c in result.insertions] == ["csc1"]
        assert result.sg.kinds["csc0"] == SignalKind.INPUT


def _mmu_bl():
    from repro.reduction.explore import full_reduction
    from repro.specs.mmu import keep_conc_for, mmu_expanded
    return full_reduction(generate_sg(mmu_expanded()),
                          keep_conc=keep_conc_for(("b", "l")), size_frontier=3)


def _arbiter():
    # r+ lets the outputs a+ and b+ race and the one that fires disables the
    # other, so the input itself breaks output persistency; s1 and s4 share
    # the code 100 but only s1 excites outputs.
    sg = StateGraph("arbiter")
    for name, kind in (("r", SignalKind.INPUT), ("a", SignalKind.OUTPUT),
                       ("b", SignalKind.OUTPUT)):
        sg.declare_signal(name, kind)
    for label in ("r+", "r-", "a+", "a-", "b+", "b-"):
        sg.declare_event(label)
    for state, code in (("s0", (0, 0, 0)), ("s1", (1, 0, 0)),
                        ("s2", (1, 1, 0)), ("s3", (1, 0, 1)),
                        ("s4", (1, 0, 0))):
        sg.add_state(state, code)
    for arc in (("s0", "r+", "s1"), ("s1", "a+", "s2"), ("s1", "b+", "s3"),
                ("s2", "a-", "s4"), ("s3", "b-", "s4"), ("s4", "r-", "s0")):
        sg.add_arc(*arc)
    return sg


def _random_coded(seed):
    from repro.specs.generate.random import generate_spec
    return lambda: generate_sg(generate_spec(seed).build())


#: Oracle inputs: the paper's small cases and seeded generator specs with
#: CSC conflicts and at most ~100 states.
ORACLE_INPUTS = {
    "fig1": lambda: generate_sg(fig1_stg()),
    "q_module": lambda: generate_sg(q_module_stg()),
    "lr": lambda: generate_sg(lr_expanded()),
    "mmu_bl": _mmu_bl,
    "arbiter": _arbiter,
    **{f"random/{seed}": _random_coded(seed)
       for seed in (2, 3, 6, 10, 11, 12)},
}


class TestScoringOracle:
    @pytest.mark.parametrize("name", sorted(ORACLE_INPUTS))
    def test_scores_match_built_graphs(self, name):
        # Every candidate, dead triggers included: the score-only walk
        # rejects exactly what insert_state_signal and the graph-building
        # reference reject, and otherwise scores the conflicts and states of
        # the graph both of them build.
        sg = ORACLE_INPUTS[name]()
        index = _Index(sg)
        events = sorted(sg.events)
        feasible = 0
        for style, rise, fall, value in product(STYLES, events, events,
                                                (0, 1)):
            scored = _walk(index, style, rise, fall, value)
            built = insert_state_signal(sg, rise, fall, "csc_new", value,
                                        style)
            expected = reference_insert(sg, rise, fall, "csc_new", value,
                                        style)
            candidate = (style, rise, fall, value)
            assert (built is None) == (expected is None), candidate
            if built is None:
                assert scored in REJECTIONS, candidate
                continue
            feasible += 1
            assert sg_to_payload(built) == sg_to_payload(expected), candidate
            assert scored == (conflict_count(built), len(built)), candidate
        assert feasible


def _rejected():
    reg = obs_registry()
    return {reason: reg.value("repro_insertion_rejected_total",
                              reason=reason) or 0 for reason in REJECTIONS}


class TestWork:
    def test_walks_are_feasible_or_rejected(self, q_module, mmu_bl):
        for sg in (q_module, mmu_bl):
            work, rejected = insertion_work(), _rejected()
            enumerate_insertions(sg, "x")
            done, now = insertion_work(), _rejected()
            walks = done["walks"] - work["walks"]
            feasible = done["feasible"] - work["feasible"]
            by_reason = {reason: now[reason] - rejected[reason]
                         for reason in REJECTIONS}
            assert walks == feasible + sum(by_reason.values())
            assert walks and feasible and by_reason["trigger"]
            assert done["built"] == work["built"]  # scoring builds nothing

    def test_resolve_builds_only_the_beam(self):
        # Each level builds at most the beam it extends, and one graph is
        # built for the result.
        from repro.encoding.insertion import _BEAM_WIDTH
        sg = generate_sg(lr_expanded())
        before = insertion_work()
        result = resolve_csc(sg)
        work = {key: value - before[key]
                for key, value in insertion_work().items()}
        assert result.resolved and work["levels"] == 2
        assert 1 <= work["built"] <= _BEAM_WIDTH * (work["levels"] - 1) + 1

    def test_tracing_never_changes_resolve(self):
        def resolve_bytes(sg):
            result = resolve_csc(sg, max_signals=2)
            return repr((sg_to_payload(result.sg),
                         [dataclasses.asdict(c) for c in result.insertions],
                         result.resolved))

        sg = generate_sg(lr_expanded())
        untraced = resolve_bytes(sg)
        recorder = TraceRecorder()
        with recording(recorder):
            traced = resolve_bytes(sg)
        assert traced == untraced
        levels = [span for span in recorder.roots
                  if span.name == "resolve:level"]
        assert [span.attrs["level"] for span in levels] == [0, 1]
        for span in levels:
            assert {"walks", "feasible", "improving", "built"} <= set(
                span.attrs)
            assert span.attrs["walks"] >= span.attrs["feasible"]
