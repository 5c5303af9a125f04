"""Unit tests for the shared exploration core (repro.explore)."""

import json
from collections import deque
from pathlib import Path

import pytest

from repro.explore import (BudgetExceedance, BudgetExceeded, BudgetMeter,
                           ExplorationBudget, ExplorationRun,
                           ample_internal_moves, explore_packed,
                           explore_tuples, minimal_trace, stubborn_reducer)
from repro.hse.expansion import expand
from repro.petri.net import PetriNet
from repro.petri.stg import STG, Direction, SignalKind
from repro.pipeline.hashing import digest_payload
from repro.sg.generator import GenerationBudgetError, StateGraphError, \
    generate_sg
from repro.specs import suite
from repro.specs.families import (fifo_chain, load_family,
                                  micropipeline_chain)
from repro.specs.lr import lr_expanded, lr_spec
from repro.specs.registry import load_spec, spec_names

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_frontier.json"


def _nets():
    stgs = {name: suite.load(name) for name in suite.suite_names()}
    stgs["lr"] = lr_expanded()
    stgs["fifo_chain_3"] = fifo_chain(3)
    stgs["micropipeline_chain_2"] = micropipeline_chain(2)
    return {name: stg.net for name, stg in stgs.items()}


class TestEngineEquivalence:
    """explore_packed and explore_tuples must describe the same graph."""

    def test_same_states_arcs_levels(self):
        for name, net in _nets().items():
            packed = net.compile_packed()
            assert packed is not None, name
            vec = explore_packed(packed)
            seq = explore_tuples(net)
            assert len(vec.states) == len(seq.states), name
            assert len(vec.arcs) == len(seq.arcs), name
            assert vec.levels == seq.levels, name

    def test_same_marking_and_arc_sets(self):
        # Orders differ (transition-major vs state-major); the *sets*
        # of reachable markings and labelled arcs must not.
        for name, net in _nets().items():
            packed = net.compile_packed()
            vec = explore_packed(packed)
            seq = explore_tuples(net)
            vec_markings = [packed.unpack(row) for row in vec.states]
            assert set(vec_markings) == set(seq.states), name
            names = net.transition_names

            def arc_set(run, markings):
                return {(markings[s], names[t], markings[d])
                        for s, t, d in run.arcs}

            assert (arc_set(vec, vec_markings)
                    == arc_set(seq, seq.states)), name

    def test_initial_state_first(self):
        for name, net in _nets().items():
            packed = net.compile_packed()
            vec = explore_packed(packed)
            seq = explore_tuples(net)
            assert packed.unpack(vec.states[0]) == seq.states[0], name


class TestExplorationBudget:
    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            ExplorationBudget(max_states=-1)
        with pytest.raises(ValueError):
            ExplorationBudget(max_arcs=-2)
        with pytest.raises(ValueError):
            ExplorationBudget(max_seconds=-0.5)

    def test_meter_admits_exactly_the_budget(self):
        meter = ExplorationBudget(max_states=3).meter()
        for _ in range(3):
            meter.admit_state()
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.admit_state()
        exceedance = excinfo.value.exceedance
        assert exceedance.resource == "states"
        assert exceedance.limit == 3
        assert exceedance.states == 3

    def test_meter_charges_arcs(self):
        meter = ExplorationBudget(max_arcs=5).meter()
        meter.charge_arc(5)
        with pytest.raises(BudgetExceeded) as excinfo:
            meter.charge_arc()
        assert excinfo.value.exceedance.resource == "arcs"

    def test_states_exhausted_precheck(self):
        meter = ExplorationBudget(max_states=2).meter()
        assert not meter.states_exhausted()
        meter.admit_state()
        meter.admit_state()
        assert meter.states_exhausted()
        assert meter.states_exhausted(admitted=1) is False
        assert ExplorationBudget().meter().states_exhausted() is False

    def test_describe_wording(self):
        exceedance = BudgetExceedance("states", 10, 10, 40)
        assert exceedance.describe("product") == "product exceeded 10 states"
        clock = BudgetExceedance("seconds", 1.5, 7, 20)
        assert clock.describe() == "exploration exceeded 1.5s wall clock"


class TestGenerationBudget:
    """generate_sg budget semantics: exact fit passes, one less raises."""

    def test_exact_budget_fits(self):
        stg = suite.load("vme_read")
        full = generate_sg(stg)
        sized = generate_sg(stg, budget=ExplorationBudget(
            max_states=len(full)))
        assert len(sized) == len(full)
        assert set(sized.arcs()) == set(full.arcs())

    def test_one_state_short_raises(self):
        stg = suite.load("vme_read")
        n = len(generate_sg(stg))
        with pytest.raises(GenerationBudgetError) as excinfo:
            generate_sg(stg, budget=ExplorationBudget(max_states=n - 1))
        exceedance = excinfo.value.exceedance
        assert exceedance.resource == "states"
        assert exceedance.states == n - 1

    def test_error_is_both_kinds(self):
        stg = suite.load("half")
        with pytest.raises(StateGraphError):
            generate_sg(stg, budget=ExplorationBudget(max_states=1))
        with pytest.raises(BudgetExceeded):
            generate_sg(stg, budget=ExplorationBudget(max_states=1))

    def test_arc_budget(self):
        stg = suite.load("half")
        full = generate_sg(stg)
        assert len(generate_sg(stg, budget=ExplorationBudget(
            max_arcs=full.arc_count()))) == len(full)
        with pytest.raises(GenerationBudgetError) as excinfo:
            generate_sg(stg, budget=ExplorationBudget(
                max_arcs=full.arc_count() - 1))
        assert excinfo.value.exceedance.resource == "arcs"

    @pytest.mark.parametrize("two_phase", [
        lambda: expand(lr_spec(), phases=2), lambda: toggle_ring()])
    def test_arc_budget_bounds_unfolding(self, two_phase):
        stg = two_phase()
        full = generate_sg(stg)
        assert len(generate_sg(stg, budget=ExplorationBudget(
            max_arcs=full.arc_count()))) == len(full)
        with pytest.raises(GenerationBudgetError) as excinfo:
            generate_sg(stg, budget=ExplorationBudget(
                max_arcs=full.arc_count() - 1))
        exceedance = excinfo.value.exceedance
        assert exceedance.resource == "arcs"
        assert exceedance.arcs == full.arc_count() - 1


class TestConformanceBudget:
    def test_state_limit_verdict(self):
        from repro.pipeline import FlowConfig, run_pipeline
        from repro.verify import check_conformance

        sg = generate_sg(suite.load("vme_read"))
        result = run_pipeline(FlowConfig(strategy="full"), initial_sg=sg,
                              name="vme_read/full")
        report = check_conformance(result.circuit().netlist,
                                   result.resolved_sg(), max_states=3,
                                   name="vme_read/full")
        assert report.verdict == "state-limit"
        assert report.reason == "product exceeded 3 states"
        assert not report.ok


class TestStubbornReduction:
    def test_reduced_markings_subset_of_full(self):
        for name, net in _nets().items():
            packed = net.compile_packed()
            full = explore_packed(packed)
            reduced = explore_packed(packed,
                                     reducer=stubborn_reducer(packed))
            assert 0 < len(reduced.states) <= len(full.states), name
            assert set(reduced.states) <= set(full.states), name

    def test_generate_sg_stubborn_subset(self):
        stg = suite.load("micropipeline")
        full = generate_sg(stg)
        reduced = generate_sg(stg, stubborn=True)
        assert set(reduced.states) <= set(full.states)
        assert reduced.initial == full.initial

    def test_deadlocks_preserved(self):
        # A net with a genuine deadlock: two handshakes race for one
        # shared token; grabbing both halves out of order gets stuck.
        net = PetriNet("deadlocky")
        for place, tokens in (("free", 1), ("wa", 1), ("wb", 1),
                              ("ga", 0), ("gb", 0)):
            net.add_place(place, tokens=tokens)
        net.add_transition("ta")
        net.add_arc("free", "ta")
        net.add_arc("wa", "ta")
        net.add_arc("ta", "ga")
        net.add_transition("tb")
        net.add_arc("free", "tb")
        net.add_arc("wb", "tb")
        net.add_arc("tb", "gb")
        packed = net.compile_packed()
        assert packed is not None

        def deadlocks(run):
            sources = {source for source, _, _ in run.arcs}
            return {run.states[i] for i in range(len(run.states))
                    if i not in sources}

        full = explore_packed(packed)
        reduced = explore_packed(packed, reducer=stubborn_reducer(packed))
        assert deadlocks(full)
        assert deadlocks(reduced) == deadlocks(full)

    def test_off_is_byte_identical(self):
        from repro.pipeline.artifacts import sg_to_payload
        from repro.pipeline.hashing import digest_payload

        stg = suite.load("fifo_cell")
        assert (digest_payload(sg_to_payload(generate_sg(stg)))
                == digest_payload(sg_to_payload(
                    generate_sg(stg, stubborn=False))))


class TestAmpleInternalMoves:
    def test_first_invisible_move_wins(self):
        moves = ["visible-a", "hidden-1", "hidden-2", "visible-b"]
        kept = ample_internal_moves(moves, lambda m: m.startswith("hidden"))
        assert kept == ["hidden-1"]

    def test_all_visible_untouched(self):
        moves = ("alpha", "beta")
        assert ample_internal_moves(moves, lambda m: False) == ["alpha",
                                                               "beta"]


class TestMinimalTrace:
    def test_shortest_path_reconstruction(self):
        parents = {"s0": None, "s1": ("s0", "a+"), "s2": ("s1", "b+")}
        assert minimal_trace(parents, "s2") == ["a+", "b+"]
        assert minimal_trace(parents, "s0") == []

    def test_final_step_appended(self):
        parents = {"s0": None, "s1": ("s0", "a+")}
        assert minimal_trace(parents, "s1", final_step="x-") == ["a+", "x-"]


def toggle_ring():
    """Two toggle signals in a ring: 2 markings x 2 phases = 4 states."""
    stg = STG("toggle_ring")
    stg.declare_signal("a", SignalKind.OUTPUT)
    stg.declare_signal("b", SignalKind.OUTPUT)
    stg.add_event("a~")
    stg.add_event("b~")
    stg.cycle("a~", "b~")
    stg.mark("<b~,a~>")
    return stg


def golden_inputs():
    """``{name: STG}``: registry specs, seeded family members, 2-phase."""
    stgs = {f"registry/{name}": load_spec(name) for name in spec_names()}
    for member in ("fifo_chain_3_s1", "fifo_chain_4_s2",
                   "micropipeline_chain_2_s1", "micropipeline_chain_3_s2",
                   "counter_3_s1", "counter_4_s2"):
        stgs[f"family/{member}"] = load_family(member)
    stgs["2-phase/lr"] = expand(lr_spec(), phases=2)
    stgs["2-phase/toggle_ring"] = toggle_ring()
    return stgs


def _net_runs(net):
    """``{mode: run(budget)}`` for the net reachability modes."""
    packed = net.compile_packed()
    return {
        "packed": lambda budget: explore_packed(packed, budget=budget),
        "stubborn": lambda budget: explore_packed(
            packed, budget=budget, reducer=stubborn_reducer(packed)),
        "tuples": lambda budget: explore_tuples(net, budget=budget),
    }


def _unfolded_run(stg, budget):
    """The 2-phase unfolding's run, read off the generated graph.

    The graph keeps states in admission order and each state's arcs in
    traversal order, which for a state-major expansion is the global
    traversal order too; a state carries its code, and ``levels`` is the
    BFS depth plus one, as the level loop counts it.
    """
    sg = generate_sg(stg, budget=budget)
    index = {state: i for i, state in enumerate(sg.states)}
    names = stg.net.transition_names
    arcs = [(index[s], names.index(label), index[d])
            for s, label, d in sg.arcs()]
    depth = {sg.initial: 0}
    queue = deque([sg.initial])
    while queue:
        state = queue.popleft()
        for target in sg.successors(state).values():
            if target not in depth:
                depth[target] = depth[state] + 1
                queue.append(target)
    states = [[state, sg.code_of(state)] for state in sg.states]
    return ExplorationRun(states, arcs, max(depth.values()) + 1)


def _mode_entry(explore):
    """Digest of one mode's full run plus its exceedance at half size."""
    run = explore(None)
    with pytest.raises(BudgetExceeded) as excinfo:
        explore(ExplorationBudget(max_states=len(run.states) // 2))
    exceeded = excinfo.value.exceedance
    return {"digest": digest_payload([run.states, run.arcs, run.levels]),
            "states": len(run.states), "arcs": len(run.arcs),
            "levels": run.levels,
            "exceedance": [exceeded.resource, exceeded.limit,
                           exceeded.states, exceeded.arcs, exceeded.level]}


def frontier_digests():
    """The golden file's content, recomputed from the current code."""
    golden = {}
    for name, stg in sorted(golden_inputs().items()):
        entry = {mode: _mode_entry(explore)
                 for mode, explore in _net_runs(stg.net).items()}
        if any(event.direction == Direction.TOGGLE
               for event in map(stg.event_of, stg.net.transition_names)):
            entry["unfolded"] = _mode_entry(
                lambda budget: _unfolded_run(stg, budget))
        golden[name] = entry
    return golden


class TestGoldenFrontier:
    """Byte pins on every generation mode of the shared level loop.

    ``tests/data/golden_frontier.json`` was recorded from the code that
    still had one level loop per mode.  The one deliberate change since:
    the unfolding's exceedance ``arcs``, 0 there, is the charged count.
    """

    def test_matches_golden(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert frontier_digests() == golden
