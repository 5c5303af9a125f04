"""Unit tests for forward reduction and validity (repro.reduction)."""

import collections
import heapq
import itertools
import json
import random
from pathlib import Path

import pytest

from cost_oracle import breakdown
from repro.reduction.cost import CostFunction
from repro.reduction.fwdred import (Config, ReductionError,
                                    ReductionResult, ReductionSpace,
                                    forward_reduction, reducible_pairs)
from repro.reduction.validity import check_validity
from repro.sg.generator import generate_sg
from repro.petri.stg import SignalKind
from repro.sg.graph import StateGraph
from repro.sg.properties import (is_commutative, is_consistent,
                                 is_output_persistent)
from repro.sg.regions import are_concurrent, excitation_region
from repro.specs import mmu, par, suite
from repro.specs.fig1 import fig1_stg
from repro.specs.fragments import fig8_sg
from repro.specs.generate import generate_spec, spec_seed
from repro.specs.lr import lr_expanded
from sg_oracle import backward_reachable, concurrent_pairs


class TestFig8:
    """The paper's own worked example of FwdRed (Fig. 8)."""

    def test_fragment_structure(self):
        sg = fig8_sg()
        assert len(sg) == 10
        assert excitation_region(sg, "a") == {"s1", "s3", "s5", "s7"}
        assert excitation_region(sg, "b") == {"s5", "s6"}

    def test_fwdred_a_b(self):
        sg = fig8_sg()
        result = forward_reduction(sg, "a", "b")
        assert result.valid
        reduced = result.sg
        # ER_red(a) = {s7}: the backward reachability from ER(a) /\ ER(b)
        # = {s5} sweeps s3 and s1 inside ER(a).
        assert excitation_region(reduced, "a") == {"s7"}
        # States only reachable through removed arcs disappear.
        for gone in ("s2", "s4", "s6"):
            assert gone not in reduced
        for kept in ("s0", "s1", "s3", "s5", "s7", "s8", "t1"):
            assert kept in reduced

    def test_fwdred_a_b_kills_other_concurrency(self):
        # The paper: reducing (a, b) also removes concurrency of a with d
        # and e, because of the backward sweep.
        reduced = forward_reduction(fig8_sg(), "a", "b").sg
        for other in ("b", "d", "e"):
            assert not are_concurrent(reduced, "a", other)

    def test_fwdred_against_non_concurrent_event(self):
        result = forward_reduction(fig8_sg(), "a", "c")
        assert not result.valid
        assert "not concurrent" in result.reason

    def test_fwdred_same_event_rejected(self):
        with pytest.raises(ReductionError):
            forward_reduction(fig8_sg(), "a", "a")

    def test_fwdred_unknown_event_rejected(self):
        with pytest.raises(ReductionError):
            forward_reduction(fig8_sg(), "zz", "a")

    def test_fwdred_reports_removals(self):
        result = forward_reduction(fig8_sg(), "a", "b")
        assert result.removed_arcs == 3  # arcs from s1, s3, s5
        assert result.removed_states == 3  # s2, s4, s6


class TestValidityRules:
    def test_input_event_cannot_be_delayed(self):
        sg = generate_sg(fig1_stg())
        result = forward_reduction(sg, "Req+", "Ack-")
        assert not result.valid
        assert "input" in result.reason

    def test_output_delayed_by_input_ok(self):
        sg = generate_sg(fig1_stg())
        result = forward_reduction(sg, "Ack-", "Req+")
        assert result.valid
        assert not are_concurrent(result.sg, "Ack-", "Req+")

    def test_fig1_reduction_shrinks_but_keeps_conflict(self):
        # The only reducible pair of Fig. 1 is (Ack-, Req+); serializing it
        # removes a state but the code 11 still appears twice -- Fig. 1's
        # conflict is an encoding problem, not a concurrency problem.
        from repro.sg.properties import csc_conflicts
        sg = generate_sg(fig1_stg())
        reduced = forward_reduction(sg, "Ack-", "Req+").sg
        assert len(reduced) == len(sg) - 1
        assert len(csc_conflicts(reduced)) == 1

    def test_reduction_preserves_si_and_consistency(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if not result.valid:
                continue
            assert is_consistent(result.sg), (before, delayed)
            assert is_commutative(result.sg), (before, delayed)
            assert is_output_persistent(result.sg), (before, delayed)

    def test_reduction_is_monotone_on_arcs(self):
        sg = generate_sg(lr_expanded())
        original_arcs = set(sg.arcs())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                assert set(result.sg.arcs()) < original_arcs

    def test_no_events_disappear(self):
        sg = generate_sg(lr_expanded())
        original_events = {label for _, label, _ in sg.arcs()}
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                reduced_events = {label for _, label, _ in result.sg.arcs()}
                assert reduced_events == original_events

    def test_initial_state_preserved(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in sorted(reducible_pairs(sg)):
            result = forward_reduction(sg, delayed, before)
            if result.valid:
                assert result.sg.initial == sg.initial


class TestReduciblePairs:
    def test_no_input_delays_offered(self):
        sg = generate_sg(lr_expanded())
        for before, delayed in reducible_pairs(sg):
            assert not sg.is_input_label(delayed)

    def test_keep_conc_filters(self):
        sg = generate_sg(lr_expanded())
        all_pairs = reducible_pairs(sg)
        kept = frozenset({frozenset(("li-", "ro-"))})
        filtered = reducible_pairs(sg, kept)
        assert ("li-", "ro-") not in filtered
        assert filtered < all_pairs

    def test_pairs_come_from_concurrency(self):
        sg = generate_sg(lr_expanded())
        conc = concurrent_pairs(sg)
        for before, delayed in reducible_pairs(sg):
            assert tuple(sorted((before, delayed))) in conc


def _rebuild(sg, drop=(), initial=None):
    """A fresh graph with ``sg``'s states and codes, minus the ``drop`` arcs.

    Unlike ``copy_without_arcs`` it keeps states the removal strands, so
    each check below sees exactly one defect.
    """
    drop = set(drop)
    out = StateGraph(sg.name)
    for signal in sg.signals:
        out.declare_signal(signal, sg.kinds[signal])
    for label, event in sg.events.items():
        out.declare_event(label, event)
    for state in sg.states:
        out.add_state(state, sg.codes.get(state))
    out.initial = sg.initial if initial is None else initial
    for source, label, target in sg.arcs():
        if (source, label) not in drop:
            out.add_arc(source, label, target)
    return out


class TestCheckValidity:
    def test_identical_graphs_valid(self):
        sg = generate_sg(fig1_stg())
        assert check_validity(sg, _rebuild(sg)).valid

    def test_lost_event_detected(self):
        sg = generate_sg(fig1_stg())
        reduced = _rebuild(sg, [(state, "Ack-") for state in sg.states
                                if sg.target(state, "Ack-") is not None])
        report = check_validity(sg, reduced)
        assert not report.valid
        assert any("disappeared" in reason for reason in report.reasons)

    def test_new_deadlock_detected(self):
        sg = generate_sg(fig1_stg())
        state = next(s for s in sg.states if set(sg.enabled(s)) == {"Req+"})
        report = check_validity(sg, _rebuild(sg, [(state, "Req+")]))
        assert not report.valid

    def test_changed_initial_detected(self):
        sg = generate_sg(fig1_stg())
        other = next(s for s in sg.states if s != sg.initial)
        report = check_validity(sg, _rebuild(sg, initial=other))
        assert not report.valid
        assert any("initial" in reason for reason in report.reasons)

    def test_delayed_input_detected(self):
        sg = generate_sg(fig1_stg())
        state = next(s for s in sg.states
                     if sg.target(s, "Req+") is not None
                     and len(sg.enabled(s)) == 2)
        report = check_validity(sg, _rebuild(sg, [(state, "Req+")]))
        assert not report.valid
        assert any("delayed" in reason for reason in report.reasons)


def _oracle_walk(root, expansions, cost=None):
    """Best-first over FwdRed children, checking every step on the way.

    For each expanded configuration, the mask ``reducible`` and
    ``concurrent`` are compared against :func:`concurrent_pairs` on the
    materialized graph, which reads no diamond table.  For each reducible
    pair, the mask step is compared against the graph-level definitions:
    the truncated set from :func:`excitation_region` and
    :func:`backward_reachable`, the unvalidated child from
    ``copy_without_arcs``, and its verdict from :func:`check_validity`;
    a valid child's ``concurrent`` on the pair is compared against
    :func:`are_concurrent` on its graph.
    ``cost`` orders the search (default: the heuristic
    :class:`CostFunction`, measured on the graph).  Returns the verdicts seen: ``valid`` or the
    first word of each reason.
    """
    cost = cost or (lambda sg: breakdown(CostFunction(), sg).value)
    space = ReductionSpace(root)
    heap = [(cost(root), 0, space.root)]
    expanded = set()
    verdicts = collections.Counter()
    counter = 0
    while heap and len(expanded) < expansions:
        _, _, config = heapq.heappop(heap)
        if config.mask in expanded:
            continue
        expanded.add(config.mask)
        parent = (root if config.mask == space.root.mask
                  else space.materialize(root, config))
        view = space.view(config)
        pairs = space.reducible(config)
        concurrent = concurrent_pairs(parent)
        assert pairs == {(before, delayed)
                         for pair in concurrent
                         for before, delayed in (pair, pair[::-1])
                         if not parent.is_input_label(delayed)}
        assert {pair for pair in itertools.combinations(sorted(root.events), 2)
                if space.concurrent(config, *pair)} == concurrent
        for before, delayed in sorted(pairs):
            region = excitation_region(parent, delayed)
            both = region & excitation_region(parent, before)
            truncated = backward_reachable(parent, both, within=region) | both
            removed = [(state, delayed) for state in truncated]
            unvalidated = parent.copy_without_arcs(removed)
            report = check_validity(parent, unvalidated)
            assert not any("persistency" in reason
                           for reason in report.reasons), report
            step = space.step(view, space.label_index[delayed],
                              space.label_index[before])
            assert (step.child is not None) == report.valid, (
                root.name, before, delayed, report, step.reason)
            # The unvalidated child as a hint: taken, without the walk,
            # exactly when the step is valid.
            hinted = space.step(view, space.label_index[delayed],
                                space.label_index[before],
                                _as_config(space, unvalidated))
            assert hinted.walked == (step.walked and step.child is None)
            assert _masks(hinted.child) == _masks(step.child)
            assert hinted.reason == step.reason
            if step.child is None:
                verdicts.update(reason.split()[0] for reason in report.reasons)
                continue
            verdicts["valid"] += 1
            expected = parent.copy_without_arcs(
                removed, reachable=set(unvalidated.states))
            child = space.materialize(root, step.child)
            assert (space.concurrent(step.child, before, delayed)
                    == are_concurrent(child, before, delayed))
            assert child.signature() == expected.signature()
            assert child.states == expected.states
            assert list(child.arcs()) == list(expected.arcs())
            if step.child.mask not in expanded:
                counter += 1
                heapq.heappush(heap, (cost(child), counter, step.child))
    return verdicts


def _as_config(space, graph):
    """``graph``, a subgraph of ``space``'s root, as a :class:`Config`."""
    ids, out = space.sg.state_id, space.out
    mask = reach = 0
    for state in graph.states:
        reach |= 1 << ids[state]
    for source, label, _ in graph.arcs():
        mask |= 1 << out[ids[source]][space.label_index[label]][0]
    return Config(mask, reach)


def _masks(config):
    """A step result's ``(mask, reach, out-arc mask)``, or None."""
    return config and (config.mask, config.reach, config.arcs)


def _random_graph(seed, states=10):
    """A seeded deterministic LTS over signal events, rich in diamonds.

    Real specs almost never offer an invalid FwdRed, so these graphs are
    what exercise the lost-event and new-deadlock verdicts.
    """
    rng = random.Random(seed)
    sg = StateGraph(f"random{seed}")
    for signal in "abcd":
        sg.declare_signal(signal, SignalKind.OUTPUT)
    sg.declare_signal("x", SignalKind.INPUT)
    labels = [f"{signal}{sign}" for signal in "abcdx" for sign in "+-"]
    for label in labels:
        sg.declare_event(label)
    arcs = {}
    for _ in range(3):  # diamonds, the shape FwdRed needs
        first, second = rng.sample(labels, 2)
        s, u, v, w = (rng.randrange(states) for _ in range(4))
        for source, label, target in ((s, first, u), (s, second, v),
                                      (u, second, w), (v, first, w)):
            arcs.setdefault((source, label), target)
    for _ in range(2 * states):
        arcs.setdefault((rng.randrange(states), rng.choice(labels)),
                        rng.randrange(states))
    for state in range(states):
        sg.add_state(state)
    for (source, label), target in sorted(arcs.items()):
        sg.add_arc(source, label, target)
    return sg


def _deadlock_sg():
    """FwdRed(a+, b+) leaves ``p`` with no arc and loses no event.

    ``p --a+--> s0`` puts ``p`` in the backward sweep from ER(a+) /\
    ER(b+) = {s0}, and ``a+`` is all ``p`` enables.
    """
    sg = StateGraph("deadlock")
    for signal in "abc":
        sg.declare_signal(signal, SignalKind.OUTPUT)
    for label in ("a+", "b+", "c+"):
        sg.declare_event(label)
    for source, label, target in (("s0", "a+", "s1"), ("s0", "b+", "s2"),
                                  ("s1", "b+", "s3"), ("s2", "a+", "s3"),
                                  ("s3", "c+", "p"), ("p", "a+", "s0")):
        sg.add_arc(source, label, target)
    return sg


_ORACLE_ROOTS = {
    "lr": lambda: generate_sg(lr_expanded()),
    "fig1": lambda: generate_sg(fig1_stg()),
    **{name: (lambda name=name: generate_sg(suite.load(name)))
       for name in suite.suite_names()},
}


class TestMaskOracle:
    """The mask-based FwdRed step against the paper's definitions."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_ROOTS))
    def test_small_specs(self, name):
        _oracle_walk(_ORACLE_ROOTS[name](), expansions=50)

    def test_par(self):
        assert _oracle_walk(generate_sg(par.par_expanded()), expansions=50)

    def test_mmu(self):
        assert _oracle_walk(generate_sg(mmu.mmu_expanded()), expansions=50)

    def test_generated_specs(self):
        # The walk costs a check_validity per step, so it keeps to the
        # first 20 seeded specs under 200 states and 20 expansions each.
        roots = (generate_sg(generate_spec(spec_seed(7, index)).build())
                 for index in range(100))
        small = list(itertools.islice(
            (root for root in roots if len(root) < 200), 20))
        assert len(small) == 20
        assert sum(sum(_oracle_walk(root, expansions=20).values())
                   for root in small)

    def test_random_graphs(self):
        verdicts = collections.Counter()
        for seed in range(60):
            verdicts += _oracle_walk(_random_graph(seed), expansions=10,
                                     cost=len)
        for verdict in ("valid", "events", "new"):
            assert verdicts[verdict] > 0, verdicts

    def test_new_deadlock_alone_rejects(self):
        sg = _deadlock_sg()
        result = forward_reduction(sg, "a+", "b+")
        assert not result.valid
        assert result.reason == "new deadlock at state 'p'"
        # FwdRed(b+, a+) is the other pair, and valid.
        assert _oracle_walk(sg, expansions=1, cost=len) == {"new": 1,
                                                            "valid": 1}

    def test_diamond_needs_all_four_arcs(self):
        # FwdRed's backward closure removes a diamond's opening arc along
        # with its closing one, so searches never drop a closing arc
        # alone; a hand-made mask does, and the pair is not concurrent.
        space = ReductionSpace(_deadlock_sg())
        root = space.root
        ((diamond,),) = space.diamonds.values()
        assert diamond.bit_count() == 4
        assert space.concurrent(root, "a+", "b+")
        assert space.reducible(root) == {("a+", "b+"), ("b+", "a+")}
        for arc in range(root.mask.bit_length()):
            if diamond >> arc & 1:
                config = Config(root.mask & ~(1 << arc), root.reach)
                assert not space.concurrent(config, "b+", "a+"), arc
                assert space.reducible(config) == set(), arc

    def test_fig8_persistency_witness_is_truncated(self):
        # The dropped persistency scan: a predecessor s --b--> t of a
        # truncated t that enables ``a`` lies in ER(a) and reaches t
        # inside it, so it is truncated too.
        sg = fig8_sg()
        reduced = forward_reduction(sg, "a", "b").sg
        assert check_validity(sg, reduced).valid


class _Recorder:
    """Checks every hinted step and every inherited pair set of a search.

    Wraps :meth:`ReductionSpace.step` and :meth:`ReductionSpace.live_pairs`
    on the class: a step given a hint is run again without it, and the two
    children must agree in mask, states and out-arcs; pairs inherited
    from a parent must give the same reducible set as a full diamond scan,
    each witness a diamond of the configuration.
    """

    def __init__(self, monkeypatch):
        self.hinted = self.taken = self.inherited = 0
        step, live_pairs = ReductionSpace.step, ReductionSpace.live_pairs

        def checked_step(space, view, delayed, before, hint=None):
            result = step(space, view, delayed, before, hint)
            if hint is not None:
                self.hinted += 1
                self.taken += not result.walked and result.child is hint
                plain = step(space, view, delayed, before)
                assert _masks(result.child) == _masks(plain.child)
                assert result.reason == plain.reason
                assert (result.truncated, result.lost_states) == (
                    plain.truncated, plain.lost_states)
            return result

        def checked_live_pairs(space, config, inherited=None):
            live = live_pairs(space, config, inherited)
            if inherited is not None:
                self.inherited += 1
                scanned = live_pairs(space, config)
                assert [pair for pair, _ in live] == [pair for pair, _
                                                      in scanned]
                assert all(config.mask & witness == witness
                           for _, witness in live)
                assert (space.reducible(config, live=live)
                        == space.reducible(config))
            return live

        monkeypatch.setattr(ReductionSpace, "step", checked_step)
        monkeypatch.setattr(ReductionSpace, "live_pairs", checked_live_pairs)


def _corpus_roots():
    """The quick fuzz corpus's specs under 300 states, as generated SGs."""
    anchor = json.loads((Path(__file__).parent / "data"
                         / "fuzz_corpus.json").read_text())["quick"]
    roots = (generate_sg(generate_spec(spec_seed(anchor["seed"],
                                                 index)).build())
             for index in range(anchor["count"]))
    return [root for root in roots if len(root) < 300]


class TestHints:
    """Hinted FwdRed steps and inherited pairs against the plain ones."""

    @pytest.mark.parametrize("name", ["fig10/automatic",
                                      "table2/csc reduced",
                                      "table2/original reduced"])
    def test_pinned_searches(self, name, monkeypatch):
        from repro import engine
        from test_reduction_golden import reduction_runs
        recorder = _Recorder(monkeypatch)
        engine.clear_caches()
        reduction_runs()[name]()
        assert recorder.inherited > 0
        # Most steps take their hint.
        assert recorder.taken > recorder.hinted // 2 > 0

    def test_fuzz_corpus_specs(self, monkeypatch):
        from repro import engine
        from repro.reduction.explore import (full_reduction_with_stats,
                                             reduce_concurrency)
        recorder = _Recorder(monkeypatch)
        roots = _corpus_roots()
        assert len(roots) >= 5
        for root in roots:
            engine.clear_caches()
            reduce_concurrency(root, max_explored=300)
            reduce_concurrency(root, strategy="beam", max_explored=300)
            full_reduction_with_stats(root, max_explored=300)
        assert recorder.taken > 0 and recorder.inherited > 0

    def test_wrong_hints_refused(self):
        root = generate_sg(par.par_expanded())
        space = ReductionSpace(root)
        view = space.view(space.root)
        refused = 0
        for before, delayed in sorted(space.reducible(space.root)):
            ids = space.label_index[delayed], space.label_index[before]
            plain = space.step(view, *ids)
            if plain.child is None:
                continue
            child = plain.child
            # The parent itself keeps the arcs the step drops.
            wrong = [space.root]
            # A configuration one arc short of the child.
            wrong += [Config(child.mask & ~(1 << arc), child.reach)
                      for arc in range(child.mask.bit_length())
                      if child.mask >> arc & 1][:5]
            for hint in wrong:
                hinted = space.step(view, *ids, hint)
                assert hinted.walked and hinted.child is not hint
                assert _masks(hinted.child) == _masks(child)
                refused += 1
            taken = space.step(view, *ids, Config(child.mask, child.reach))
            assert not taken.walked
            assert _masks(taken.child)[:2] == _masks(child)[:2]
        assert refused > 0
