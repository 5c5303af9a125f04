"""Unit tests for the exploration loop (repro.reduction.explore, .cost)."""

import pytest

import cost_oracle
from repro.reduction.cost import CostBreakdown, CostFunction
from repro.reduction.explore import (ExplorationResult, ExplorationStats,
                                     full_reduction,
                                     full_reduction_with_stats,
                                     reduce_concurrency)
from repro.sg.generator import generate_sg
from repro.sg.properties import check_implementability, csc_conflicts
from repro.sg.regions import are_concurrent
from repro.specs.fig1 import fig1_stg
from repro.specs.lr import TABLE1_KEEP_CONC, lr_expanded
from sg_oracle import concurrent_pairs


@pytest.fixture(scope="module")
def lr_max():
    return generate_sg(lr_expanded())


class TestCostFunction:
    def test_weight_range_checked(self):
        with pytest.raises(ValueError):
            CostFunction(weight=1.5)

    def test_breakdown_fields(self, lr_max):
        breakdown = cost_oracle.breakdown(CostFunction(weight=0.5), lr_max)
        assert breakdown.csc_conflict_pairs == 3
        assert breakdown.logic_literals > 0
        assert breakdown.state_count == 16
        assert breakdown.value > 0

    def test_weight_zero_ignores_logic(self, lr_max):
        breakdown = cost_oracle.breakdown(CostFunction(weight=0.0), lr_max)
        assert breakdown.value == pytest.approx(
            20.0 * 3 + 1e-3 * 16)

    def test_weight_one_ignores_csc(self, lr_max):
        breakdown = cost_oracle.breakdown(CostFunction(weight=1.0), lr_max)
        assert breakdown.value == pytest.approx(
            breakdown.logic_literals + 1e-3 * 16)

    def test_memoised(self, lr_max):
        cost = CostFunction()
        assert (cost_oracle.breakdown(cost, lr_max)
                == cost_oracle.breakdown(cost, lr_max.copy_without_arcs(())))


class TestReduceConcurrency:
    def test_improves_over_initial(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert result.best_cost < result.initial_cost
        assert result.improved
        assert result.explored_count > 1

    def test_best_is_valid_sg(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert check_implementability(result.best).speed_independent
        assert result.best.initial == lr_max.initial

    def test_keep_conc_pairs_survive(self, lr_max):
        result = reduce_concurrency(lr_max, keep_conc=[("li-", "ri-")])
        assert are_concurrent(result.best, "li-", "ri-")

    def test_beam_strategy_runs(self, lr_max):
        result = reduce_concurrency(lr_max, strategy="beam", size_frontier=4)
        assert result.best_cost <= result.initial_cost
        assert result.levels >= 1

    def test_unknown_strategy_rejected(self, lr_max):
        with pytest.raises(ValueError):
            reduce_concurrency(lr_max, strategy="dfs")

    def test_bad_frontier_rejected(self, lr_max):
        with pytest.raises(ValueError):
            reduce_concurrency(lr_max, strategy="beam", size_frontier=0)

    def test_history_recorded(self, lr_max):
        result = reduce_concurrency(lr_max)
        assert result.history
        step = result.history[0]
        assert step.delayed in lr_max.events
        assert step.before in lr_max.events

    def test_no_concurrency_nothing_to_do(self):
        from repro.specs.lr import q_module_stg
        sg = generate_sg(q_module_stg())
        result = reduce_concurrency(sg)
        assert result.best_cost == result.initial_cost
        assert not result.improved

    def test_budget_limits_exploration(self, lr_max):
        small = reduce_concurrency(lr_max, max_explored=5)
        assert small.levels <= 5


class TestExplorationStats:
    """``explored`` means the same thing for every strategy: distinct
    configurations whose cost was evaluated, the input included."""

    def test_stats_attached_and_consistent(self, lr_max):
        for strategy in ("beam", "best-first"):
            result = reduce_concurrency(lr_max, strategy=strategy)
            stats = result.stats
            assert isinstance(stats, ExplorationStats)
            assert stats.strategy == strategy
            assert result.explored_count == stats.explored
            assert 1 <= stats.expanded <= stats.explored
            assert not stats.capped

    def test_full_reduction_stats(self, lr_max):
        best, stats = full_reduction_with_stats(lr_max)
        assert stats.strategy == "full"
        assert stats.expanded <= stats.explored
        assert len(best) == 8
        assert full_reduction(lr_max).signature() == best.signature()

    def test_beam_cap_enforced_inside_level(self, lr_max):
        # The first level alone generates more candidates than this budget;
        # the cap must stop generation mid-level, not after it.
        result = reduce_concurrency(lr_max, strategy="beam", max_explored=3)
        assert result.stats.capped
        assert result.explored_count <= 3

    def test_best_first_cap_counts_distinct_configs(self, lr_max):
        result = reduce_concurrency(lr_max, max_explored=5)
        assert result.stats.capped
        assert result.explored_count <= 5

    def test_full_reduction_cap_enforced_inside_level(self, lr_max):
        best, stats = full_reduction_with_stats(lr_max, max_explored=4)
        assert stats.capped
        assert stats.explored <= 4
        assert best is not None

    def test_history_records_improvements_only(self, lr_max):
        for strategy in ("beam", "best-first"):
            result = reduce_concurrency(lr_max, strategy=strategy)
            costs = [step.cost for step in result.history]
            assert all(late < early for early, late in zip(costs, costs[1:]))
            assert all(cost < result.initial_cost for cost in costs)
            if result.history:
                assert result.history[-1].cost == result.best_cost


class TestFullReduction:
    def test_lr_reaches_two_wires(self, lr_max):
        reduced = full_reduction(lr_max)
        assert concurrent_pairs(reduced) == set()
        assert len(csc_conflicts(reduced)) == 0
        assert len(reduced) == 8  # one fully sequential 8-event cycle

    def test_keep_conc_respected(self, lr_max):
        for name, pairs in TABLE1_KEEP_CONC.items():
            reduced = full_reduction(lr_max, keep_conc=pairs)
            label_a, label_b = pairs[0]
            assert are_concurrent(reduced, label_a, label_b), name

    def test_terminal_has_no_valid_moves_outside_keep(self, lr_max):
        from repro.reduction.fwdred import forward_reduction, reducible_pairs
        reduced = full_reduction(lr_max)
        for before, delayed in reducible_pairs(reduced):
            assert not forward_reduction(reduced, delayed, before).valid

    def test_keep_conc_drops_pairs_never_concurrent(self, lr_max):
        # ("li", "ri") expands to four label pairs; only (li+, ri-) and
        # (li-, ri-) are concurrent in the input.  The other two can never
        # be, so they are dropped instead of rejecting every child.
        reduced = full_reduction(lr_max, keep_conc=[("li", "ri")])
        explicit = full_reduction(lr_max,
                                  keep_conc=[("li+", "ri-"), ("li-", "ri-")])
        assert list(reduced.arcs()) == list(explicit.arcs())
        assert len(reduced) < len(lr_max)
        assert are_concurrent(reduced, "li+", "ri-")
        assert are_concurrent(reduced, "li-", "ri-")

    @pytest.mark.parametrize("strategy", ["best-first", "beam", "full"])
    def test_keep_conc_pair_never_concurrent_rejected(self, lr_max, strategy):
        from repro.hse.constraints import KeepConcError
        with pytest.raises(KeepConcError, match=r"\(li\+, li-\)"):
            if strategy == "full":
                full_reduction(lr_max, keep_conc=[("li-", "ri-"),
                                                  ("li+", "li-")])
            else:
                reduce_concurrency(lr_max, keep_conc=[("li+", "li-")],
                                   strategy=strategy)

    def test_already_sequential_is_fixed_point(self):
        from repro.specs.lr import q_module_stg
        sg = generate_sg(q_module_stg())
        reduced = full_reduction(sg)
        assert set(reduced.arcs()) == set(sg.arcs())


def _projection(result):
    """Everything an ExplorationResult says, with the best graph's layout."""
    best = result.best
    return (best.name, best.states, list(best.arcs()), best.signature(),
            result.best_cost, result.initial_cost, result.explored_count,
            result.levels, result.history, result.stats)


def _steps():
    from repro.obs.metrics import registry
    return {outcome: registry().value("repro_reduction_steps_total",
                                      outcome=outcome) or 0
            for outcome in ("valid", "invalid", "duplicate")}


class TestWorkCounters:
    """The search's work counters are exact and never change an output."""

    @pytest.mark.parametrize("strategy", ["best-first", "beam"])
    def test_counts_match_stats(self, lr_max, strategy):
        from repro import engine
        from repro.reduction.fwdred import reduction_work
        engine.clear_caches()
        before, work = _steps(), reduction_work()
        cold = reduce_concurrency(lr_max, strategy=strategy)
        after = _steps()
        # Every configuration, the input included, is scored once on its
        # masks; only the returned best is built as a graph.
        assert after["valid"] - before["valid"] == cold.explored_count - 1
        assert after["duplicate"] > before["duplicate"]
        done = reduction_work()
        assert done["materialized"] - work["materialized"] == 1
        assert done["scored"] - work["scored"] == cold.explored_count

        warm = reduce_concurrency(lr_max, strategy=strategy)
        assert _projection(warm) == _projection(cold)
        # The space kept every configuration's terms: nothing is rescored.
        assert reduction_work()["materialized"] - done["materialized"] == 1
        assert reduction_work()["scored"] == done["scored"]

    def test_full_reduction_counts(self, lr_max):
        before = _steps()
        _, stats = full_reduction_with_stats(lr_max)
        assert _steps()["valid"] - before["valid"] == stats.explored - 1

    def test_tracing_changes_nothing(self, lr_max):
        from repro import engine
        from repro.obs.trace import TraceRecorder, recording
        for strategy in ("best-first", "beam"):
            engine.clear_caches()
            plain = reduce_concurrency(lr_max, strategy=strategy)
            engine.clear_caches()
            with recording(TraceRecorder()):
                traced = reduce_concurrency(lr_max, strategy=strategy)
            assert _projection(traced) == _projection(plain)

    def test_memo_off_changes_nothing(self, lr_max):
        from repro import engine
        engine.clear_caches()
        cached = reduce_concurrency(lr_max, keep_conc=[("li-", "ri-")])
        engine.set_packed_memo(False)
        try:
            plain = reduce_concurrency(lr_max, keep_conc=[("li-", "ri-")])
        finally:
            engine.set_packed_memo(True)
        assert _projection(plain) == _projection(cached)


def _coded_random_graph(seed, states=10):
    """A seeded LTS whose states draw random 3-bit codes.

    Codes collide often, and colliding states may differ only in the
    input ``x`` they enable, which no generated spec shows.
    """
    import random
    from repro.petri.stg import SignalKind
    from repro.sg.graph import StateGraph
    rng = random.Random(seed)
    sg = StateGraph(f"coded{seed}")
    sg.declare_signal("x", SignalKind.INPUT)
    for signal in "ab":
        sg.declare_signal(signal, SignalKind.OUTPUT)
    labels = [f"{signal}{sign}" for signal in "xab" for sign in "+-"]
    for label in labels:
        sg.declare_event(label)
    for state in range(states):
        sg.add_state(state, tuple(rng.randrange(2) for _ in range(3)))
    arcs = {}
    for _ in range(4):  # diamonds, the shape FwdRed needs
        first, second = rng.sample(labels, 2)
        s, u, v, w = (rng.randrange(states) for _ in range(4))
        for source, label, target in ((s, first, u), (s, second, v),
                                      (u, second, w), (v, first, w)):
            arcs.setdefault((source, label), target)
    for _ in range(2 * states):
        arcs.setdefault((rng.randrange(states), rng.choice(labels)),
                        rng.randrange(states))
    for (source, label), target in sorted(arcs.items()):
        sg.add_arc(source, label, target)
    sg.initial = 0
    return sg


def _mask_roots():
    from repro.specs import suite
    from repro.specs.par import PAR_KEEP_CONC, par_expanded
    roots = {
        "lr": (lambda: generate_sg(lr_expanded()), []),
        "par": (lambda: generate_sg(par_expanded()), PAR_KEEP_CONC),
        # Seven CSC conflict pairs at the root.
        "micropipeline": (lambda: generate_sg(suite.load("micropipeline")),
                          []),
    }
    for seed in range(1, 7):
        roots[f"coded{seed}"] = (lambda seed=seed: _coded_random_graph(seed),
                                 [])
    return roots


class TestMaskScoring:
    """Scoring on masks equals the graph-based measurement it replaced."""

    @pytest.mark.parametrize("name", sorted(_mask_roots()))
    def test_every_reached_configuration(self, name):
        from repro import engine
        from repro.reduction.fwdred import reduction_space
        build, keep = _mask_roots()[name]
        sg = build()
        engine.clear_caches()
        reduce_concurrency(sg, keep_conc=keep, max_explored=400)
        reduce_concurrency(sg, keep_conc=keep, strategy="beam",
                           max_explored=400)
        full_reduction_with_stats(sg, keep_conc=keep, max_explored=400)
        space = reduction_space(sg)
        # Every configuration a search scored is the root or a FwdRed
        # child in the space's transition table.
        configs = {space.root.mask: space.root}
        configs.update((child.mask, child)
                       for child in space.transitions.values() if child)
        assert len(space.terms) > 1
        assert set(space.terms) <= set(configs)
        for mask, config in configs.items():
            graph = space.materialize(sg, config)
            expected = cost_oracle.measure_terms(graph)
            assert space.measure(config) == expected, (name, len(graph))
            assert space.terms.get(mask, expected) == expected

    def test_par_memo_hits_and_partial_rows(self):
        """PAR scores through cover-memo hits and partial rows, and every
        configuration it scored still equals the graph-based terms."""
        from repro import engine
        from repro.reduction.fwdred import reduction_space, reduction_work
        from repro.specs.par import PAR_KEEP_CONC, par_expanded

        class Counted(dict):
            hits = 0

            def get(self, key, default=None):
                found = super().get(key, default)
                self.hits += found is not None
                return found

        sg = generate_sg(par_expanded())
        engine.clear_caches()
        space = reduction_space(sg)
        space.covers = Counted()
        before = reduction_work()["covers"]
        result = reduce_concurrency(sg, keep_conc=PAR_KEEP_CONC,
                                    max_explored=300)
        assert reduction_space(sg) is space
        assert space.covers.hits > 0
        assert reduction_work()["covers"] - before == len(space.covers) > 0
        configs = {space.root.mask: space.root}
        configs.update((child.mask, child)
                       for child in space.transitions.values() if child)
        partial = 0
        for mask, terms in space.terms.items():
            config = configs[mask]
            partial += any(mask >> space.first[state] & space.span[state]
                           != space.span[state] for state in config.ids())
            graph = space.materialize(sg, config)
            assert terms == cost_oracle.measure_terms(graph), len(graph)
        assert len(space.terms) == result.explored_count
        assert partial > 0

    def test_spaces_never_share_a_cover_memo_entry(self):
        """The key ``(on, present)`` numbers codes per space: ``coded4``
        and ``coded6`` meet equal keys that name different functions, and
        each space keeps its own answer."""
        from repro.logic.minimize import expand_and_cover
        from repro.reduction.fwdred import reduction_space
        spaces = []
        for seed in (4, 6):
            sg = _coded_random_graph(seed)
            reduce_concurrency(sg, max_explored=50)
            spaces.append(reduction_space(sg))
        first, second = spaces
        assert first.covers is not second.covers
        shared = set(first.covers) & set(second.covers)
        assert any(first.covers[key] != second.covers[key] for key in shared)
        for space in spaces:
            codes, columns, _ = space.coding
            for (on, present), literals in space.covers.items():
                assert literals == sum(
                    mask.bit_count() for mask, _ in expand_and_cover(
                        codes, columns, on, present ^ on))

    def test_codeless_root_fails_when_first_scored(self):
        from repro.reduction.fwdred import (ReductionSpace, forward_reduction,
                                            reducible_pairs)
        from repro.petri.stg import SignalKind
        from repro.sg.graph import StateGraph, StateGraphError
        sg = StateGraph("codeless")
        for signal in "ab":
            sg.declare_signal(signal, SignalKind.OUTPUT)
        for label in ("a+", "b+"):
            sg.declare_event(label)
        for source, label, target in (("s0", "a+", "s1"), ("s0", "b+", "s2"),
                                      ("s1", "b+", "s3"), ("s2", "a+", "s3")):
            sg.add_arc(source, label, target)
        sg.initial = "s0"
        # Building spaces, FwdRed and its pairs read no code.
        space = ReductionSpace(sg)
        assert reducible_pairs(sg) == {("a+", "b+"), ("b+", "a+")}
        assert forward_reduction(sg, "a+", "b+").valid
        with pytest.raises(StateGraphError) as oracle:
            cost_oracle.measure_terms(sg)
        with pytest.raises(StateGraphError) as scored:
            space.measure(space.root)
        assert str(scored.value) == str(oracle.value)
        with pytest.raises(StateGraphError, match="has no binary code"):
            reduce_concurrency(sg)
