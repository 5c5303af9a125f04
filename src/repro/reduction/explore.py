"""Frontier-based exploration of concurrency reductions (Fig. 9).

Starting from the maximally concurrent SG, each level applies every eligible
forward reduction to every SG on the frontier; the ``size_frontier`` best
candidates (by the heuristic cost) survive to the next level.  Because every
step strictly reduces concurrency, the search terminates when no reduction
applies.  The best SG over *everything explored* (including the input) is
returned -- reduction is an optimization, not an obligation.

Accounting is strategy-independent: every strategy fills in the same
:class:`ExplorationStats`, where ``explored`` always means the number of
*distinct* configurations whose cost was evaluated (the input included) and
``expanded`` the subset whose successors were generated.  The
``max_explored`` budget is an :class:`~repro.explore.ExplorationBudget`
state cap shared with the other frontier engines; it caps ``explored``
via the meter's non-raising pre-check (the search must flip ``capped``
*before* generating a candidate past the budget, never drop one
silently), so a single wide level cannot blow past it.

All three strategies run on one :class:`~repro.reduction.fwdred.ReductionSpace`
over the input SG and share one children generator (sorted reducible
pairs, the FwdRed step, the Keep_Conc diamond check).  ``seen``,
``expanded``, the beam's candidates and the heap hold configurations
keyed by their arc masks, so duplicates are recognised on the masks, and
every configuration is scored on them too
(:meth:`~repro.reduction.fwdred.ReductionSpace.measure`): a search builds
one :class:`StateGraph`, for the configuration it returns.

Expanding a configuration reuses the work of the parent that first
generated it: only the parent's live diamond pairs are tested, and each
FwdRed step gets a hint from the space's transition table -- the
parent's child by the same pair, reduced by the pair that made the
configuration when that step is known -- which the step accepts without
its reachability walk when the hint provably is the child.  Most steps
reach a configuration already generated, and the hint answers most of
them.  The Keep_Conc verdict is kept per child mask.  None of this
changes a result: the hinted child is the walked one, mask and states.
Each search folds its step outcomes, its walks, the configurations it
scored and the graphs it built into the ``repro_reduction_*`` counters.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..explore import ExplorationBudget
from ..hse.constraints import KeepConcError, normalise_keep_conc
from ..sg.graph import StateGraph
from .cost import CostFunction
from .fwdred import Config, LivePairs, record_work, reduction_space

#: Best-first's default ``patience`` (see :func:`reduce_concurrency`).
DEFAULT_PATIENCE = 150


@dataclass
class ExplorationStep:
    """One new best-so-far configuration in the search history."""

    level: int
    before: str
    delayed: str
    cost: float
    states: int


@dataclass(frozen=True)
class ExplorationStats:
    """Strategy-independent accounting of one exploration run.

    ``explored`` counts the *distinct* configurations whose cost was
    evaluated, the input configuration included; ``expanded`` counts the
    subset whose successors were generated.  The numbers mean exactly the
    same thing for ``beam``, ``best-first`` and ``full``, so sweep reports
    are comparable across strategies.  ``levels`` is beam levels for the
    level-by-level strategies and expansion steps for best-first;
    ``capped`` records whether the ``max_explored`` budget stopped the
    search before it converged.
    """

    strategy: str
    explored: int
    expanded: int
    levels: int
    capped: bool


@dataclass
class ExplorationResult:
    """Outcome of the Fig. 9 loop."""

    best: StateGraph
    best_cost: float
    initial_cost: float
    explored_count: int
    levels: int
    history: List[ExplorationStep] = field(default_factory=list)
    stats: Optional[ExplorationStats] = None

    @property
    def improved(self) -> bool:
        return self.best_cost < self.initial_cost


def preserved_pairs(sg: StateGraph, keep_conc: Iterable[Tuple[str, str]]
                    ) -> FrozenSet[FrozenSet[str]]:
    """The Keep_Conc label pairs a search on ``sg`` must keep concurrent.

    FwdRed only removes arcs, so a label pair that is not concurrent in
    ``sg`` stays so in every configuration: it is preserved trivially and
    left out.  A requested pair none of whose expansions is concurrent
    raises :class:`~repro.hse.constraints.KeepConcError`; kept, it would
    reject every child.
    """
    space = reduction_space(sg)
    preserved: Set[FrozenSet[str]] = set()
    for first, second in keep_conc:
        live = {labels for labels in normalise_keep_conc(sg, [(first, second)])
                if space.concurrent(space.root, *labels)}
        if not live:
            raise KeepConcError(f"Keep_Conc pair ({first}, {second}) is not "
                                f"concurrent in {sg.name!r}")
        preserved |= live
    return frozenset(preserved)


class _Search:
    """State shared by the strategies: one root space, masks, the budget.

    ``seen`` holds the arc masks of every configuration generated so far
    (the input included) and ``expanded`` those whose children were
    generated; a mask identifies a configuration exactly (see
    :mod:`repro.reduction.fwdred`).  Costs are measured on the masks, once
    per space and configuration; a :class:`StateGraph` is built only for
    the returned configuration (:meth:`graph`).

    ``origin`` maps each generated configuration but the input to where it
    was first generated: its parent, the parent's live diamond pairs and
    the pair reduced.  Expanding a configuration reuses that parent's
    work: it tests only the parent's live pairs, and offers each FwdRed
    step a hint (:meth:`_hint`) read from the parent's and its siblings'
    steps in the space's transition table.
    """

    def __init__(self, sg: StateGraph, keep_conc: Iterable[Tuple[str, str]],
                 cost: CostFunction, max_explored: Optional[int]) -> None:
        self.sg = sg
        self.space = reduction_space(sg)
        self.preserved = preserved_pairs(sg, keep_conc)
        self.cost = cost
        self.meter = ExplorationBudget(max_states=max_explored).meter()
        self.root = self.space.root
        self.seen: Set[int] = {self.root.mask}
        self.expanded: Set[int] = set()
        self.origin: Dict[int, Tuple[Config, LivePairs, str, str]] = {}
        #: The Keep_Conc verdict of every child mask stepped to.
        self.keeps: Dict[int, bool] = {}
        #: Scored configurations' reachable state ids, kept for their view.
        self.reachable: Dict[int, List[int]] = {}
        self.capped = False
        self._work = {"valid": 0, "invalid": 0, "duplicate": 0,
                      "materialized": 0, "scored": 0, "walks": 0}

    def expand(self, config: Config) -> bool:
        """Mark ``config`` expanded; False when it already was."""
        if config.mask in self.expanded:
            return False
        self.expanded.add(config.mask)
        return True

    def children(self, config: Config) -> Iterator[Tuple[str, str, Config]]:
        """``(before, delayed, child)`` for every valid FwdRed of ``config``.

        Pairs come in sorted order; the budget is checked before each
        step, and a child that serializes a Keep_Conc pair as a side
        effect is dropped (the paper's Fig. 9 only avoids reducing the
        pairs directly, but the designer asked for them to stay
        concurrent).  Every yielded child is in ``seen``.
        """
        space, work, seen = self.space, self._work, self.seen
        origin = self.origin.get(config.mask)
        live = space.live_pairs(config, None if origin is None else origin[1])
        view = space.view(config, self.reachable.pop(config.mask, None))
        for before, delayed in sorted(space.reducible(config, self.preserved,
                                                      live)):
            if self.meter.states_exhausted(len(seen)):
                self.capped = True
                return
            child, walked = space.child(view, delayed, before,
                                        self._hint(origin, delayed, before))
            work["walks"] += walked
            if child is None or not self._keeps(child):
                work["invalid"] += 1
                continue
            if child.mask in seen:
                work["duplicate"] += 1
            else:
                work["valid"] += 1
                seen.add(child.mask)
                self.origin[child.mask] = (config, live, delayed, before)
            yield before, delayed, child

    def _hint(self, origin: Optional[Tuple[Config, LivePairs, str, str]],
              delayed: str, before: str) -> Optional[Config]:
        """What ``FwdRed(delayed, before)`` of a child of ``origin``'s
        parent probably reaches, read from the space's transition table.

        The two steps usually commute, so the first guess is the parent's
        own child by the pair (the sibling) reduced by the pair that made
        the child.  When the table has no such step, the guess is the
        sibling itself.  When it has one, the sibling cannot be the
        answer: that step found a state of the sibling enabling both
        events of the pair that made the child, and a state of the
        parent doing so lost its delayed event in the child.
        """
        if origin is None:
            return None
        parent, _, made_delayed, made_before = origin
        transitions = self.space.transitions
        sibling = transitions.get((parent.mask, delayed, before))
        if sibling is None:
            return None
        cousin = transitions.get((sibling.mask, made_delayed, made_before))
        return sibling if cousin is None else cousin

    def _keeps(self, child: Config) -> bool:
        """Whether every Keep_Conc pair stays concurrent in ``child``."""
        if not self.preserved:
            return True
        verdict = self.keeps.get(child.mask)
        if verdict is None:
            verdict = self.keeps[child.mask] = all(
                self.space.concurrent(child, *pair) for pair in self.preserved)
        return verdict

    def value(self, config: Config) -> float:
        """The heuristic cost of ``config``, measured once per space."""
        space, mask = self.space, config.mask
        terms = space.terms.get(mask)
        if terms is None:
            reachable = self.reachable[mask] = config.ids()
            terms = space.terms[mask] = space.measure(config, reachable)
            self._work["scored"] += 1
        return self.cost.from_terms(terms).value

    def graph(self, config: Config) -> StateGraph:
        """``config`` as a graph; the search's input is returned as is."""
        if config.mask == self.root.mask:
            return self.sg
        self._work["materialized"] += 1
        return self.space.materialize(self.sg, config)

    def stats(self, strategy: str, levels: int) -> ExplorationStats:
        """The run's accounting; also folds its work into the metrics."""
        record_work(**self._work)
        return ExplorationStats(strategy=strategy, explored=len(self.seen),
                                expanded=len(self.expanded), levels=levels,
                                capped=self.capped)


def reduce_concurrency(sg: StateGraph,
                       keep_conc: Iterable[Tuple[str, str]] = (),
                       size_frontier: int = 4,
                       weight: float = 0.5,
                       cost_function: Optional[CostFunction] = None,
                       max_explored: int = 10_000,
                       strategy: str = "best-first",
                       patience: Optional[int] = None) -> ExplorationResult:
    """Search over valid forward reductions.

    ``keep_conc`` lists event pairs whose concurrency must be preserved;
    elements may be labels, base events or bare signal names (see
    :func:`repro.hse.constraints.normalise_keep_conc`).  Expansions that are
    not concurrent in ``sg`` are dropped, and a pair with no concurrent
    expansion raises :class:`~repro.hse.constraints.KeepConcError`.
    ``weight`` is the paper's ``W``: 0 biases towards CSC resolution, 1
    towards logic size.

    ``strategy`` selects between the paper's level-by-level beam
    (``"beam"``, Fig. 9) and a best-first variant (``"best-first"``, the
    default) that expands the globally cheapest configuration next.  The
    cost landscape of reshuffling is deceptive -- the best final
    interleaving is often reached through intermediate configurations that
    look expensive -- and best-first recovers from that where a narrow beam
    cannot.  ``patience`` bounds the number of consecutive non-improving
    expansions in best-first mode (``None``: :data:`DEFAULT_PATIENCE`).
    """
    if strategy not in ("best-first", "beam"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "beam" and size_frontier < 1:
        raise ValueError("size_frontier must be at least 1")
    search = _Search(sg, keep_conc, cost_function or CostFunction(weight=weight),
                     max_explored)
    if strategy == "best-first":
        best, best_cost, history, levels = _best_first(
            search, DEFAULT_PATIENCE if patience is None else patience)
    else:
        best, best_cost, history, levels = _beam(search, size_frontier)
    best_sg = search.graph(best)
    stats = search.stats(strategy, levels)
    return ExplorationResult(best=best_sg, best_cost=best_cost,
                             initial_cost=search.value(search.root),
                             explored_count=stats.explored, levels=levels,
                             history=history, stats=stats)


def _beam(search: _Search, size_frontier: int, terminal: bool = False
          ) -> Tuple[Config, float, List[ExplorationStep], int]:
    """The paper's level-by-level loop: the best ``size_frontier`` survive.

    Only *expanded* configurations are closed; a candidate pruned from one
    level's frontier may be regenerated along a better path later.  With
    ``terminal`` the result is the cheapest expanded configuration with no
    child at all (duplicates count; one the budget cut off is not
    judged), or the input when there is none.
    """
    best = search.root
    best_cost = float("inf") if terminal else search.value(best)
    frontier: List[Config] = [best]
    history: List[ExplorationStep] = []
    level = 0

    while frontier and not search.capped:
        level += 1
        candidates: Dict[int, Tuple[float, Config, str, str]] = {}
        for current in frontier:
            if not search.expand(current):
                continue
            children = 0
            for before, delayed, child in search.children(current):
                children += 1
                if child.mask in search.expanded or child.mask in candidates:
                    continue
                candidates[child.mask] = (search.value(child), child,
                                          before, delayed)
            if search.capped:
                break
            if terminal and not children:
                value = search.value(current)
                if value < best_cost:
                    best, best_cost = current, value
        if not candidates:
            break
        survivors = sorted(candidates.values(), key=lambda item: item[0])
        survivors = survivors[:size_frontier]
        for value, candidate, before, delayed in survivors:
            if not terminal and value < best_cost:
                best, best_cost = candidate, value
                history.append(ExplorationStep(level, before, delayed, value,
                                               candidate.states))
        frontier = [candidate for _, candidate, _, _ in survivors]
    return best, best_cost, history, level


def _best_first(search: _Search, patience: int
                ) -> Tuple[Config, float, List[ExplorationStep], int]:
    """Priority-queue exploration: always expand the cheapest known SG."""
    best = search.root
    best_cost = search.value(best)
    counter = 0
    heap: List[Tuple[float, int, Config]] = [(best_cost, counter, best)]
    history: List[ExplorationStep] = []
    stale = 0

    while heap and not search.capped and stale < patience:
        _, _, current = heapq.heappop(heap)
        if not search.expand(current):
            continue
        improved = False
        for before, delayed, child in search.children(current):
            if child.mask in search.expanded:
                continue
            child_cost = search.value(child)
            counter += 1
            heapq.heappush(heap, (child_cost, counter, child))
            if child_cost < best_cost:
                best, best_cost = child, child_cost
                improved = True
                history.append(ExplorationStep(len(search.expanded), before,
                                               delayed, child_cost,
                                               child.states))
        stale = 0 if improved else stale + 1
    return best, best_cost, history, len(search.expanded)


def full_reduction_with_stats(sg: StateGraph,
                              keep_conc: Iterable[Tuple[str, str]] = (),
                              size_frontier: int = 6,
                              weight: float = 0.5,
                              cost_function: Optional[CostFunction] = None,
                              max_explored: int = 20_000,
                              ) -> Tuple[StateGraph, ExplorationStats]:
    """:func:`full_reduction` plus the unified exploration accounting."""
    search = _Search(sg, keep_conc, cost_function or CostFunction(weight=weight),
                     max_explored)
    best, _, _, levels = _beam(search, size_frontier, terminal=True)
    return search.graph(best), search.stats("full", levels)


def full_reduction(sg: StateGraph,
                   keep_conc: Iterable[Tuple[str, str]] = (),
                   size_frontier: int = 6,
                   weight: float = 0.5,
                   cost_function: Optional[CostFunction] = None,
                   max_explored: int = 20_000) -> StateGraph:
    """Reduce until no valid reduction remains; best terminal wins.

    Unlike :func:`reduce_concurrency` (which may stop anywhere), this drives
    concurrency as low as the validity rules allow (the "Full reduction" and
    ``x || y`` rows of Tables 1 and 2): a configuration only counts as a
    result when *no* valid reduction applies to it.  A beam of width
    ``size_frontier`` avoids the greedy trap where an early cheap-looking
    reduction forecloses the globally best interleaving.
    """
    best, _ = full_reduction_with_stats(
        sg, keep_conc=keep_conc, size_frontier=size_frontier, weight=weight,
        cost_function=cost_function, max_explored=max_explored)
    return best
