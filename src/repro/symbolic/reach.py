"""Budgeted symbolic reachability: the frontier-image fixpoint.

The symbolic sibling of :func:`repro.explore.frontier.explore_packed`:
the same level discipline (expand the whole frontier, subtract what is
already reached, repeat), the same
:class:`~repro.explore.budget.ExplorationBudget` accounting and the same
structured :class:`~repro.explore.budget.BudgetExceeded` on exhaustion
-- but the frontier is a BDD, so a level's cost follows the *structure*
of the state set, not its cardinality.  Budgets meter what the engine
actually spends: allocated BDD nodes (``max_nodes``, charged through the
manager's grow hook so even one runaway image step trips it) and wall
clock (``max_seconds``); ``max_states`` is an explicit-enumeration
notion and is deliberately not metered here.

The image of a frontier is one memoized pass per transition,
:meth:`~repro.symbolic.bdd.BDD.fire` of its plan
(:class:`~repro.symbolic.encode.SymbolicTransition`): the walk keeps the
states that hold the preset, clears the places the transition only
consumes from, marks the ones it only produces into and sets, clears or
flips the signal bit, all in one traversal of the frontier.  A postset place already marked in a state that enables the
transition leaves the 1-safe regime and raises
:class:`~repro.symbolic.encode.SymbolicOverflowError` (the rise of a
high signal is no overflow: the coding check reports it as an
inconsistency).  Two expansion modes share this step:

* ``chaining=False`` -- strict breadth-first: every level unions the
  one-step images of the previous frontier, so ``levels`` is the BFS
  depth, matching the explicit engines level for level.
* ``chaining=True`` -- each pass sweeps the transitions forward then
  backward over the *whole* reached set, folding every image straight
  back into the working set, so one pass can ripple a token through a
  whole pipeline in either direction.  The reached *set* is identical;
  only the pass structure (and speed -- chained passes converge in far
  fewer rounds than diameter-many BFS levels, and images of the stable
  reached set hit the operation caches hard) differs.

Both modes run a fixed, data-independent op sequence over dict-only
structures, so node ids -- and therefore node counts and every rendered
payload -- are byte-stable across hash seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..explore.budget import BudgetMeter, ExplorationBudget
from ..obs import progress as obs_progress
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from .bdd import FALSE, BDD, GuardError
from .encode import SymbolicEncoding, SymbolicOverflowError

__all__ = ["SymbolicReachability", "symbolic_reach"]

_UNBOUNDED = ExplorationBudget()


@dataclass
class SymbolicReachability:
    """The reachable state set of one symbolic run.

    ``reached`` is the BDD of reachable (marking, signal-values) states
    over ``encoding.state_vars``; ``state_count`` its exact model count
    (= the explicit engine's state count); ``levels`` the number of
    expansion passes; ``level_stats`` one record per pass with the
    frontier's node size and the pass's image wall clock (the obs/bench
    "image-step timings per level").
    """

    encoding: SymbolicEncoding
    reached: int
    state_count: int
    levels: int
    chaining: bool
    node_count: int
    level_stats: List[Dict[str, object]] = field(default_factory=list)

    @property
    def bdd(self) -> BDD:
        return self.encoding.bdd


def _image(bdd: BDD, frontier: int, transition) -> int:
    """One transition's successor set (see the module docstring)."""
    try:
        return bdd.fire(frontier, transition.plan)
    except GuardError:
        raise SymbolicOverflowError(
            f"firing {transition.name!r} leaves the 1-safe regime") from None


def _heartbeat(meter: BudgetMeter, level: int, frontier_nodes: int,
               total_nodes: int, force: bool = False) -> None:
    if not obs_progress.active():
        return
    fields: Dict[str, object] = {
        "engine": "symbolic", "level": level,
        "frontier_nodes": frontier_nodes, "bdd_nodes": total_nodes,
    }
    limit = meter.budget.max_nodes
    if limit is not None:
        fields["budget_remaining"] = int(limit) - total_nodes
    obs_progress.emit("frontier", fields, force=force)


def _record_run(levels: int, nodes: int, states: int) -> None:
    reg = obs_registry()
    reg.counter("repro_explore_runs_total",
                "Completed reachability runs.", engine="symbolic").inc()
    reg.counter("repro_explore_levels_total",
                "BFS levels expanded by reachability runs.",
                engine="symbolic").inc(levels)
    reg.counter("repro_symbolic_nodes_total",
                "BDD nodes allocated by symbolic reachability runs."
                ).inc(nodes)
    reg.counter("repro_symbolic_states_total",
                "States covered (model count) by symbolic reachability "
                "runs.").inc(states)


def symbolic_reach(encoding: SymbolicEncoding,
                   budget: Optional[ExplorationBudget] = None,
                   chaining: bool = True) -> SymbolicReachability:
    """Compute the reachable states of an encoded STG.

    Raises :class:`~repro.explore.budget.BudgetExceeded` (resource
    ``"nodes"`` or ``"seconds"``) when the budget runs out and
    :class:`~repro.symbolic.encode.SymbolicOverflowError` when the net
    leaves the 1-safe regime.
    """
    bdd = encoding.bdd
    meter = (budget or _UNBOUNDED).meter()
    limit = meter.budget.max_nodes

    def charge(total: int) -> None:
        meter.charge_nodes(total)
        # Check again at the budget's headroom when that comes first.
        if limit is not None:
            bdd.next_check = min(bdd.next_check, limit)

    charge(bdd.node_count)
    bdd.on_grow = charge
    level_stats: List[Dict[str, object]] = []
    forward = encoding.transitions
    sweep = forward + tuple(reversed(forward)) if chaining else forward
    reached = encoding.initial
    frontier = encoding.initial  # strict mode only
    # A chained pass starts from the set the previous one reached, so its
    # frontier size is that pass's reached size: each set is sized once.
    reached_nodes = bdd.size(reached)
    levels = 0
    done = False
    try:
        while not done:
            depth = levels
            levels += 1
            meter.level = depth
            frontier_nodes = reached_nodes if chaining \
                else bdd.size(frontier)
            started = time.perf_counter()
            with obs_span("symbolic:level", engine="symbolic", level=depth,
                          frontier_nodes=frontier_nodes) as level_span:
                if chaining:
                    working = reached
                    for transition in sweep:
                        image = _image(bdd, working, transition)
                        if image != FALSE:
                            working = bdd.apply_or(working, image)
                    done = working == reached
                    reached = working
                else:
                    new = FALSE
                    for transition in sweep:
                        image = _image(bdd, frontier, transition)
                        if image != FALSE:
                            new = bdd.apply_or(new, image)
                    new = bdd.diff(new, reached)
                    reached = bdd.apply_or(reached, new)
                    frontier = new
                    done = frontier == FALSE
                meter.charge_nodes(bdd.node_count)
                meter.check_clock()
                reached_nodes = bdd.size(reached)
                if level_span is not None:
                    level_span.set(reached_nodes=reached_nodes,
                                   bdd_nodes=bdd.node_count)
            level_stats.append({
                "level": depth,
                "frontier_nodes": frontier_nodes,
                "reached_nodes": reached_nodes,
                "bdd_nodes": bdd.node_count,
                "seconds": round(time.perf_counter() - started, 6),
            })
            _heartbeat(meter, depth, frontier_nodes, bdd.node_count,
                       force=done)
    finally:
        bdd.on_grow = None
    state_count = bdd.count(reached, encoding.state_vars)
    _record_run(levels, bdd.node_count, state_count)
    return SymbolicReachability(
        encoding=encoding, reached=reached, state_count=state_count,
        levels=levels, chaining=chaining, node_count=bdd.node_count,
        level_stats=level_stats)
