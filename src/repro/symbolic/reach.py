"""Budgeted symbolic reachability: one saturation fixpoint.

The symbolic sibling of :func:`repro.explore.frontier.explore_packed`,
with the same :class:`~repro.explore.budget.ExplorationBudget`
accounting and the same structured
:class:`~repro.explore.budget.BudgetExceeded` on exhaustion -- but the
state set is a BDD, so the cost follows the *structure* of the set, not
its cardinality.  Budgets meter what the engine actually spends:
allocated BDD nodes (``max_nodes``, charged through the manager's grow
hook so even one runaway image step trips it) and wall clock
(``max_seconds``, checked before every round of a level's closure);
``max_states`` is an explicit-enumeration notion and is deliberately
not metered here.  The run's meter carries on through the coding
check's pair product (:mod:`repro.symbolic.csc`).

The fixpoint is saturation (:meth:`~repro.symbolic.bdd.BDD.saturate`;
Ciardo, Lüttgen and Siminiceanu, TACAS 2001).  Each transition's plan
(:class:`~repro.symbolic.encode.SymbolicTransition`) lists its support
variables in BDD order, so a transition belongs to the level of its top
variable and touches nothing above it.  The walk rebuilds the initial
set bottom-up and closes each node under its level's transitions before
the level above sees it; a transition's image is one memoized pass that
keeps the states holding the preset, clears the places the transition
only consumes from, marks the ones it only produces into and sets,
clears or flips the signal bit, and closes every node it rebuilds below
its top level.  A union of closed sets is closed, so folding an image
back in needs no more work.  Every transition fires on small subsets
whose lower levels are already complete, never on the whole reached
set.

A postset place already marked in a reachable state that enables the
transition leaves the 1-safe regime and raises
:class:`~repro.symbolic.encode.SymbolicOverflowError`; saturation fires
only on reachable states and closes every transition over all of them,
so it raises exactly when a whole-set sweep would, though it may name
another overflowing transition first.  (The rise of a high signal is no
overflow: the coding check reports it as an inconsistency.)

The run is a fixed, data-independent op sequence over dict-only
structures, so node ids -- and therefore node counts, the saturation
counts and every rendered payload -- are byte-stable across hash seeds.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from ..explore.budget import BudgetMeter, ExplorationBudget
from ..obs import progress as obs_progress
from ..obs.metrics import registry as obs_registry
from ..obs.trace import span as obs_span
from .bdd import BDD, GuardError
from .encode import (SymbolicDepthError, SymbolicEncoding,
                     SymbolicOverflowError)

__all__ = ["SymbolicReachability", "symbolic_reach"]

_UNBOUNDED = ExplorationBudget()

#: The most BDD variables each stage takes.  Measured on CPython 3.11.7,
#: the coding check recurses at most 5 frames past its variable count and
#: saturation 0.74-0.85 frames per variable past 50 variables
#: (``fifo_chain_55``: 992 variables, 728 frames), so each limit leaves
#: callers at least 150 of the default 1,000 frames.
MAX_VARIABLES = {"symbolic reachability": 1000,
                 "symbolic coding check": 845}


@dataclass
class SymbolicReachability:
    """The reachable state set of one symbolic run.

    ``reached`` is the BDD of reachable (marking, signal-values) states
    over ``encoding.state_vars``; ``state_count`` its exact model count
    (= the explicit engine's state count).  ``images``, ``closures`` and
    ``rounds`` count the saturation's work: transition images fired,
    level closures computed and rounds over a level's transitions.
    ``meter`` is the run's budget meter, which the coding check keeps
    charging.
    """

    encoding: SymbolicEncoding
    reached: int
    state_count: int
    node_count: int
    images: int
    closures: int
    rounds: int
    meter: BudgetMeter

    @property
    def bdd(self) -> BDD:
        return self.encoding.bdd


@contextmanager
def metered(bdd: BDD, meter: BudgetMeter, stage: str,
            name: str) -> Iterator[None]:
    """Charge every node ``bdd`` allocates in the block to ``meter``.

    The grow hook also reads the clock, so a node-hungry step that never
    reaches a round boundary still trips ``max_seconds``.  More variables
    than :data:`MAX_VARIABLES` allows ``stage``, or too deep a recursion,
    raise :class:`~repro.symbolic.encode.SymbolicDepthError`.
    """
    if bdd.num_vars > MAX_VARIABLES[stage]:
        raise SymbolicDepthError(stage, name, bdd.num_vars)
    limit = meter.budget.max_nodes

    def charge(total: int) -> None:
        meter.charge_nodes(total)
        meter.check_clock()
        # Check again at the budget's headroom when that comes first.
        if limit is not None:
            bdd.next_check = min(bdd.next_check, limit)

    charge(bdd.node_count)
    bdd.on_grow = charge
    try:
        yield
    except RecursionError:
        raise SymbolicDepthError(stage, name, bdd.num_vars) from None
    finally:
        bdd.on_grow = None


def _heartbeat(meter: BudgetMeter, bdd: BDD) -> None:
    fields: Dict[str, object] = {"engine": "symbolic",
                                 "bdd_nodes": bdd.node_count}
    limit = meter.budget.max_nodes
    if limit is not None:
        fields["budget_remaining"] = int(limit) - bdd.node_count
    obs_progress.emit("frontier", fields)


def _record_run(rounds: int, nodes: int, states: int) -> None:
    reg = obs_registry()
    reg.counter("repro_explore_runs_total",
                "Completed reachability runs.", engine="symbolic").inc()
    reg.counter("repro_explore_levels_total",
                "BFS levels expanded by reachability runs.",
                engine="symbolic").inc(rounds)
    reg.counter("repro_symbolic_nodes_total",
                "BDD nodes allocated by symbolic reachability runs."
                ).inc(nodes)
    reg.counter("repro_symbolic_states_total",
                "States covered (model count) by symbolic reachability "
                "runs.").inc(states)


def symbolic_reach(encoding: SymbolicEncoding,
                   budget: Optional[ExplorationBudget] = None
                   ) -> SymbolicReachability:
    """Compute the reachable states of an encoded STG.

    Raises :class:`~repro.explore.budget.BudgetExceeded` (resource
    ``"nodes"`` or ``"seconds"``) when the budget runs out,
    :class:`~repro.symbolic.encode.SymbolicOverflowError` when the net
    leaves the 1-safe regime and ``SymbolicDepthError`` when its BDD
    variables are too many for the recursion.
    """
    bdd = encoding.bdd
    meter = (budget or _UNBOUNDED).meter()
    meter.level = None  # saturation has no BFS level to report

    def on_round() -> None:
        meter.check_clock()
        if obs_progress.active():
            _heartbeat(meter, bdd)

    transitions = encoding.transitions
    with obs_span("symbolic:saturate", engine="symbolic",
                  spec=encoding.name) as saturate_span, \
            metered(bdd, meter, "symbolic reachability", encoding.name):
        try:
            reached, counts = bdd.saturate(
                encoding.initial, [t.plan for t in transitions], on_round)
        except GuardError as err:
            raise SymbolicOverflowError(
                f"firing {transitions[err.event].name!r} leaves the 1-safe "
                "regime") from None
        if saturate_span is not None:
            saturate_span.set(bdd_nodes=bdd.node_count, **counts)
        state_count = bdd.count(reached, encoding.state_vars)
    _record_run(counts["rounds"], bdd.node_count, state_count)
    return SymbolicReachability(
        encoding=encoding, reached=reached, state_count=state_count,
        node_count=bdd.node_count, meter=meter, **counts)
