"""One budget type for every exploration loop.

Before this module, the three explicit-state searches each had their own
limit semantics: :func:`repro.sg.generator.generate_sg` raised a bare
``StateGraphError`` past ``limit`` states, the conformance product turned
``max_states`` into a ``"state-limit"`` verdict, and the reduction search
silently set a ``capped`` flag at ``max_explored``.  They now all consume
an :class:`ExplorationBudget` -- max states, max arcs, optional wall-clock
-- and report exceedance through one structured value, a
:class:`BudgetExceedance` carried by :class:`BudgetExceeded`.  Each caller
still *presents* the exceedance in its own vocabulary (exception, verdict,
``capped`` stat), but the accounting, the off-by-one conventions and the
reporting payload come from one place.

Conventions (the unified semantics of the former three):

* ``max_states`` counts *admitted* (distinct) states, the initial state
  included; a budget of ``n`` admits exactly ``n`` states and raises while
  admitting state ``n + 1``.
* ``max_arcs`` counts traversed arcs (successor edges, duplicates
  included); a budget of ``n`` allows exactly ``n`` arcs.
* ``max_seconds`` is wall-clock from :meth:`ExplorationBudget.meter`;
  it is checked at admission points, not asynchronously.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

__all__ = ["BudgetExceedance", "BudgetExceeded", "BudgetMeter",
           "ExplorationBudget"]


@dataclass(frozen=True)
class BudgetExceedance:
    """Structured record of which resource ran out, and where.

    ``resource`` is ``"states"``, ``"arcs"``, ``"nodes"`` or
    ``"seconds"``; ``limit`` is the configured cap for that resource;
    ``states``/``arcs`` are the counts admitted *within* budget when the
    exploration stopped (the partial result is exactly that big).
    ``nodes`` is the symbolic engine's allocated-BDD-node count, carried
    only when a node budget was being metered.  ``seconds`` is the
    elapsed wall clock when the budget tripped and ``level`` the BFS
    depth being expanded at that moment -- diagnostic context carried for
    :meth:`diagnose`, deliberately absent from :meth:`describe` (whose
    text lands in deterministic certificate payloads and must not vary
    run to run).
    """

    resource: str
    limit: float
    states: int
    arcs: int
    seconds: Optional[float] = None
    level: Optional[int] = None
    nodes: Optional[int] = None

    def describe(self, subject: str = "exploration") -> str:
        """Deterministic one-line rendering, e.g. for exception text."""
        if self.resource == "seconds":
            return f"{subject} exceeded {self.limit:g}s wall clock"
        return f"{subject} exceeded {int(self.limit)} {self.resource}"

    def diagnose(self, subject: str = "exploration") -> str:
        """Verbose rendering with elapsed wall clock and BFS depth.

        For human-facing error reports (CLI stderr); unlike
        :meth:`describe` the text varies with timing, so it must never
        feed a certificate or any other canonical payload.
        """
        # A symbolic run keeps no state or arc counts, only nodes.
        if self.nodes is not None:
            text = f"{self.describe(subject)} after {self.nodes} BDD nodes"
        else:
            text = (f"{self.describe(subject)} after {self.states} states, "
                    f"{self.arcs} arcs")
        if self.seconds is not None:
            text += f", {self.seconds:.2f}s elapsed"
        if self.level is not None:
            text += f", at BFS level {self.level}"
        return text

    def to_payload(self) -> dict:
        """JSON-ready rendering for reports and service responses."""
        payload = {"resource": self.resource, "limit": self.limit,
                   "states": self.states, "arcs": self.arcs}
        if self.seconds is not None:
            payload["seconds"] = round(self.seconds, 6)
        if self.level is not None:
            payload["level"] = self.level
        if self.nodes is not None:
            payload["nodes"] = self.nodes
        return payload


class BudgetExceeded(Exception):
    """An exploration ran out of budget; carries the structured record."""

    def __init__(self, exceedance: BudgetExceedance,
                 message: Optional[str] = None) -> None:
        super().__init__(message or exceedance.describe())
        self.exceedance = exceedance


@dataclass(frozen=True)
class ExplorationBudget:
    """Resource limits for one exploration run (``None`` = unbounded)."""

    max_states: Optional[int] = None
    max_arcs: Optional[int] = None
    max_seconds: Optional[float] = None
    #: Allocated-BDD-node cap, metered only by the symbolic engine
    #: (:mod:`repro.symbolic.reach`); the explicit engines ignore it.
    max_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("max_states", "max_arcs", "max_nodes"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.max_seconds is not None and self.max_seconds < 0:
            raise ValueError(f"max_seconds must be >= 0, "
                             f"got {self.max_seconds}")

    def meter(self) -> "BudgetMeter":
        """A fresh mutable meter (starts the wall clock, if any)."""
        return BudgetMeter(self)

    def to_payload(self) -> dict:
        """JSON-ready rendering (e.g. for config slices)."""
        payload = {"max_states": self.max_states, "max_arcs": self.max_arcs,
                   "max_seconds": self.max_seconds}
        # Omitted when unset so pre-symbolic renderings keep their bytes.
        if self.max_nodes is not None:
            payload["max_nodes"] = self.max_nodes
        return payload


class BudgetMeter:
    """Mutable charge counter for one exploration run.

    The level loop under generation and the conformance product calls
    :meth:`admit_state` / :meth:`charge_arc` and lets
    :class:`BudgetExceeded` propagate; the reduction search, whose
    ``capped`` flag must flip *before* a candidate past the budget is even
    generated, uses the non-raising :meth:`states_exhausted` pre-check
    with the same counters.
    """

    __slots__ = ("budget", "states", "arcs", "nodes", "level", "_started")

    def __init__(self, budget: ExplorationBudget) -> None:
        self.budget = budget
        self.states = 0
        self.arcs = 0
        self.nodes = 0
        #: BFS depth currently being expanded; the frontier engines keep
        #: it current so exceedance reports can say *where* they stopped.
        self.level = 0
        self._started = time.perf_counter()

    def elapsed(self) -> float:
        """Wall-clock seconds since this meter was created."""
        return time.perf_counter() - self._started

    def _exceed(self, resource: str, limit: float) -> "BudgetExceeded":
        return BudgetExceeded(BudgetExceedance(
            resource=resource, limit=limit,
            states=self.states, arcs=self.arcs,
            seconds=self.elapsed(), level=self.level,
            nodes=self.nodes or None))

    def admit_state(self) -> None:
        """Charge one newly admitted (distinct) state."""
        limit = self.budget.max_states
        if limit is not None and self.states + 1 > limit:
            raise self._exceed("states", limit)
        self.states += 1
        self.check_clock()

    def charge_arc(self, count: int = 1) -> None:
        """Charge ``count`` traversed arcs."""
        limit = self.budget.max_arcs
        if limit is not None and self.arcs + count > limit:
            raise self._exceed("arcs", limit)
        self.arcs += count

    def charge_nodes(self, total: int) -> None:
        """Record the symbolic engine's allocated node total (absolute).

        Unlike :meth:`admit_state` this is an absolute gauge, not an
        increment: the BDD unique table only grows, so the engine reports
        its current size and the meter raises once it passes the cap.
        """
        self.nodes = total
        limit = self.budget.max_nodes
        if limit is not None and total > limit:
            raise self._exceed("nodes", limit)

    def states_exhausted(self, admitted: Optional[int] = None) -> bool:
        """Non-raising pre-check: would one more state exceed the budget?

        ``admitted`` overrides the meter's own state count for callers
        that track distinct configurations in their own ``seen`` set.
        """
        limit = self.budget.max_states
        if limit is None:
            return False
        count = self.states if admitted is None else admitted
        return count >= limit

    def check_clock(self) -> None:
        """Raise when the wall-clock budget has run out."""
        limit = self.budget.max_seconds
        if limit is None:
            return
        if time.perf_counter() - self._started > limit:
            raise self._exceed("seconds", limit)
