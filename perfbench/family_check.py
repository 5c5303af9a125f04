"""Workload ``family_check``: ``repro check``-style checks on spec families.

Seeded members of ``fifo_chain_N``, ``micropipeline_chain_N`` and
``counter_N``.  Members up to :data:`EXPLICIT_CAP` states get an explicit
packed ``generate_sg`` plus ``check_implementability``; the counter
members also get ``check_coding`` on the symbolic engine, past the cap
included.  Exploration, state-graph
construction, the property checks and the BDDs do all the work; reduction,
resolve and synthesis do none.

Pass ``k`` checks every shape with cell seed ``k`` (its arc declaration
order), so every run checks the same members; the seed draws the order of
the checks in each pass.  A member's cost swings by 15-20% with its cell
seed, which would otherwise read as noise between runs.  Why only
counters get the symbolic leg, and why ``arbiter_tree`` is out, is
recorded in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.specs import families
import repro.sg.generator as generator
import repro.sg.properties as properties

from common import Leg, Outcome, another_pass, check, run_item
from layers import LayerTotals

#: Largest member (in states) that still gets the explicit checks;
#: ``counter_7`` (32,768 states) is past it and gets the symbolic check
#: only.
EXPLICIT_CAP = 10_000
#: Each kind counts with the median of its passes (each pass on its own
#: cell seed), so every run makes several.
MIN_PASSES = 5


@dataclass(frozen=True)
class Member:
    """One family shape: builder, stage count, closed-form state count."""

    kind: str
    build: Callable
    stages: int
    states: int
    symbolic: bool

    @property
    def explicit(self) -> bool:
        return self.states <= EXPLICIT_CAP


def _fifo(n: int) -> int:
    return 3 ** (n + 1) + (-1) ** n


def _micropipeline(n: int) -> int:
    return 2 ** (3 * n + 2)


def _counter(n: int) -> int:
    return 2 ** (2 * n + 1)


MEMBERS = (
    [Member("fifo_chain", families.fifo_chain, n, _fifo(n), False)
     for n in (4, 5, 6)]
    + [Member("micropipeline_chain", families.micropipeline_chain, 3,
              _micropipeline(3), False)]
    + [Member("counter", families.counter, n, _counter(n), True)
       for n in (5, 6, 7)])


def setup(seed: int) -> List[Member]:
    """The member shapes; the seed only orders the checks."""
    return list(MEMBERS)


def _check_member(member: Member, cell_seed: int) -> List[str]:
    name = f"{member.kind}_{member.stages}_s{cell_seed}"
    problems: List[str] = []
    report = None
    if member.explicit:
        stg = member.build(member.stages, seed=cell_seed, name=name)
        sg = generator.generate_sg(stg, engine="packed")
        problems += check(len(sg) == member.states,
                          f"{len(sg)} states, closed form {member.states}")
        report = properties.check_implementability(sg)
    if member.symbolic:
        stg = member.build(member.stages, seed=cell_seed, name=name)
        coding = properties.check_coding(stg, engine="symbolic", name=name)
        problems += check(coding.states == member.states,
                          f"symbolic {coding.states} states, closed form "
                          f"{member.states}")
        if report is not None:
            problems += check(
                (report.consistent, report.csc, report.csc_conflict_count)
                == (coding.consistent, coding.csc,
                    coding.csc_conflict_count),
                "explicit and symbolic coding verdicts differ")
    return problems


def measure(members: List[Member], seed: int, seconds: float,
            outcome: Outcome, traced: bool = False,
            passes: Optional[int] = None) -> Leg:
    """Whole passes over the members while time allows (or exactly
    ``passes``), pass ``k`` on cell seed ``k``; traced legs fold layer
    spans."""
    rng = random.Random(seed)
    leg = Leg(layers=LayerTotals() if traced else None)
    started = time.perf_counter()
    done = 0
    while another_pass(started, done, seconds, passes, MIN_PASSES):
        for member in rng.sample(members, len(members)):
            cell_seed = done
            problems = run_item(
                leg, f"{member.kind}_{member.stages}",
                lambda: _check_member(member, cell_seed))
            outcome.item(f"{member.kind}_{member.stages}_s{cell_seed}",
                         problems)
        done += 1
    leg.extras = {"engine.cache_entries": leg.cache_entries, "passes": done}
    return leg
