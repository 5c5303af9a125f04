"""Declarative design-space grids (the Tables 1-2 rows, for every spec).

A :class:`SweepPoint` names one design point -- ``(spec, strategy, W,
frontier, keep_conc, delays, verify)`` -- in normalized form, so that two
spellings of the same point (e.g. ``none`` at different weights, or
Keep_Conc pairs listed in a different order) collapse to one grid entry.
Every point compiles to a frozen :class:`~repro.pipeline.FlowConfig`
(:meth:`SweepPoint.flow_config`), the single source of truth the staged
pipeline evaluates; per-strategy frontier/budget defaults therefore come
from :data:`repro.pipeline.STRATEGY_DEFAULTS` and cannot drift from the
flow.  :func:`tables_grid` builds the full grid the paper's Tables 1 and 2
sample: maximal concurrency, the searched reductions at several weights
``W``, full reduction, and the named ``x || y`` Keep_Conc variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..petri.stg import STG
from ..pipeline.config import (STRATEGIES, STRATEGY_DEFAULTS, FlowConfig,
                               canonical_keep)
from ..pipeline.hashing import fraction_text
from ..specs import suite
from ..specs.fig1 import fig1_stg
from ..specs.lr import TABLE1_KEEP_CONC, lr_expanded
from ..specs.mmu import TABLE2_KEEP_CONC, keep_conc_for, mmu_expanded
from ..specs.par import par_expanded
from ..timing.delays import DelayModel

__all__ = [
    "TABLE1_DELAY_AXIS", "SweepGrid", "SweepPoint", "canonical_delays",
    "keep_variants", "make_point", "spec_registry", "tables_grid",
]

KeepPairs = Tuple[Tuple[str, str], ...]

#: The Table 1 per-kind delays (input, output, internal) in canonical text.
TABLE1_DELAY_AXIS = ("2", "1", "1")


def spec_registry() -> Dict[str, Callable[[], STG]]:
    """Every spec the sweep can run, by name: paper specs + the STG suite."""
    registry: Dict[str, Callable[[], STG]] = {
        "fig1": fig1_stg,
        "lr": lr_expanded,
        "mmu": mmu_expanded,
        "par": par_expanded,
    }
    registry.update(suite.sweep_sources())
    return dict(sorted(registry.items()))


def keep_variants(spec: str) -> Dict[str, List[Tuple[str, str]]]:
    """The named Keep_Conc rows of Tables 1-2 for ``spec`` (else empty)."""
    if spec == "lr":
        return dict(TABLE1_KEEP_CONC)
    if spec == "mmu":
        return {name: keep_conc_for(channels)
                for name, channels in TABLE2_KEEP_CONC.items()}
    return {}


def canonical_delays(delays) -> Tuple[str, str, str]:
    """Normalize a delay axis to canonical (input, output, internal) text.

    Accepts ``None`` (the Table 1 model), a 3-sequence of numbers/strings,
    or a :class:`DelayModel` without overrides (per-signal overrides are a
    flow-level feature, not a sweep axis).  ``fraction_text`` normalizes
    every spelling the way :meth:`DelayModel.by_kind` does, so ``0.1`` and
    ``Fraction(1, 10)`` name the same axis.
    """
    if delays is None:
        return TABLE1_DELAY_AXIS
    if isinstance(delays, DelayModel):
        if delays.overrides:
            raise ValueError("sweep delay axes cannot carry per-signal "
                             "overrides; use the flow API instead")
        delays = (delays.input_delay, delays.output_delay,
                  delays.internal_delay)
    input_delay, output_delay, internal_delay = delays
    return (fraction_text(input_delay), fraction_text(output_delay),
            fraction_text(internal_delay))


@dataclass(frozen=True)
class SweepPoint:
    """One normalized design point of the grid.

    ``weight`` and ``frontier`` are ``None`` when the strategy ignores them
    (``none`` ignores both, ``best-first`` has no frontier), so equal points
    compare equal no matter how they were spelled.  ``delays`` is the
    canonical (input, output, internal) delay text; ``verify`` runs the
    gate-level verification subsystem on the synthesized implementation
    (:mod:`repro.verify`) with an optional ``verify_max_states`` product
    state cap and adds its verdict to the row.  ``variant`` is a display
    name for Keep_Conc rows ("li || ri"); it is not part of the identity.
    """

    spec: str
    strategy: str
    weight: Optional[float] = 0.5
    frontier: Optional[int] = None
    keep: KeepPairs = ()
    max_explored: Optional[int] = None
    delays: Tuple[str, str, str] = TABLE1_DELAY_AXIS
    verify: bool = False
    verify_max_states: Optional[int] = None
    variant: str = ""

    def key(self) -> tuple:
        """Hashable identity (everything but the display name)."""
        return (self.spec, self.strategy, self.weight, self.frontier,
                self.keep, self.max_explored, self.delays, self.verify,
                self.verify_max_states)

    def config(self) -> Dict[str, object]:
        """JSON-ready configuration for store keys and reports."""
        return {
            "spec": self.spec,
            "strategy": self.strategy,
            "weight": self.weight,
            "frontier": self.frontier,
            "keep": [list(pair) for pair in self.keep],
            "max_explored": self.max_explored,
            "delays": list(self.delays),
            "verify": self.verify,
            "verify_max_states": self.verify_max_states,
        }

    def delay_model(self) -> DelayModel:
        """The :class:`DelayModel` of this point's delay axis."""
        input_delay, output_delay, internal_delay = self.delays
        return DelayModel.by_kind(Fraction(input_delay),
                                  Fraction(output_delay),
                                  Fraction(internal_delay))

    def flow_config(self) -> FlowConfig:
        """The :class:`FlowConfig` the pipeline evaluates for this point."""
        return FlowConfig.create(
            strategy=self.strategy,
            weight=0.5 if self.weight is None else self.weight,
            size_frontier=self.frontier,
            keep_conc=self.keep,
            max_explored=self.max_explored,
            delays=self.delay_model(),
            verify=self.verify,
            verify_max_states=self.verify_max_states)

    def label(self) -> str:
        """Human-readable point name, e.g. ``lr/best-first/W=0.5``."""
        parts = [self.spec, self.variant or self.strategy]
        if self.weight is not None and not self.variant:
            parts.append(f"W={self.weight:g}")
        return "/".join(parts)


def make_point(spec: str,
               strategy: str,
               weight: float = 0.5,
               frontier: Optional[int] = None,
               keep: Iterable[Tuple[str, str]] = (),
               max_explored: Optional[int] = None,
               delays=None,
               verify: bool = False,
               verify_max_states: Optional[int] = None,
               variant: str = "") -> SweepPoint:
    """Build a normalized :class:`SweepPoint`; validates the strategy."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; "
                         f"expected one of {STRATEGIES}")
    norm_weight: Optional[float] = float(weight)
    norm_frontier = frontier
    norm_keep = canonical_keep(keep)
    if strategy == "none":
        norm_weight = None
        norm_frontier = None
        norm_keep = ()          # nothing is reduced, nothing to preserve
        max_explored = None
        variant = ""
    elif strategy == "best-first":
        norm_frontier = None    # no beam, no frontier width
    else:                       # beam / full: default width per strategy
        default_frontier = STRATEGY_DEFAULTS[strategy][0]
        norm_frontier = default_frontier if frontier is None else int(frontier)
    if not verify:
        verify_max_states = None  # cap is meaningless without verification
    return SweepPoint(spec=spec, strategy=strategy, weight=norm_weight,
                      frontier=norm_frontier, keep=norm_keep,
                      max_explored=max_explored,
                      delays=canonical_delays(delays), verify=bool(verify),
                      verify_max_states=verify_max_states, variant=variant)


class SweepGrid:
    """An ordered, de-duplicated collection of sweep points."""

    def __init__(self, points: Iterable[SweepPoint] = ()) -> None:
        self._points: Dict[tuple, SweepPoint] = {}
        for point in points:
            self.add(point)

    def add(self, point: SweepPoint) -> None:
        """Insert a point; an identical configuration is merged (first wins)."""
        self._points.setdefault(point.key(), point)

    def extend(self, points: Iterable[SweepPoint]) -> None:
        """Add every point (duplicates merged)."""
        for point in points:
            self.add(point)

    @property
    def points(self) -> List[SweepPoint]:
        """The de-duplicated points, in insertion order."""
        return list(self._points.values())

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points.values())

    def __contains__(self, point: SweepPoint) -> bool:
        return point.key() in self._points


def tables_grid(specs: Optional[Sequence[str]] = None,
                strategies: Sequence[str] = STRATEGIES,
                weights: Sequence[float] = (0.0, 0.5, 1.0),
                frontier: Optional[int] = None,
                include_keep_variants: bool = True,
                max_explored: Optional[int] = None,
                delays=None,
                verify: bool = False,
                verify_max_states: Optional[int] = None) -> SweepGrid:
    """The full Tables 1-2 style grid over the given specs.

    Per spec: one ``none`` point, one ``beam`` and one ``best-first`` point
    per weight ``W``, one ``full`` point, and (when enabled and the spec has
    them) every named Keep_Conc variant as a ``full`` reduction -- exactly
    the rows the paper reports.  ``delays`` overrides the Table 1 delay
    model for every point; ``verify=True`` additionally runs the gate-level
    verification subsystem (capped at ``verify_max_states`` product states)
    on every point.
    """
    registry = spec_registry()
    if specs is None:
        specs = list(registry)
    else:
        unknown = sorted(set(specs) - set(registry))
        if unknown:
            raise KeyError(f"unknown spec(s) {unknown}; "
                           f"available: {sorted(registry)}")
    grid = SweepGrid()
    for spec in specs:
        for strategy in strategies:
            if strategy in ("beam", "best-first"):
                for weight in weights:
                    grid.add(make_point(spec, strategy, weight=weight,
                                        frontier=frontier,
                                        max_explored=max_explored,
                                        delays=delays, verify=verify,
                                        verify_max_states=verify_max_states))
            else:
                grid.add(make_point(spec, strategy, frontier=frontier,
                                    max_explored=max_explored,
                                    delays=delays, verify=verify,
                                    verify_max_states=verify_max_states))
        if include_keep_variants and "full" in strategies:
            for variant, pairs in keep_variants(spec).items():
                grid.add(make_point(spec, "full", keep=pairs,
                                    frontier=frontier,
                                    max_explored=max_explored,
                                    delays=delays, verify=verify,
                                    verify_max_states=verify_max_states,
                                    variant=variant))
    return grid
