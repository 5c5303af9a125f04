"""Declarative design-space grids (the Tables 1-2 rows, for every spec).

A :class:`SweepPoint` names one design point: a spec, the
:class:`~repro.pipeline.FlowConfig` the staged pipeline evaluates on it,
and a display name.  ``FlowConfig`` normalizes every field its strategy
ignores, so two spellings of one point (``none`` at different weights,
Keep_Conc pairs listed in another order, a frontier at its strategy
default) collapse to one grid entry, and the per-strategy frontier and
budget defaults cannot drift from the flow.  :func:`tables_grid` builds
the full grid the paper's Tables 1 and 2 sample: maximal concurrency, the
searched reductions at several weights ``W``, full reduction, and the
named ``x || y`` Keep_Conc variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..pipeline.config import STRATEGIES, FlowConfig
from ..specs.lr import TABLE1_ROWS
from ..specs.mmu import TABLE2_ROWS
from ..specs.registry import spec_names
from ..timing.delays import TABLE1_DELAYS, DelayModel

__all__ = [
    "SweepGrid", "SweepPoint", "keep_variants", "make_point", "tables_grid",
]


def keep_variants(spec: str) -> Dict[str, List[Tuple[str, str]]]:
    """The named Keep_Conc rows of Tables 1-2 for ``spec`` (else empty)."""
    rows = {"lr": TABLE1_ROWS, "mmu": TABLE2_ROWS}.get(spec, {})
    return {name: list(config.keep_conc) for name, config in rows.items()
            if config.keep_conc}


@dataclass(frozen=True)
class SweepPoint:
    """One design point of the grid: ``config`` evaluated on ``spec``.

    ``variant`` is a display name for Keep_Conc rows ("li || ri"); it is
    not part of the identity.
    """

    spec: str
    config: FlowConfig
    variant: str = ""

    def key(self) -> tuple:
        """Hashable identity (everything but the display name)."""
        return (self.spec, self.config)

    def label(self) -> str:
        """Human-readable point name, e.g. ``lr/best-first/W=0.5``."""
        parts = [self.spec, self.variant or self.config.strategy]
        if self.config.strategy != "none" and not self.variant:
            parts.append(f"W={self.config.weight:g}")
        return "/".join(parts)


def make_point(spec: str,
               strategy: str,
               weight: float = 0.5,
               frontier: Optional[int] = None,
               keep: Iterable[Tuple[str, str]] = (),
               delays=None,
               variant: str = "",
               **knobs) -> SweepPoint:
    """Build a :class:`SweepPoint`; ``FlowConfig`` validates and normalizes.

    ``delays`` is ``None`` (the Table 1 model), a :class:`DelayModel` or an
    ``(input, output, internal)`` triple; ``knobs`` are further
    :class:`FlowConfig` fields (``max_explored``, ``verify``, ...).  A
    ``none`` point reduces nothing, so it drops the Keep_Conc display name.
    """
    if delays is None:
        delays = TABLE1_DELAYS
    elif not isinstance(delays, DelayModel):
        input_delay, output_delay, internal_delay = delays
        delays = DelayModel.by_kind(input_delay, output_delay, internal_delay)
    config = FlowConfig(strategy=strategy, weight=weight,
                        size_frontier=frontier, keep_conc=keep,
                        delays=delays, **knobs)
    return SweepPoint(spec, config, "" if strategy == "none" else variant)


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
                strategies: Optional[Sequence[str]] = None,
                weights: Optional[Sequence[float]] = None,
                include_keep_variants: bool = True,
                **knobs) -> SweepGrid:
    """The full Tables 1-2 style grid over the given specs.

    Per spec: one ``none`` point, one ``beam`` and one ``best-first`` point
    per weight ``W``, one ``full`` point, and (when enabled and the spec has
    them) every named Keep_Conc variant as a ``full`` reduction -- exactly
    the rows the paper reports.  ``knobs`` are the :func:`make_point`
    keywords every point shares: ``frontier``, ``max_explored``,
    ``delays`` (overriding the Table 1 delay model), ``verify=True`` (run
    the gate-level verification subsystem on every point, capped at
    ``verify_max_states`` product states), ...  An axis left ``None``
    takes its default: every spec of
    :func:`~repro.specs.registry.spec_names`, every strategy of
    :data:`STRATEGIES`, and the weights 0, 0.5 and 1.
    """
    if strategies is None:
        strategies = STRATEGIES
    if weights is None:
        weights = (0.0, 0.5, 1.0)
    registry = spec_names()
    if specs is None:
        specs = registry
    else:
        unknown = sorted(set(specs) - set(registry))
        if unknown:
            raise KeyError(f"unknown spec(s) {unknown}; "
                           f"available: {registry}")
    grid = SweepGrid()
    for spec in specs:
        for strategy in strategies:
            if strategy in ("beam", "best-first"):
                for weight in weights:
                    grid.add(make_point(spec, strategy, weight=weight,
                                        **knobs))
            else:
                grid.add(make_point(spec, strategy, **knobs))
        if include_keep_variants and "full" in strategies:
            for variant, pairs in keep_variants(spec).items():
                grid.add(make_point(spec, "full", keep=pairs,
                                    variant=variant, **knobs))
    return grid
