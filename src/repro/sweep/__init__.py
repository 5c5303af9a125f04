"""Parallel design-space sweeps over the benchmark grid (Tables 1-2).

One call evaluates a whole grid of design points -- specs x strategy x
weight x frontier x Keep_Conc -- across a process pool, with an on-disk
result store so re-runs and overlapping grids skip completed points::

    from repro.sweep import ArtifactStore, run_sweep, tables_grid, render

    grid = tables_grid(specs=["lr", "mmu"])
    outcome = run_sweep(grid, jobs=4, store=ArtifactStore(".repro_sweep"))
    print(render(outcome.rows, "md"))

Parallel results are byte-identical to serial ones, rows included and in
grid order; see :mod:`repro.sweep.runner` for how.
"""

from .grid import (SweepGrid, SweepPoint, keep_variants, make_point,
                   spec_registry, tables_grid)
from .report import COLUMNS, FORMATS, render, to_csv, to_json, to_markdown
from .runner import (SweepOutcome, evaluate_with_status, make_chunks,
                     point_key, run_sweep)
from ..pipeline.store import ArtifactStore

__all__ = [
    "SweepGrid", "SweepPoint", "keep_variants", "make_point",
    "spec_registry", "tables_grid",
    "COLUMNS", "FORMATS", "render", "to_csv", "to_json", "to_markdown",
    "SweepOutcome", "evaluate_with_status", "make_chunks", "point_key",
    "run_sweep", "ArtifactStore",
]
