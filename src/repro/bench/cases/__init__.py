"""The registered benchmark cases, one module per bench family.

Importing this package registers every case with
:mod:`repro.bench.registry` (import order is fixed, so registry order --
and therefore run order and report layout -- is deterministic).  Run one
with ``python -m repro bench --cases NAME``.

| module | cases |
| --- | --- |
| ``figures``  | fig1/fig2/fig3/fig6/fig8/fig10 |
| ``tables``   | table1_lr, table2_mmu, ablation_search |
| ``engine``   | engine_scaling |
| ``frontier`` | frontier_scaling (shared exploration core) |
| ``symbolic`` | symbolic_scaling (BDD crossover) |
| ``fuzzing``  | fuzz_throughput (differential fuzz oracle) |
| ``sweeps``   | sweep_throughput |
| ``pipelines``| pipeline_resume |
| ``serving``  | serve_throughput |
| ``verifying``| verify_throughput |
"""

from . import (figures, tables, engine, frontier, symbolic,  # noqa: F401
               fuzzing, sweeps, pipelines, serving, verifying)
