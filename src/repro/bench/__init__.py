"""The unified benchmark harness behind ``repro bench``.

The package has four parts:

* :mod:`repro.bench.registry` -- the declarative case registry
  (:class:`BenchCase`, :class:`Metric`, :class:`Check`).
* :mod:`repro.bench.harness` -- timing, environment capture, the
  versioned BENCH report and its deterministic canonical payload.
* :mod:`repro.bench.compare` -- baseline comparison with per-metric
  tolerances and a machine-readable verdict.
* :mod:`repro.bench.cases` -- the registered cases, one module per
  benchmark family.

``python -m repro bench`` is the command-line entry point
(``--cases NAME`` runs one case).
"""

from __future__ import annotations

from .compare import DEFAULT_TOLERANCE, Comparison, MetricDelta, compare
from .harness import (BENCH_SCHEMA, RunContext, canonical_payload,
                      capture_env, default_bench_name, failed_checks,
                      print_table, report_row, run_case, run_cases,
                      skipped_checks, to_json_bytes)
from .registry import (TIERS, BenchCase, Check, CheckFailed, CheckSkipped,
                       Metric, MissingMetric, all_cases, case_names,
                       get_case, register, select_cases)

__all__ = [
    "TIERS", "BenchCase", "Check", "Metric",
    "CheckFailed", "CheckSkipped", "MissingMetric",
    "register", "get_case", "case_names", "select_cases", "all_cases",
    "BENCH_SCHEMA", "RunContext", "capture_env", "default_bench_name",
    "run_case", "run_cases", "failed_checks", "skipped_checks",
    "canonical_payload", "to_json_bytes", "print_table", "report_row",
    "DEFAULT_TOLERANCE", "Comparison", "MetricDelta", "compare",
]

