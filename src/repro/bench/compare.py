"""Baseline comparison: classify metric deltas, render a verdict.

``repro bench --against BENCH_baseline.json`` diffs the fresh report
against a committed baseline:

* **exact** metrics (deterministic counts, areas, flags) must match,
  modulo an explicit per-metric tolerance; a change in the metric's good
  direction is an *improvement*, anything else a *regression* (neutral
  metrics treat any drift as a regression -- regenerate the baseline
  when a change is intentional).
* **measured, gated** metrics (machine-relative ratios such as warm
  speedups) regress when they move beyond the tolerance in the bad
  direction; improvements never fail.
* **measured, ungated** metrics (raw seconds, rates) are *tracked*:
  reported for the trajectory, never a failure -- absolute wall times do
  not transfer between machines, so gating them would make CI lie.
* metrics present in the baseline but absent from the fresh report are
  *missing* (a failure: a refactor silently dropped coverage); baseline
  cases that were not selected this run (tier filters) are listed as
  not-run, which is not a failure.

The result is machine-readable (:meth:`Comparison.to_dict`) and renders
as a markdown table (:meth:`Comparison.to_markdown`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["DEFAULT_TOLERANCE", "MetricDelta", "Comparison", "compare"]

#: Default relative tolerance for gated measured metrics.  Generous on
#: purpose: CI machines are noisy, and the exact metrics plus each
#: case's checks carry the precise claims.
DEFAULT_TOLERANCE = 0.5

_STATUSES = ("ok", "improvement", "regression", "tracked", "missing", "new")


@dataclass(frozen=True)
class MetricDelta:
    """One metric's classification against the baseline."""

    case: str
    metric: str
    status: str
    baseline: Any = None
    current: Any = None
    unit: str = ""
    direction: str = "neutral"
    rel_change: Optional[float] = None
    tolerance: Optional[float] = None
    note: str = ""

    def row(self) -> tuple:
        def fmt(value: Any) -> str:
            if isinstance(value, bool) or value is None:
                return str(value)
            if isinstance(value, float):
                return f"{value:.4g}"
            return str(value)

        change = ("" if self.rel_change is None
                  else f"{self.rel_change * 100:+.1f}%")
        return (self.case, self.metric, fmt(self.baseline),
                fmt(self.current), self.unit, change, self.status)


@dataclass
class Comparison:
    """Every delta plus the verdict of one baseline comparison."""

    deltas: List[MetricDelta] = field(default_factory=list)
    cases_not_run: List[str] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE

    def with_status(self, status: str) -> List[MetricDelta]:
        return [delta for delta in self.deltas if delta.status == status]

    @property
    def regressions(self) -> List[MetricDelta]:
        return self.with_status("regression")

    @property
    def missing(self) -> List[MetricDelta]:
        return self.with_status("missing")

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing

    @property
    def verdict(self) -> str:
        return "pass" if self.ok else "fail"

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable verdict (what the CI gate archives)."""
        return {
            "verdict": self.verdict,
            "tolerance": self.tolerance,
            "counts": {status: len(self.with_status(status))
                       for status in _STATUSES},
            "cases_not_run": list(self.cases_not_run),
            "deltas": [{
                "case": d.case, "metric": d.metric, "status": d.status,
                "baseline": d.baseline, "current": d.current,
                "unit": d.unit, "direction": d.direction,
                "rel_change": d.rel_change, "tolerance": d.tolerance,
                "note": d.note,
            } for d in self.deltas],
        }

    def to_markdown(self, show_ok: bool = False) -> str:
        """The human-facing verdict table.

        By default only the interesting rows (anything not plain
        ``ok``/``tracked``) appear; ``show_ok`` renders everything.
        """
        lines = [f"## Bench comparison: **{self.verdict}** "
                 f"(tolerance {self.tolerance:.0%})", ""]
        shown = [d for d in self.deltas
                 if show_ok or d.status not in ("ok", "tracked")]
        if shown:
            lines.append("| case | metric | baseline | current | unit "
                         "| change | status |")
            lines.append("| --- | --- | --- | --- | --- | --- | --- |")
            for delta in shown:
                lines.append("| " + " | ".join(str(cell)
                                               for cell in delta.row()) + " |")
            lines.append("")
        counts = ", ".join(f"{len(self.with_status(s))} {s}"
                           for s in _STATUSES if self.with_status(s))
        lines.append(f"{len(self.deltas)} metrics compared: {counts or 'none'}.")
        if self.cases_not_run:
            lines.append(f"Baseline cases not run this time: "
                         f"{', '.join(self.cases_not_run)}.")
        return "\n".join(lines) + "\n"


def _numeric(value: Any) -> Optional[float]:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    return None


def _classify(case: str, name: str, base: Mapping[str, Any],
              cur: Mapping[str, Any], default_tol: float) -> MetricDelta:
    direction = cur.get("direction", base.get("direction", "neutral"))
    unit = cur.get("unit", base.get("unit", ""))
    measured = bool(cur.get("measured", base.get("measured")))
    gated = bool(cur.get("gated", not measured))
    base_value, cur_value = base.get("value"), cur.get("value")
    tolerance = cur.get("tolerance", base.get("tolerance"))
    if tolerance is None:
        tolerance = default_tol if measured else 0.0

    common = dict(case=case, metric=name, baseline=base_value,
                  current=cur_value, unit=unit, direction=direction,
                  tolerance=tolerance)

    base_num, cur_num = _numeric(base_value), _numeric(cur_value)
    if base_num is None or cur_num is None:
        # Non-numeric values (strings, lists in info-style metrics):
        # equality or bust.
        if base_value == cur_value:
            return MetricDelta(status="ok", **common)
        return MetricDelta(status="regression",
                           note="non-numeric value changed", **common)

    rel = None
    if base_num != 0:
        rel = (cur_num - base_num) / abs(base_num)
    common["rel_change"] = rel

    if not gated:
        return MetricDelta(status="tracked", **common)

    if rel is None:  # baseline of exactly zero
        within = abs(cur_num - base_num) <= tolerance
        worse = ((direction == "higher" and cur_num < base_num)
                 or (direction == "lower" and cur_num > base_num)
                 or (direction == "neutral" and cur_num != base_num))
        if within or cur_num == base_num:
            return MetricDelta(status="ok", **common)
        return MetricDelta(status="regression" if worse else "improvement",
                           **common)

    if abs(rel) <= tolerance:
        return MetricDelta(status="ok", **common)
    better = ((direction == "higher" and rel > 0)
              or (direction == "lower" and rel < 0))
    return MetricDelta(status="improvement" if better else "regression",
                       **common)


def compare(current: Mapping[str, Any], baseline: Mapping[str, Any],
            tolerance: Optional[float] = None) -> Comparison:
    """Diff a fresh BENCH report against a baseline BENCH report."""
    if current.get("bench_schema") != baseline.get("bench_schema"):
        raise ValueError(
            f"BENCH schema mismatch: current "
            f"{current.get('bench_schema')!r} vs baseline "
            f"{baseline.get('bench_schema')!r}; regenerate the baseline")
    result = Comparison(tolerance=DEFAULT_TOLERANCE
                        if tolerance is None else tolerance)
    current_cases = current.get("cases", {})
    baseline_cases = baseline.get("cases", {})
    for case_name in baseline_cases:
        if case_name not in current_cases:
            result.cases_not_run.append(case_name)
            continue
        base_metrics = baseline_cases[case_name].get("metrics", {})
        cur_metrics = current_cases[case_name].get("metrics", {})
        for name, base_record in base_metrics.items():
            if name not in cur_metrics:
                result.deltas.append(MetricDelta(
                    case=case_name, metric=name, status="missing",
                    baseline=base_record.get("value"),
                    unit=base_record.get("unit", ""),
                    direction=base_record.get("direction", "neutral"),
                    note="metric dropped from the registry"))
                continue
            result.deltas.append(_classify(
                case_name, name, base_record, cur_metrics[name],
                result.tolerance))
        for name, cur_record in cur_metrics.items():
            if name not in base_metrics:
                result.deltas.append(MetricDelta(
                    case=case_name, metric=name, status="new",
                    current=cur_record.get("value"),
                    unit=cur_record.get("unit", ""),
                    direction=cur_record.get("direction", "neutral"),
                    note="not in baseline"))
    return result
