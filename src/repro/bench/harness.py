"""The benchmark harness: timing, env capture, the BENCH report.

One call -- :func:`run_cases` -- runs a selection of registry cases and
produces the versioned BENCH report: a plain dict with a captured
environment (git revision, python version, cpu count, hash seed), one
entry per case (metric records, check outcomes, an explicit
``skipped_checks`` list, wall seconds) and a schema version.
:func:`to_json_bytes` renders it with sorted keys; the *canonical
payload* (:func:`canonical_payload`) strips everything non-deterministic
-- the environment and every ``measured`` metric -- so its bytes are
identical across repeated runs and hash seeds, which is what
``tests/test_bench.py`` pins.

The cases print paper-style tables through :func:`print_table`;
:func:`report_row` renders one pipeline result as a Table 1/2 row.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs.trace import TraceRecorder, recording, summarize
from ..pipeline.jobs import table_row
from .registry import BenchCase, CheckSkipped

__all__ = [
    "BENCH_SCHEMA", "RunContext",
    "print_table", "report_row", "capture_env",
    "run_cases", "run_case", "failed_checks",
    "canonical_payload", "to_json_bytes", "default_bench_name",
]

#: Version of the BENCH file layout.  Bump on incompatible changes; the
#: comparison refuses to diff reports across schema versions.
BENCH_SCHEMA = 1


def print_table(title: str, header: Sequence[str],
                rows: Sequence[tuple]) -> None:
    """Render a paper-style table to stdout (shown with ``pytest -s``)."""
    print(f"\n=== {title} ===")
    widths = [max(len(str(header[i])),
                  max((len(str(row[i])) for row in rows), default=0))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def report_row(result) -> tuple:
    """(name, area, #CSC, cycle, inputs) of a pipeline result.

    The columns are :func:`repro.pipeline.jobs.table_row`'s; an area
    that is only the estimate (CSC unresolved) is marked with ``~``.
    """
    name, area, csc, cycle, inputs = table_row(result)
    area_text = f"{area}" if result.csc_resolved() else f"~{area}"
    return (name, area_text, csc, cycle, inputs)


@dataclass
class RunContext:
    """What a case's ``run`` callable gets from the harness.

    ``best_of`` is the one timing idiom every throughput case shares:
    clear the engine's memo tables, run, keep the best of N rounds
    (quick mode collapses N to 1).
    """

    quick: bool = False
    rounds: int = 3
    warmup: bool = True

    def timing_rounds(self, rounds: Optional[int] = None) -> int:
        if self.quick:
            return 1
        return self.rounds if rounds is None else rounds

    def best_of(self, fn: Callable[[], Any],
                rounds: Optional[int] = None,
                clear_caches: bool = True) -> Tuple[float, Any]:
        """(best seconds, last result) over min-of-N rounds.

        With ``clear_caches`` the rounds time the *cold* path (memo
        tables reset before each).  Without it they time the warm path,
        preceded by one untimed warmup round outside quick mode.
        """
        from repro import engine

        if not clear_caches and self.warmup and not self.quick:
            fn()
        best_time: Optional[float] = None
        result: Any = None
        for _ in range(self.timing_rounds(rounds)):
            if clear_caches:
                engine.clear_caches()
            started = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - started
            if best_time is None or elapsed < best_time:
                best_time = elapsed
        return best_time or 0.0, result


def _git_rev() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown" if out.returncode == 0 else "unknown"


def capture_env() -> Dict[str, Any]:
    """The measurement environment (full report only, never canonical)."""
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_count": multiprocessing.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
    }


def default_bench_name(env: Optional[Mapping[str, Any]] = None) -> str:
    """``BENCH_<rev>.json`` -- the versioned trajectory file name."""
    rev = (env or capture_env()).get("git_rev", "unknown")
    return f"BENCH_{rev}.json"


def run_case(case: BenchCase, context: Optional[RunContext] = None,
             printer: Optional[Callable[..., None]] = print_table,
             ) -> Dict[str, Any]:
    """Run one case: workload, metrics, checks, optional table.

    Returns the case's report entry.  Check failures do not raise here;
    they are recorded as ``"failed: <message>"`` so one broken case
    cannot hide the metrics of the others -- callers decide via
    :func:`failed_checks`.
    """
    context = context or RunContext()
    recorder = TraceRecorder(meta={"case": case.name})
    started = time.perf_counter()
    with recording(recorder), recorder.span("case:" + case.name):
        result = case.run(context)
    seconds = time.perf_counter() - started

    entry: Dict[str, Any] = {
        "tier": case.tier,
        "title": case.title,
        "seconds": seconds,
        "metrics": {m.name: m.record(result) for m in case.metrics},
        "checks": {},
        "skipped_checks": [],
        # Per-span-name breakdown of the case's trace.  Timing-flavoured
        # like "seconds": canonical_payload copies explicit keys only, so
        # this never reaches the byte-compared canonical projection.
        "trace": {name: {"count": int(totals["count"]),
                         "wall_s": round(totals["wall_s"], 6),
                         "self_s": round(totals["self_s"], 6),
                         "cpu_s": round(totals["cpu_s"], 6)}
                  for name, totals in sorted(
                      summarize(recorder.to_tree()).items())},
    }
    if case.info_keys:
        entry["info"] = {key: result[key] for key in case.info_keys}
    for check in case.checks:
        try:
            check.run(result)
        except CheckSkipped as skip:
            # Environment-dependent caps are recorded, never silent.
            entry["checks"][check.name] = f"skipped: {skip}"
            entry["skipped_checks"].append(f"{check.name}: {skip}")
        except AssertionError as failure:
            message = str(failure) or failure.__class__.__name__
            entry["checks"][check.name] = f"failed: {message}"
        else:
            entry["checks"][check.name] = "passed"

    if printer is not None and case.table is not None:
        header, rows = case.table(result)
        printer(case.title, header, rows)
    return entry


def run_cases(cases: Sequence[BenchCase],
              quick: bool = False,
              rounds: int = 3,
              printer: Optional[Callable[..., None]] = print_table,
              ) -> Dict[str, Any]:
    """Run a case selection into one BENCH report dict."""
    context = RunContext(quick=quick, rounds=1 if quick else rounds)
    report: Dict[str, Any] = {
        "bench_schema": BENCH_SCHEMA,
        "env": capture_env(),
        "cases": {},
    }
    for case in cases:
        report["cases"][case.name] = run_case(case, context, printer=printer)
    return report


def failed_checks(report: Mapping[str, Any]) -> List[str]:
    """``case/check: message`` for every failed check in a report."""
    failures = []
    for name, entry in sorted(report.get("cases", {}).items()):
        for check, outcome in sorted(entry.get("checks", {}).items()):
            if outcome.startswith("failed"):
                failures.append(f"{name}/{check}: {outcome}")
    return failures


def skipped_checks(report: Mapping[str, Any]) -> List[str]:
    """``case/check: reason`` for every skipped check in a report."""
    skips = []
    for name, entry in sorted(report.get("cases", {}).items()):
        for skip in entry.get("skipped_checks", []):
            skips.append(f"{name}/{skip}")
    return skips


def canonical_payload(report: Mapping[str, Any]) -> Dict[str, Any]:
    """The deterministic projection of a BENCH report.

    Drops the environment, per-case wall seconds, the per-stage trace
    breakdown and every ``measured`` metric; what remains (exact metrics,
    check outcomes, skip reasons, info) is byte-identical across repeated
    runs and hash seeds on one machine.
    """
    cases: Dict[str, Any] = {}
    for name, entry in report.get("cases", {}).items():
        canonical: Dict[str, Any] = {
            "tier": entry["tier"],
            "metrics": {
                metric: {key: value for key, value in record.items()}
                for metric, record in entry.get("metrics", {}).items()
                if not record.get("measured")
            },
            "checks": entry.get("checks", {}),
            "skipped_checks": entry.get("skipped_checks", []),
        }
        if "info" in entry:
            canonical["info"] = entry["info"]
        cases[name] = canonical
    return {"bench_schema": report.get("bench_schema"), "cases": cases}


def to_json_bytes(payload: Mapping[str, Any]) -> bytes:
    """Deterministic sorted-key JSON rendering (trailing newline)."""
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
