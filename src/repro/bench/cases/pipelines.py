"""Pipeline resume: cold vs warm wall time and per-stage hit rates.

Drives the suite grid (every registered spec except the MMU controller,
whose unreduced CSC search alone dwarfs the rest of the grid combined --
the same exclusion as the sweep-throughput case) through four phases
against one content-addressed store: cold, warm, a delays-only change
(only the ``timing`` stage may recompute) and a cold ``jobs=2`` run.
The checks pin the four resume claims: determinism, store soundness,
stage-granular resume and cross-point stage sharing.
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from ..registry import BenchCase, Check, Metric, register, require

STRATEGIES = ("none", "beam", "best-first", "full")
EXCLUDED_SPECS = ("mmu",)

#: The delays phase swaps the Table 1 model (2/1/1) for a slower
#: internal-signal model; only the timing stage depends on it.
ALTERNATE_DELAYS = (2, 1, 3)

#: Stages a sweep point evaluates when everything misses.
STAGE_SLOTS_PER_POINT = 5  # generate/reduce/resolve/synthesize/timing


def run_pipeline_resume(context) -> dict:
    from repro import engine
    from repro.specs.registry import spec_names
    from repro.sweep import ArtifactStore, render, run_sweep, tables_grid

    def timed(grid, jobs, store):
        engine.clear_caches()
        started = time.perf_counter()
        outcome = run_sweep(grid, jobs=jobs, store=store)
        return time.perf_counter() - started, outcome

    specs = [name for name in spec_names() if name not in EXCLUDED_SPECS]
    grid = tables_grid(specs=specs, strategies=STRATEGIES)
    delays_grid = tables_grid(specs=specs, strategies=STRATEGIES,
                              delays=ALTERNATE_DELAYS)
    points = len(grid.points)

    with tempfile.TemporaryDirectory() as tempdir:
        serial_store = ArtifactStore(Path(tempdir) / "serial")
        jobs_store = ArtifactStore(Path(tempdir) / "jobs")

        cold_seconds, cold = timed(grid, 1, serial_store)
        warm_seconds, warm = timed(grid, 1, serial_store)
        delays_seconds, delays = timed(delays_grid, 1, serial_store)
        jobs_seconds, jobs = timed(grid, 2, jobs_store)

    identical = all(render(cold.rows, fmt) == render(warm.rows, fmt)
                    and render(cold.rows, fmt) == render(jobs.rows, fmt)
                    for fmt in ("json", "csv", "md"))

    result = {
        "specs": specs,
        "points": points,
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "delays_seconds": delays_seconds,
        "jobs_seconds": jobs_seconds,
        "speedup_warm_vs_cold": cold_seconds / warm_seconds,
        "speedup_delays_vs_cold": cold_seconds / delays_seconds,
        "cold_computed_points": cold.computed,
        "warm_computed_points": warm.computed,
        "warm_cached_points": warm.cached,
        "delays_computed_points": delays.computed,
        "cold_stage_computed": dict(sorted(cold.stage_computed.items())),
        "cold_stage_reused": dict(sorted(cold.stage_reused.items())),
        "delays_stage_computed": dict(sorted(delays.stage_computed.items())),
        "delays_stage_reused": dict(sorted(delays.stage_reused.items())),
        "cold_stages_computed_total": sum(cold.stage_computed.values()),
        "delays_stages_computed_total": sum(delays.stage_computed.values()),
        "cold_stage_slots": points * STAGE_SLOTS_PER_POINT,
        "reports_identical_cold_warm_jobs": identical,
    }
    return result


register(BenchCase(
    name="pipeline_resume",
    title="Pipeline resume (suite grid, stage-granular warm store)",
    tier="full",
    run=run_pipeline_resume,
    metrics=(
        Metric("points", "points"),
        Metric("cold_computed_points", "points"),
        Metric("warm_computed_points", "points"),
        Metric("warm_cached_points", "points"),
        Metric("delays_computed_points", "points"),
        Metric("cold_stages_computed_total", "stages", direction="lower"),
        Metric("delays_stages_computed_total", "stages", direction="lower"),
        Metric("cold_stage_slots", "stages"),
        Metric("cold_seconds", "s", direction="lower", measured=True),
        Metric("warm_seconds", "s", direction="lower", measured=True),
        Metric("delays_seconds", "s", direction="lower", measured=True),
        Metric("jobs_seconds", "s", direction="lower", measured=True),
        Metric("speedup_warm_vs_cold", "x", direction="higher",
               measured=True),
        Metric("speedup_delays_vs_cold", "x", direction="higher",
               measured=True),
    ),
    checks=(
        Check("determinism", lambda r: require(
            r["reports_identical_cold_warm_jobs"],
            "cold, warm and jobs=2 reports must be byte-identical")),
        Check("warm_store_sound", lambda r: require(
            r["warm_computed_points"] == 0
            and r["warm_cached_points"] == r["points"],
            "a warm rerun must compute zero points")),
        Check("stage_granular_resume", lambda r: require(
            set(r["delays_stage_computed"]) == {"timing"}
            and all(r["delays_stage_reused"][stage] == r["points"]
                    for stage in ("generate", "reduce", "resolve",
                                  "synthesize")),
            "a delay-model change must recompute only the timing stage")),
        Check("cross_point_sharing", lambda r: require(
            r["cold_stages_computed_total"] < r["cold_stage_slots"],
            "content-addressed keys must dedup stages across points "
            "already in the cold run")),
        Check("delays_cheaper_than_cold", lambda r: require(
            r["delays_seconds"] < r["cold_seconds"],
            "the delays-only rerun must beat the cold run")),
    ),
    info_keys=("specs", "cold_stage_computed", "cold_stage_reused",
               "delays_stage_computed", "delays_stage_reused"),
    table=lambda r: (
        ("phase", "seconds", "points computed", "stages computed"),
        [("cold serial", f"{r['cold_seconds']:.2f}",
          r["cold_computed_points"], r["cold_stages_computed_total"]),
         ("warm serial", f"{r['warm_seconds']:.2f}",
          r["warm_computed_points"], 0),
         ("delays-only change", f"{r['delays_seconds']:.2f}",
          r["delays_computed_points"], r["delays_stages_computed_total"])]),
))
