"""Sweep throughput: design points per second, serial vs sharded.

Runs the Tables 1-2 *search* grid (the ``none`` strategy is excluded --
implementing the unreduced MMU is a multi-level CSC search that would
benchmark state-signal insertion, not sweep breadth) three ways:
parallel cold, serial cold, parallel warm against the first store.

The parallel-speedup floor is environment-dependent: on fewer than four
CPUs the claim cannot be tested, and instead of quietly degrading (the
old ad-hoc script simply did not assert) the check raises
:class:`~repro.bench.registry.CheckSkipped`, which the harness records
in the report's ``skipped_checks`` -- no silent cap.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from pathlib import Path

from ..registry import (BenchCase, Check, CheckSkipped, Metric, register,
                        require)

PARALLEL_JOBS = 4
SPEEDUP_FLOOR = 2.5

#: Chunks of two points keep the pool's dynamic scheduling fine-grained
#: enough that one heavy spec (MMU) cannot serialize a worker for long,
#: while same-spec chunks still share the worker-side SG and memo caches.
CHUNK_SIZE = 2


def run_sweep_throughput(context) -> dict:
    from repro import engine
    from repro.sweep import ArtifactStore, render, run_sweep, tables_grid

    def timed(grid, jobs, store):
        engine.clear_caches()
        started = time.perf_counter()
        outcome = run_sweep(grid, jobs=jobs, store=store,
                            chunk_size=CHUNK_SIZE)
        return time.perf_counter() - started, outcome

    grid = tables_grid(strategies=("beam", "best-first", "full"))
    points = len(grid.points)

    with tempfile.TemporaryDirectory() as tempdir:
        parallel_store = ArtifactStore(Path(tempdir) / "parallel")
        serial_store = ArtifactStore(Path(tempdir) / "serial")

        # Parallel first: its workers must not inherit memo tables
        # warmed by the serial phase (the pool forks from this process).
        parallel_seconds, parallel = timed(grid, PARALLEL_JOBS,
                                           parallel_store)
        serial_seconds, serial = timed(grid, 1, serial_store)
        warm_seconds, warm = timed(grid, PARALLEL_JOBS, parallel_store)

    identical = all(render(serial.rows, fmt) == render(parallel.rows, fmt)
                    and render(serial.rows, fmt) == render(warm.rows, fmt)
                    for fmt in ("json", "csv", "md"))

    return {
        "points": points,
        "jobs": PARALLEL_JOBS,
        "cpu_count": multiprocessing.cpu_count(),
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "warm_seconds": warm_seconds,
        "points_per_second_serial": points / serial_seconds,
        "points_per_second_parallel": points / parallel_seconds,
        "points_per_second_warm": points / warm_seconds,
        "speedup_parallel_vs_serial": serial_seconds / parallel_seconds,
        "speedup_warm_vs_cold": parallel_seconds / warm_seconds,
        "serial_computed": serial.computed,
        "parallel_computed": parallel.computed,
        "warm_computed": warm.computed,
        "warm_cached": warm.cached,
        "reports_identical_serial_parallel_warm": identical,
    }


def _check_parallel_speedup(result: dict) -> None:
    if result["cpu_count"] < PARALLEL_JOBS:
        # The old script's silent degradation, made loud: the claim is
        # recorded as skipped with the reason, never just dropped.
        raise CheckSkipped(
            f"cpu_count={result['cpu_count']} < {PARALLEL_JOBS}: the "
            f"parallel-speedup floor needs {PARALLEL_JOBS} CPUs")
    require(result["speedup_parallel_vs_serial"] >= SPEEDUP_FLOOR,
            f"jobs={PARALLEL_JOBS} must deliver >= {SPEEDUP_FLOOR}x "
            f"serial points/sec, got "
            f"{result['speedup_parallel_vs_serial']:.2f}x")


register(BenchCase(
    name="sweep_throughput",
    title="Sweep throughput (full Tables 1-2 search grid)",
    tier="full",
    run=run_sweep_throughput,
    metrics=(
        Metric("points", "points"),
        Metric("serial_computed", "points"),
        Metric("parallel_computed", "points"),
        Metric("warm_computed", "points"),
        Metric("warm_cached", "points"),
        Metric("serial_seconds", "s", direction="lower", measured=True),
        Metric("parallel_seconds", "s", direction="lower", measured=True),
        Metric("warm_seconds", "s", direction="lower", measured=True),
        Metric("points_per_second_serial", "points/s", direction="higher",
               measured=True),
        Metric("points_per_second_parallel", "points/s", direction="higher",
               measured=True),
        Metric("points_per_second_warm", "points/s", direction="higher",
               measured=True),
        Metric("speedup_parallel_vs_serial", "x", direction="higher",
               measured=True),
        Metric("speedup_warm_vs_cold", "x", direction="higher",
               measured=True),
    ),
    checks=(
        Check("sharding_deterministic", lambda r: require(
            r["reports_identical_serial_parallel_warm"],
            "serial, parallel and warm reports must be byte-identical")),
        Check("warm_store_sound", lambda r: require(
            r["warm_computed"] == 0 and r["warm_cached"] == r["points"],
            "a warm rerun must serve every point from the store")),
        Check("parallel_speedup_floor", _check_parallel_speedup),
    ),
    table=lambda r: (
        ("phase", "seconds", "points/s", "computed"),
        [("serial cold", f"{r['serial_seconds']:.2f}",
          f"{r['points_per_second_serial']:.1f}", r["serial_computed"]),
         (f"jobs={r['jobs']} cold", f"{r['parallel_seconds']:.2f}",
          f"{r['points_per_second_parallel']:.1f}", r["parallel_computed"]),
         (f"jobs={r['jobs']} warm", f"{r['warm_seconds']:.2f}",
          f"{r['points_per_second_warm']:.1f}", r["warm_computed"])]),
))
