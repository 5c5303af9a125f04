"""Serving throughput and guarantees: cold vs warm, dedup, determinism.

Drives a real server (sockets, HTTP, the worker executor -- nothing
mocked) through the acceptance properties of the serving layer: a fresh
server over a warm store answers with zero stages computed; N identical
concurrent requests trigger exactly one computation; ``workers=1`` and
``workers=4`` servers produce byte-identical result payloads; and the
cold/history/warm request rates give the throughput trajectory.
"""

from __future__ import annotations

import json
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

from ..registry import BenchCase, Check, Metric, register, require

#: Suite specs small enough to keep the benchmark minutes-free; mmu's
#: unreduced CSC search alone would dwarf every serving effect measured
#: here (same exclusion as the sweep/pipeline cases).
SPECS = ("half", "vme_read", "fifo_cell", "lr")

CONCURRENT_CLIENTS = 8


def _call(base, path, payload=None, timeout=300):
    if payload is None:
        request = urllib.request.Request(base + path)
    else:
        request = urllib.request.Request(
            base + path, data=json.dumps(payload).encode("utf-8"),
            method="POST")
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def _synth_all(base, specs):
    """POST every spec (blocking); returns {spec: job view} and seconds."""
    started = time.perf_counter()
    views = {spec: _call(base, "/synth", {"spec": spec, "wait": True})
             for spec in specs}
    return views, time.perf_counter() - started


def _stage_counts(views):
    computed = reused = 0
    for view in views.values():
        for state in view["stages"].values():
            if state == "cached":
                reused += 1
            else:
                computed += 1
    return computed, reused


def run_serve_throughput(context) -> dict:
    from repro.serve import BackgroundServer, json_bytes

    result = {"specs": list(SPECS),
              "concurrent_clients": CONCURRENT_CLIENTS}

    with tempfile.TemporaryDirectory() as tempdir:
        store = str(Path(tempdir) / "store")

        # ---- cold phase: fresh server, empty store -------------------
        with BackgroundServer(store_root=store, workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            cold_views, cold_seconds = _synth_all(base, SPECS)
            computed, reused = _stage_counts(cold_views)
            result["cold_seconds"] = cold_seconds
            result["cold_rps"] = len(SPECS) / cold_seconds
            result["cold_stages_computed"] = computed
            result["cold_stages_reused"] = reused

            # Same-server repeat: answered from job history.
            history_views, history_seconds = _synth_all(base, SPECS)
            result["history_seconds"] = history_seconds
            result["history_rps"] = len(SPECS) / history_seconds
            result["history_same_results"] = all(
                json_bytes(history_views[s]["result"])
                == json_bytes(cold_views[s]["result"]) for s in SPECS)

            # In-flight dedup: concurrent identical requests, one compute.
            stats_before = _call(base, "/stats")
            hits = []

            def hit():
                hits.append(_call(base, "/synth",
                                  {"spec": "micropipeline", "wait": True}))

            threads = [threading.Thread(target=hit)
                       for _ in range(CONCURRENT_CLIENTS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats_after = _call(base, "/stats")
            result["dedup_executions"] = (stats_after["tasks_executed"]
                                          - stats_before["tasks_executed"])
            result["dedup_hits"] = (stats_after["dedup_hits"]
                                    - stats_before["dedup_hits"])
            result["dedup_distinct_bodies"] = len(
                {json_bytes(view["result"]) for view in hits})

        # ---- warm phase: FRESH server over the now-warm store --------
        with BackgroundServer(store_root=store, workers=0) as server:
            base = f"http://127.0.0.1:{server.port}"
            warm_views, warm_seconds = _synth_all(base, SPECS)
            computed, reused = _stage_counts(warm_views)
            result["warm_seconds"] = warm_seconds
            result["warm_rps"] = len(SPECS) / warm_seconds
            result["warm_stages_computed"] = computed
            result["warm_stages_reused"] = reused
            result["warm_speedup"] = cold_seconds / warm_seconds
            result["warm_same_results"] = all(
                json_bytes(warm_views[s]["result"])
                == json_bytes(cold_views[s]["result"]) for s in SPECS)

        # ---- worker-count determinism: 1 vs 4, separate cold stores --
        sweep_request = {"specs": ["lr", "half"],
                         "strategies": ["none", "best-first", "full"],
                         "wait": True, "timeout": 600}
        bodies = {}
        for workers in (1, 4):
            with BackgroundServer(
                    store_root=str(Path(tempdir) / f"w{workers}"),
                    workers=workers) as server:
                base = f"http://127.0.0.1:{server.port}"
                synth = {spec: _call(base, "/synth",
                                     {"spec": spec, "wait": True})
                         for spec in SPECS}
                sweep = _call(base, "/sweep", sweep_request)
                require(sweep["status"] == "done",
                        f"sweep job failed: {sweep.get('error')}")
                bodies[workers] = (
                    {spec: json_bytes(view["result"])
                     for spec, view in synth.items()},
                    json_bytes(sweep["result"]))
        result["workers_1_vs_4_synth_identical"] = (
            bodies[1][0] == bodies[4][0])
        result["workers_1_vs_4_sweep_identical"] = (
            bodies[1][1] == bodies[4][1])

    return result


register(BenchCase(
    name="serve_throughput",
    title="Synthesis service: cold vs warm over the suite specs",
    tier="full",
    run=run_serve_throughput,
    metrics=(
        Metric("concurrent_clients", "clients"),
        Metric("dedup_executions", "computations", direction="lower"),
        Metric("dedup_hits", "hits"),
        Metric("dedup_distinct_bodies", "bodies"),
        Metric("cold_stages_computed", "stages", direction="lower"),
        Metric("cold_stages_reused", "stages"),
        Metric("warm_stages_computed", "stages", direction="lower"),
        Metric("warm_stages_reused", "stages"),
        Metric("cold_seconds", "s", direction="lower", measured=True),
        Metric("history_seconds", "s", direction="lower", measured=True),
        Metric("warm_seconds", "s", direction="lower", measured=True),
        Metric("cold_rps", "req/s", direction="higher", measured=True),
        Metric("history_rps", "req/s", direction="higher", measured=True),
        Metric("warm_rps", "req/s", direction="higher", measured=True),
        Metric("warm_speedup", "x", direction="higher", measured=True),
    ),
    checks=(
        Check("warm_computes_nothing", lambda r: require(
            r["warm_stages_computed"] == 0
            and r["warm_stages_reused"] > 0
            and r["warm_same_results"] and r["history_same_results"],
            "a warm repeated request must compute zero pipeline stages "
            "and return identical bytes")),
        Check("in_flight_dedup", lambda r: require(
            r["dedup_executions"] == 1
            and r["dedup_hits"] == r["concurrent_clients"] - 1
            and r["dedup_distinct_bodies"] == 1,
            f"{CONCURRENT_CLIENTS} identical concurrent requests must "
            f"trigger exactly one computation")),
        Check("worker_count_determinism", lambda r: require(
            r["workers_1_vs_4_synth_identical"]
            and r["workers_1_vs_4_sweep_identical"],
            "workers=1 and workers=4 must produce byte-identical "
            "results")),
        Check("serving_beats_cold", lambda r: require(
            r["history_seconds"] < r["cold_seconds"]
            and r["warm_seconds"] < r["cold_seconds"],
            "history and warm phases must beat cold computation")),
    ),
    info_keys=("specs",),
    table=lambda r: (
        ("phase", "seconds", "req/s", "stages computed", "stages reused"),
        [("cold (empty store)", f"{r['cold_seconds']:.2f}",
          f"{r['cold_rps']:.1f}", r["cold_stages_computed"],
          r["cold_stages_reused"]),
         ("repeat (job history)", f"{r['history_seconds']:.3f}",
          f"{r['history_rps']:.1f}", 0, 0),
         ("warm (fresh server)", f"{r['warm_seconds']:.2f}",
          f"{r['warm_rps']:.1f}", r["warm_stages_computed"],
          r["warm_stages_reused"])]),
))
