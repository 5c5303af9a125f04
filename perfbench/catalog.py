"""The metric catalogue: every metric a run prints, with unit and direction.

``BENCHMARK.json`` lists the same metrics; ``perfbench/tests`` checks
that the two agree.  End-to-end metrics come from untraced runs and are
printed by every workload; per-layer metrics come from traced runs and
are printed by every workload too, as 0 where a workload does not
exercise the layer (see ``perfbench/NOTES.md`` for which layer moves on
which workload).
"""

from __future__ import annotations

from typing import Dict, Mapping

from layers import LayerTotals

#: name -> (unit, better, bound).  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is rejected.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "points_per_s": ("1/s", "higher", 0.25),
    "point_s_p50": ("s", "lower", 0.25),
    "point_s_p95": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

#: name -> (unit, better).
PER_LAYER = {
    "hse.expand_s": ("s", "lower"),
    "petri.parse_s": ("s", "lower"),
    "sg.generate_s": ("s", "lower"),
    "sg.build_s": ("s", "lower"),
    "sg.states": ("count", "lower"),
    "sg.arcs": ("count", "lower"),
    "sg.check_s": ("s", "lower"),
    "explore.reach_s": ("s", "lower"),
    "explore.states_per_s": ("1/s", "higher"),
    "reduction.search_s": ("s", "lower"),
    "reduction.explored": ("count", "lower"),
    "reduction.expanded": ("count", "lower"),
    "reduction.explored_per_s": ("1/s", "higher"),
    "encoding.resolve_s": ("s", "lower"),
    "encoding.csc_signals": ("count", "lower"),
    "encoding.resolved_ratio": ("ratio", "higher"),
    "logic.minimize_s": ("s", "lower"),
    "logic.cover_literals": ("count", "lower"),
    "circuit.synthesize_s": ("s", "lower"),
    "timing.cycle_s": ("s", "lower"),
    "verify.conformance_s": ("s", "lower"),
    "verify.product_states": ("count", "lower"),
    "verify.product_states_per_s": ("1/s", "higher"),
    "symbolic.reach_s": ("s", "lower"),
    "symbolic.coding_s": ("s", "lower"),
    "symbolic.peak_nodes": ("count", "lower"),
    "pipeline.encode_s": ("s", "lower"),
    "pipeline.decode_s": ("s", "lower"),
    "pipeline.digest_s": ("s", "lower"),
    "pipeline.store_put_s": ("s", "lower"),
    "pipeline.store_get_s": ("s", "lower"),
    "pipeline.store_bytes": ("bytes", "lower"),
    "pipeline.stages_s": ("s", "lower"),
    "pipeline.stage_hit_ratio": ("ratio", "higher"),
    "pipeline.overhead_s": ("s", "lower"),
    "serve.queue_wait_s_p50": ("s", "lower"),
    "serve.tasks_executed": ("count", "lower"),
    "serve.dedup_hits": ("count", "higher"),
    "serve.http_overhead_s": ("s", "lower"),
    "serve.dispatch_s": ("s", "lower"),
    "serve.cold_req_per_s": ("1/s", "higher"),
    "serve.cold_req_s_p95": ("s", "lower"),
    "serve.warm_req_per_s": ("1/s", "higher"),
    "serve.warm_req_s_p95": ("s", "lower"),
    "engine.cache_entries": ("count", "lower"),
    "qor.area_literals": ("literals", "lower"),
    "qor.csc_signals": ("count", "lower"),
    "qor.cycle_time": ("delay", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_values(totals: LayerTotals) -> Dict[str, float]:
    """The per-layer metrics a span fold yields.

    Layer times are self times, except ``sg.generate_s``, which includes
    the reachability run inside generation (``sg.build_s`` is the rest).
    ``pipeline.stages_s`` is ``run_pipeline``'s own stage orchestration:
    the ``pipeline``/``stage:*`` span self time (key assembly, metrics,
    span bookkeeping).
    """
    busy, counts = totals.busy, totals.counts
    reach = busy["explore.reach"]
    resolve_runs = counts["encoding.resolve.runs"]
    return {
        "hse.expand_s": busy["hse.expand"],
        "petri.parse_s": busy["petri.parse"],
        "sg.generate_s": busy["sg.generate"] + reach,
        "sg.build_s": busy["sg.generate"],
        "sg.states": counts["sg.generate.states"],
        "sg.arcs": counts["sg.generate.arcs"],
        "sg.check_s": busy["sg.check"],
        "explore.reach_s": reach,
        "explore.states_per_s": _rate(counts["explore.reach.states"], reach),
        "reduction.search_s": busy["reduction.search"],
        "reduction.explored": counts["reduction.search.explored"],
        "reduction.expanded": counts["reduction.search.expanded"],
        "reduction.explored_per_s": _rate(counts["reduction.search.explored"],
                                          busy["reduction.search"]),
        "encoding.resolve_s": busy["encoding.resolve"],
        "encoding.csc_signals": counts["encoding.resolve.csc_signals"],
        "encoding.resolved_ratio": _rate(counts["encoding.resolve.resolved"],
                                         resolve_runs),
        "logic.minimize_s": busy["logic.minimize"],
        "logic.cover_literals": counts["logic.minimize.literals"],
        "circuit.synthesize_s": busy["circuit.synthesize"],
        "timing.cycle_s": busy["timing.cycle"],
        "verify.conformance_s": busy["verify.conformance"],
        "verify.product_states": counts["verify.conformance.product_states"],
        "verify.product_states_per_s": _rate(
            counts["verify.conformance.product_states"],
            busy["verify.conformance"]),
        "symbolic.reach_s": busy["symbolic.reach"],
        "symbolic.coding_s": busy["symbolic.coding"],
        "symbolic.peak_nodes": max(counts["symbolic.coding.nodes"],
                                   counts["symbolic.reach.nodes"]),
        "pipeline.encode_s": busy["pipeline.encode"],
        "pipeline.decode_s": busy["pipeline.decode"],
        "pipeline.digest_s": busy["pipeline.digest"],
        "pipeline.store_put_s": busy["pipeline.store_put"],
        "pipeline.store_get_s": busy["pipeline.store_get"],
        "pipeline.stages_s": busy["pipeline.stages"],
    }


def per_layer_metrics(values: Mapping[str, float]) -> Dict[str, dict]:
    """Render every per-layer metric, 0 where the workload has no value."""
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, (unit, _) in PER_LAYER.items()}


def end_to_end_metrics(values: Mapping[str, float]) -> Dict[str, dict]:
    """Render every end-to-end metric; each workload must give them all."""
    return {name: {"value": float(values[name]), "unit": unit}
            for name, (unit, _, _) in END_TO_END.items()}
