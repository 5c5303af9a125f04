"""Table-level cases: Tables 1-2 and the Fig. 9 exploration ablation.

The paper's quantitative tables, regenerated end to end.  Absolute units
differ from the paper's library; the checks pin the *shape* each table
demonstrates (orderings, CSC counts, ratios), and the exact metrics pin
our own trajectory so an engine change that silently shifts an area or a
cycle time trips the baseline comparison.
"""

from __future__ import annotations

from ...pipeline.jobs import table_row
from ..harness import report_row
from ..registry import BenchCase, Check, Metric, register, require

TABLE1_PAPER = {  # area, #CSC, cr.cycle, inp.events from Table 1
    "Q-module (hand)": (104, 1, 14, 4),
    "Full reduction": (0, 0, 8, 4),
    "Max. concurrency": (168, 2, 13, 3),
    "li || ri": (144, 0, 9, 3),
    "li || ro": (160, 1, 11, 3),
    "lo || ri": (136, 1, 11, 3),
    "lo || ro": (232, 2, 16, 3),
}

TABLE2_PAPER = {  # area, #CSC, cr.cycle, inp.events from Table 2
    "original": (744, 2, 100, 4),
    "original reduced": (208, 0, 118, 6),
    "csc reduced": (96, 1, 123, 7),
    "|| (b, l, r)": (440, 1, 101, 4),
    "|| (b, m, r)": (384, 0, 94, 4),
    "|| (b, l, m)": (352, 1, 104, 5),
    "|| (l, m, r)": (368, 1, 105, 5),
}

#: The metric name prefix of every Table 2 row: its area and cycle time
#: are pinned as ``<prefix>_area`` and ``<prefix>_cycle``.
TABLE2_METRIC_PREFIX = {
    "original": "original",
    "original reduced": "original_reduced",
    "csc reduced": "csc_reduced",
    "|| (b, l, r)": "keep_b_l_r",
    "|| (b, m, r)": "keep_b_m_r",
    "|| (b, l, m)": "keep_b_l_m",
    "|| (l, m, r)": "keep_l_m_r",
}


def _paper_table(result: dict, paper: dict):
    rows = [tuple(row) + (f"paper:{paper[row[0]]}",)
            for row in result["rows"]]
    return (("circuit", "area", "#CSC", "cr.cycle", "inp.events", "ref"),
            rows)


# --------------------------------------------------------------------------
# Table 1: the LR-process area/performance trade-off.

def run_table1(context) -> dict:
    from repro import FlowConfig, generate_sg, run_pipeline
    from repro.logic.minimize import logic_work
    from repro.sg.regions import are_concurrent
    from repro.specs.lr import (TABLE1_KEEP_CONC, TABLE1_ROWS, lr_expanded,
                                q_module_stg)

    def build():
        before = logic_work()["primes"]
        sg = generate_sg(lr_expanded())
        results = {"Q-module (hand)": run_pipeline(
            FlowConfig(strategy="none"), stg=q_module_stg(),
            name="Q-module (hand)")}
        for name, config in TABLE1_ROWS.items():
            results[name] = run_pipeline(config, initial_sg=sg, name=name)
        return results, logic_work()["primes"] - before

    # Every round starts cold, so ``primes`` is the same in each.
    seconds, (results, primes) = context.best_of(build)
    rows = {name: table_row(result) for name, result in results.items()}
    area = {name: row.area for name, row in rows.items()}
    csc = {name: row.csc_signals for name, row in rows.items()}
    pairs_kept = all(are_concurrent(results[name].reduced_sg(), *keep[0])
                     for name, keep in TABLE1_KEEP_CONC.items())
    return {
        "rows": [report_row(result) for result in results.values()],
        "area": area,
        "csc": csc,
        "pair_names": list(TABLE1_KEEP_CONC),
        "pairs_kept": pairs_kept,
        "primes": primes,
        "table_seconds": seconds,
        "full_area": area["Full reduction"],
        "max_area": area["Max. concurrency"],
        "q_area": area["Q-module (hand)"],
        "lo_ro_area": area["lo || ro"],
        "total_area": sum(area.values()),
        "max_csc_signals": csc["Max. concurrency"],
        "all_resolved": all(result.csc_resolved()
                            for result in results.values()),
        "input_events": sorted({row.input_events for row in rows.values()}),
        "max_cycle": rows["Max. concurrency"].cycle_time,
        "q_cycle": rows["Q-module (hand)"].cycle_time,
    }


register(BenchCase(
    name="table1_lr",
    title="Table 1: LR-process",
    tier="quick",
    run=run_table1,
    metrics=(
        Metric("full_area", "literals", direction="lower"),
        Metric("max_area", "literals", direction="lower"),
        Metric("q_area", "literals", direction="lower"),
        Metric("lo_ro_area", "literals", direction="lower"),
        Metric("total_area", "literals", direction="lower"),
        Metric("max_csc_signals", "signals"),
        Metric("max_cycle", "delay units", direction="lower"),
        Metric("q_cycle", "delay units", direction="lower"),
        Metric("primes", "primes", direction="lower"),
        Metric("table_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("all_resolved", lambda r: require(
            r["all_resolved"], "every Table 1 row must resolve CSC")),
        Check("full_reduction_two_wires", lambda r: require(
            r["full_area"] == 0 and r["csc"]["Full reduction"] == 0,
            "full reduction must be two wires (area 0, no CSC)")),
        Check("max_concurrency_most_expensive", lambda r: require(
            r["max_csc_signals"] == 2
            and r["max_area"] == max(r["area"].values()),
            "max concurrency needs 2 CSC signals and tops the areas")),
        Check("pairs_strictly_between", lambda r: require(
            r["pairs_kept"] and all(
                0 < r["area"][n] < r["max_area"] for n in r["pair_names"]),
            "pair-preserving rows must lie strictly between")),
        Check("lo_ro_costliest_pair", lambda r: require(
            r["lo_ro_area"] == max(r["area"][n] for n in r["pair_names"])
            and r["csc"]["lo || ro"] >= max(
                r["csc"][n] for n in r["pair_names"] if n != "lo || ro"),
            "lo || ro must be the costliest preserved pair")),
        Check("handshake_round_timing", lambda r: require(
            r["input_events"] == [4]
            and r["max_cycle"] <= r["q_cycle"],
            "cycles must span 4 input events; max-conc no slower than "
            "the hand design")),
    ),
    info_keys=("pair_names",),
    table=lambda r: _paper_table(r, TABLE1_PAPER),
))


# --------------------------------------------------------------------------
# Table 2: the MMU controller case study.

def run_table2(context) -> dict:
    from repro import generate_sg, run_pipeline
    from repro.encoding.insertion import insertion_work
    from repro.logic.minimize import logic_work
    from repro.reduction.fwdred import reduction_work
    from repro.specs.mmu import TABLE2_ROWS, mmu_expanded

    def build():
        before = logic_work()["primes"]
        inserted, searched = insertion_work(), reduction_work()
        sg = generate_sg(mmu_expanded())
        results = {name: run_pipeline(config, initial_sg=sg, name=name)
                   for name, config in TABLE2_ROWS.items()}
        insertion = {key: value - inserted[key]
                     for key, value in insertion_work().items()}
        work = {key: value - searched[key]
                for key, value in reduction_work().items()}
        return sg, results, logic_work()["primes"] - before, insertion, work

    # One round only: seven pipelines, the unreduced-MMU CSC search over
    # three beam levels among them; min-of-N would triple a number that
    # the trajectory tracks but never gates on.
    seconds, (sg, results, primes, insertion, work) = context.best_of(
        build, rounds=1)
    rows = {name: table_row(result) for name, result in results.items()}
    original = rows["original"]
    reduced = {name: row for name, row in rows.items() if name != "original"}
    best_area = min(row.area for row in reduced.values())
    return {
        "rows": [report_row(result) for result in results.values()],
        "sg_states": len(sg),
        **{f"{TABLE2_METRIC_PREFIX[name]}_area": row.area
           for name, row in rows.items()},
        **{f"{TABLE2_METRIC_PREFIX[name]}_cycle": row.cycle_time
           for name, row in rows.items()},
        "best_reduced_area": best_area,
        "csc_reduced_signals": reduced["csc reduced"].csc_signals,
        "area_ratio_best_vs_original": best_area / original.area,
        "primes": primes,
        "insertion_walks": insertion["walks"],
        "insertion_feasible": insertion["feasible"],
        "insertion_built": insertion["built"],
        "insertion_levels": insertion["levels"],
        "fwdred_steps": work["steps"],
        "fwdred_walks": work["walks"],
        "covers_computed": work["covers"],
        "table_seconds": seconds,
        "all_reduced_resolved": all(results[name].csc_resolved()
                                    for name in reduced),
        "some_row_no_slower": any(
            row.cycle_time <= original.cycle_time * 1.3
            for row in reduced.values()),
    }


register(BenchCase(
    name="table2_mmu",
    title="Table 2: MMU controller",
    tier="full",
    run=run_table2,
    metrics=(
        Metric("sg_states", "states"),
        Metric("original_area", "literals"),
        Metric("best_reduced_area", "literals", direction="lower"),
        Metric("csc_reduced_area", "literals", direction="lower"),
        Metric("csc_reduced_signals", "signals", direction="lower"),
        Metric("area_ratio_best_vs_original", "ratio", direction="lower"),
        Metric("primes", "primes", direction="lower"),
        Metric("insertion_walks", "candidates", direction="lower"),
        Metric("insertion_feasible", "candidates"),
        Metric("insertion_built", "graphs", direction="lower"),
        Metric("insertion_levels", "levels"),
        # Every row's cycle time, and the areas not declared above.
        *(Metric(f"{prefix}_cycle", "delay units", direction="lower")
          for prefix in TABLE2_METRIC_PREFIX.values()),
        *(Metric(f"{prefix}_area", "literals", direction="lower")
          for prefix in TABLE2_METRIC_PREFIX.values()
          if prefix not in ("original", "csc_reduced")),
        Metric("fwdred_steps", "steps", direction="lower"),
        Metric("fwdred_walks", "walks", direction="lower"),
        Metric("covers_computed", "covers", direction="lower"),
        Metric("table_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("mmu_264_states", lambda r: require(
            r["sg_states"] == 264,
            f"the four-channel MMU SG has 264 states, got "
            f"{r['sg_states']}")),
        Check("all_reduced_resolved", lambda r: require(
            r["all_reduced_resolved"],
            "every reduced Table 2 row must synthesize")),
        Check("area_halved", lambda r: require(
            r["area_ratio_best_vs_original"] < 0.5,
            "reshuffling must reach less than half the original area")),
        Check("performance_kept", lambda r: require(
            r["some_row_no_slower"],
            "some reduced row must be no slower than the original")),
        Check("csc_reduction_floor", lambda r: require(
            r["csc_reduced_signals"] <= 1
            and r["csc_reduced_area"] == r["best_reduced_area"],
            "the CSC-driven reduction must reach one state signal and "
            "the cheapest reduced area")),
    ),
    table=lambda r: _paper_table(r, TABLE2_PAPER),
))


# --------------------------------------------------------------------------
# Fig. 9 ablation: the exploration knobs (frontier width, weight W).

#: The ablation workload's LR searches, ``(label, search keywords)``: beam
#: widths, best-first, then weights.
ABLATION_SEARCHES = (
    [(f"beam w={width}", {"strategy": "beam", "size_frontier": width})
     for width in (1, 2, 4, 8)]
    + [("best-first", {})]
    + [(f"W={weight}", {"weight": weight}) for weight in (0.0, 0.5, 1.0)])


def ablation_sweep() -> dict:
    """The ablation workload: LR searches over beam widths and weights."""
    from repro import generate_sg, reduce_concurrency
    from repro.specs.lr import lr_expanded

    sg = generate_sg(lr_expanded())
    return {label: reduce_concurrency(sg, **options)
            for label, options in ABLATION_SEARCHES}


def run_ablation(context) -> dict:
    from repro import engine
    from repro.encoding.csc import conflict_count
    from repro.reduction.fwdred import reduction_work

    seconds, results = context.best_of(ablation_sweep)
    # The work counters come from one more cold sweep, so they never
    # depend on how many timing rounds ran.
    engine.clear_caches()
    before = reduction_work()
    ablation_sweep()
    work = {key: value - before[key]
            for key, value in reduction_work().items()}
    beams = [results[f"beam w={w}"].best_cost for w in (1, 2, 4, 8)]
    return {
        "fwdred_steps": work["steps"],
        "fwdred_walks": work["walks"],
        "materialized": work["materialized"],
        "scored": work["scored"],
        "rows": [(name, f"{r.best_cost:.2f}", r.explored_count,
                  conflict_count(r.best))
                 for name, r in results.items()],
        "best_cost_best_first": results["best-first"].best_cost,
        "explored_best_first": results["best-first"].explored_count,
        "conflicts_w0": conflict_count(results["W=0.0"].best),
        "sweep_seconds": seconds,
        "beam_costs": beams,
        "beam_monotonic": all(a >= b - 1e-9
                              for a, b in zip(beams, beams[1:])),
        "best_first_dominates": (results["best-first"].best_cost
                                 <= beams[-1] + 1e-9),
        "all_improve": all(r.best_cost <= r.initial_cost
                           for r in results.values()),
    }


register(BenchCase(
    name="ablation_search",
    title="Ablation: exploration knobs (LR-process)",
    tier="quick",
    run=run_ablation,
    metrics=(
        Metric("best_cost_best_first", "cost", direction="lower"),
        Metric("explored_best_first", "configs"),
        Metric("conflicts_w0", "conflicts", direction="lower"),
        Metric("fwdred_steps", "steps", direction="lower"),
        Metric("fwdred_walks", "walks", direction="lower"),
        Metric("materialized", "graphs", direction="lower"),
        Metric("scored", "configs"),
        Metric("sweep_seconds", "s", direction="lower", measured=True),
    ),
    checks=(
        Check("beam_width_monotonic", lambda r: require(
            r["beam_monotonic"],
            f"wider beams must never cost more, got {r['beam_costs']}")),
        Check("best_first_dominates_beam", lambda r: require(
            r["best_first_dominates"],
            "best-first must at least match the widest beam")),
        Check("w0_conflict_free", lambda r: require(
            r["conflicts_w0"] == 0,
            "pure CSC pressure (W=0) must find a conflict-free design")),
        Check("every_strategy_improves", lambda r: require(
            r["all_improve"],
            "every strategy must improve on the unreduced expansion")),
    ),
    table=lambda r: (("configuration", "best cost", "explored",
                      "CSC conflicts"), r["rows"]),
))
